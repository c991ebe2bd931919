(* perfbench — end-to-end and per-layer benchmark of the paper's two
   results: the (ε, φ)-expander decomposition (Theorem 1, plus the
   sparse cut it is built on, Theorem 3) and triangle enumeration
   (Theorem 2).

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--expect-digest HEX] [--out DIR]

   One closed-loop client on OCaml's main domain, with the Staged
   executor and no trace ring, calls one public entry point per
   operation and repeats the same (graph, algorithm seed) for S
   seconds. The graph comes from --seed; the algorithm seed is fixed.

   Every operation's output is checked: the first one in full, later
   ones by digest against the first. With --expect-digest the digest
   must also equal the pinned one, or every operation counts as failed.
   The last stdout line is one JSON object {correct, attempted, failed,
   metrics}; lines before it start with '#'.

   End-to-end times are medians over the run, each repetition divided
   by a calibration timing taken around it and reported at a nominal
   host speed (see [nominal_cal_s]); raw times are printed in the
   header.

   --trace 0 reports the end-to-end metrics. --trace 1 runs plain
   operations for half the time and the same operations with a Rounds
   ledger for the other half, then probes that call single layers
   directly on the workload graph. It reports the per-layer metrics and
   writes its own spans, plus the Rounds.tree of the fastest traced
   operation (raw seconds), to DIR/<workload>-<seed>-trace.json. *)

module X = Dexpander
module G = X.Graph
module J = X.Json

type workload = Decompose_expander | Sparsecut_expander | Triangles_gnp

let workload_names =
  [ ("decompose-expander", Decompose_expander);
    ("sparsecut-expander", Sparsecut_expander);
    ("triangles-gnp", Triangles_gnp) ]

let algo_seed = 20190701

let epsilon_of = function
  | Decompose_expander | Sparsecut_expander -> 0.3
  | Triangles_gnp -> 1.0 /. 6.0

let k_decomp = 2
let cut_phi = 0.05

(* Random regular graphs are expanders w.h.p., so Partition finds no
   cut and runs its whole iteration budget: the work per operation is
   nearly the same for every seed. Inputs with planted cuts make
   Partition stop at a random iteration, and the cost of one
   decomposition then varies several-fold from seed to seed. *)
let generate w seed =
  let rng = X.Rng.create seed in
  let g =
    match w with
    | Decompose_expander -> X.Generators.random_regular rng ~n:160 ~d:8
    | Sparsecut_expander -> X.Generators.random_regular rng ~n:200 ~d:8
    | Triangles_gnp -> X.Generators.gnp rng ~n:128 ~p:0.5
  in
  X.Generators.connectivize rng g

(* ---------- clock and statistics ---------- *)

let now_s () = float_of_int (X.Clock.now_ns ()) *. 1e-9

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else 0.5 *. (a.((k / 2) - 1) +. a.(k / 2))

let minimum xs = List.fold_left Float.min Float.infinity xs

(* A fixed piece of work in the library's style (short-lived
   allocation, int-keyed Hashtbl traffic, float arithmetic, a sort)
   that uses no library code, so no change to the library can move it.
   Timing it next to every operation measures how fast the host is
   running at that moment. Its live data stays small (~100 KB), so
   peak_heap_mb remains the operation's. *)
let calibrate () =
  let t0 = now_s () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 60_000 do
    let k = (i * 7919) land 1023 in
    let v = match Hashtbl.find_opt h k with Some v -> v | None -> 0.0 in
    Hashtbl.replace h k ((v *. 0.5) +. float_of_int i)
  done;
  let sorted = ref 0 in
  for r = 1 to 20 do
    let l = List.init 2_000 (fun i -> (((i * 104_729) + r) land 65_535, float_of_int i)) in
    sorted := !sorted + List.length (List.sort compare l)
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h, !sorted));
  now_s () -. t0

(* Times are reported at a nominal host speed, the one at which
   [calibrate] takes [nominal_cal_s]: each timing is divided by the
   calibration time measured around it. On a host whose speed changes
   with its neighbours' load (a shared 2-core VM was seen to swing
   between two speeds 1.5x apart, for seconds to minutes at a time)
   raw times follow the neighbours; the ratios do not. *)
let nominal_cal_s = 0.02

let mb bytes = bytes /. 1e6

(* ---------- own spans (name, start, end, parent, op) ---------- *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1 at the top *)
  op : int; (* the operation or probe the span belongs to *)
  start_ns : int;
  end_ns : int;
}

let spans = ref []
let next_span = ref 0
let span_stack = ref []

let with_span ~op name f =
  let id = !next_span in
  incr next_span;
  let parent = match !span_stack with p :: _ -> p | [] -> -1 in
  span_stack := id :: !span_stack;
  let start_ns = X.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      span_stack := List.tl !span_stack;
      spans := { id; name; parent; op; start_ns; end_ns = X.Clock.now_ns () } :: !spans)
    f

(* ---------- operations ---------- *)

type result =
  | Decomp of X.Decomposition.result
  | Cut of X.Sparse_cut.t
  | Tri of X.Triangle_enum.result

let run_op ?ledger w g =
  let epsilon = epsilon_of w in
  match w with
  | Decompose_expander -> Decomp (X.decompose ?ledger ~epsilon ~k:k_decomp g ~seed:algo_seed)
  | Sparsecut_expander -> Cut (X.sparse_cut ?ledger ~phi:cut_phi g ~seed:algo_seed)
  | Triangles_gnp ->
    Tri (X.enumerate_triangles ?ledger ~epsilon ~k:k_decomp g ~seed:algo_seed)

let sim_rounds = function
  | Decomp d -> d.X.Decomposition.stats.X.Decomposition.rounds
  | Cut c -> c.X.Sparse_cut.rounds
  | Tri t -> t.X.Triangle_enum.total_rounds

let sim_messages_words = function
  | Decomp d ->
    let s = d.X.Decomposition.stats in
    (s.X.Decomposition.messages, s.X.Decomposition.words)
  | Cut _ -> (0, 0) (* Partition is accounted, never executed on the kernel *)
  | Tri t -> (t.X.Triangle_enum.messages, t.X.Triangle_enum.words)

let norm_edge (u, v) = if u <= v then (u, v) else (v, u)

(* Digest of everything a result claims: the output sets plus the
   simulated cost, so a change that moves any of them shows. *)
let digest r =
  let b = Buffer.create 4096 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  let ints a =
    Array.iter int a;
    Buffer.add_char b ';'
  in
  (match r with
  | Decomp d ->
    Buffer.add_string b "decompose:";
    List.map (fun p -> List.sort Int.compare (Array.to_list p)) d.X.Decomposition.parts
    |> List.sort compare
    |> List.iter (fun p -> ints (Array.of_list p));
    List.sort compare (List.map norm_edge d.X.Decomposition.removed_edges)
    |> List.iter (fun (u, v) -> int u; int v)
  | Cut c ->
    Buffer.add_string b "sparse-cut:";
    ints c.X.Sparse_cut.cut;
    int c.X.Sparse_cut.iterations;
    int c.X.Sparse_cut.aborted_copies;
    Buffer.add_string b (Printf.sprintf "%h;" c.X.Sparse_cut.conductance)
  | Tri t ->
    Buffer.add_string b "triangles:";
    List.iter (fun (u, v, w) -> int u; int v; int w) t.X.Triangle_enum.triangles);
  let msgs, words = sim_messages_words r in
  int (sim_rounds r);
  int msgs;
  int words;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Full output check, independent of what the result says about itself. *)
let check w g r =
  match r with
  | Decomp d ->
    (* is_partition && epsilon_ok, and the removed fraction recounted
       from the parts; phi_ok is not a sound certificate *)
    let report = X.Decomposition_verify.check g d (X.Rng.create (algo_seed + 1)) in
    let crossing = X.Metrics.inter_component_edges g d.X.Decomposition.parts in
    report.X.Decomposition_verify.is_partition
    && report.X.Decomposition_verify.epsilon_ok
    && float_of_int crossing <= (epsilon_of w *. float_of_int (max 1 (G.num_edges g))) +. 1e-9
  | Cut c ->
    X.Sparse_cut.certified_no_sparse_cut c
    ||
    let h = X.Schedule.h_of ~preset:X.Nibble_params.Practical ~n:(G.num_vertices g) cut_phi in
    let phi = X.Metrics.conductance g c.X.Sparse_cut.cut in
    phi <= h && Float.abs (phi -. c.X.Sparse_cut.conductance) <= 1e-9
  | Tri t -> t.X.Triangle_enum.complete && t.X.Triangle_enum.triangles = X.Triangles.enumerate g

let describe d ok = function
  | Decomp r ->
    let st = r.X.Decomposition.stats in
    let rm = st.X.Decomposition.removals in
    Printf.printf
      "# digest %s check=%b decompose: parts=%d depth=%d partition_calls=%d discarded=%d \
       phase2=%d removed=%d/%d/%d rounds=%d\n"
      d ok (List.length r.X.Decomposition.parts) st.X.Decomposition.phase1_depth
      st.X.Decomposition.partition_calls st.X.Decomposition.discarded_cuts
      st.X.Decomposition.phase2_components rm.X.Decomposition.remove1 rm.X.Decomposition.remove2
      rm.X.Decomposition.remove3 st.X.Decomposition.rounds
  | Cut c ->
    Printf.printf "# digest %s check=%b sparse-cut: |cut|=%d iterations=%d aborted=%d rounds=%d\n"
      d ok (Array.length c.X.Sparse_cut.cut) c.X.Sparse_cut.iterations
      c.X.Sparse_cut.aborted_copies c.X.Sparse_cut.rounds
  | Tri t ->
    Printf.printf "# digest %s check=%b triangles: count=%d levels=%d rounds=%d\n" d ok
      (List.length t.X.Triangle_enum.triangles) (List.length t.X.Triangle_enum.levels)
      t.X.Triangle_enum.total_rounds

(* ---------- one timed operation ---------- *)

type sample = {
  op : int; (* id of the operation's span *)
  wall : float;
  host : float; (* calibration time around the operation *)
  alloc_bytes : float;
  minor_gcs : int;
  major_gcs : int;
  tree : X.Rounds.tree option;
}

let nominal s = s.wall /. s.host *. nominal_cal_s

let rec leaf_sum (t : X.Rounds.tree) =
  List.fold_left (fun acc c -> acc + leaf_sum c) t.X.Rounds.self t.X.Rounds.children

let timed_op ~traced w g =
  let ledger = if traced then Some (X.Rounds.create ()) else None in
  let cal_before = calibrate () in
  let s0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = now_s () in
  let op = !next_span in
  let result =
    with_span ~op (if traced then "op.traced" else "op.plain") (fun () -> run_op ?ledger w g)
  in
  let wall = now_s () -. t0 in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  let s1 = Gc.quick_stat () in
  let cal_after = calibrate () in
  ( { op;
    wall;
    host = 0.5 *. (cal_before +. cal_after);
    alloc_bytes;
    minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    tree = Option.map X.Rounds.tree ledger },
  result )

(* ---------- Rounds.tree walks ---------- *)

let rec fold_tree f acc (t : X.Rounds.tree) =
  List.fold_left (fold_tree f) (f acc t) t.X.Rounds.children

let sum_named name field t =
  fold_tree (fun acc (n : X.Rounds.tree) -> if n.X.Rounds.span = name then acc + field n else acc) 0 t

let wall_of (n : X.Rounds.tree) = n.X.Rounds.wall_ns
let rounds_of (n : X.Rounds.tree) = n.X.Rounds.rounds
let secs ns = float_of_int ns *. 1e-9
let is_level name = String.length name > 6 && String.sub name 0 6 = "level-"

(* Phase-1 level-span walls minus the partition walls inside them: the
   LDD plus graph-operation share of Phase 1. *)
let ldd_graph_ns t =
  fold_tree
    (fun acc (n : X.Rounds.tree) ->
      if n.X.Rounds.span <> "phase1" then acc
      else
        List.fold_left
          (fun acc (lvl : X.Rounds.tree) ->
            if is_level lvl.X.Rounds.span then
              acc + lvl.X.Rounds.wall_ns - sum_named "partition" wall_of lvl
            else acc)
          acc n.X.Rounds.children)
    0 t

let rec tree_json (t : X.Rounds.tree) =
  J.Obj
    [ ("span", J.String t.X.Rounds.span);
      ("rounds", J.Int t.X.Rounds.rounds);
      ("self", J.Int t.X.Rounds.self);
      ("wall_ns", J.Int t.X.Rounds.wall_ns);
      ("children", J.List (List.map tree_json t.X.Rounds.children)) ]

(* ---------- probes: single layers called on the workload graph ---------- *)

(* Repeat [f] until [budget] seconds or [max_reps] calls; fastest call. *)
let probe ?(budget = 0.3) ?(max_reps = 50) name f =
  let times = ref [] and reps = ref 0 and last = ref None in
  let start = now_s () in
  with_span ~op:!next_span name (fun () ->
      while !reps < 1 || (!reps < max_reps && now_s () -. start < budget) do
        let t0 = now_s () in
        last := Some (f ());
        times := (now_s () -. t0) :: !times;
        incr reps
      done);
  (minimum !times, Option.get !last)

let max_degree_vertex g =
  G.fold_vertices g 0 (fun best v -> if G.degree g v > G.degree g best then v else best)

type layer_probes = {
  walk_step_s : float;
  sweep_s : float;
  nibble_s : float;
  refine_s : float;
  mpx_s : float;
  mpx_alloc : float;
  horizon : int;
  saturated_s : float;
  remove_s : float;
  components_s : float;
  exact_s : float;
  best_k_s : float;
}

let run_probes w g result =
  let schedule = X.Schedule.make ~epsilon:(epsilon_of w) ~k:k_decomp g in
  let beta = schedule.X.Schedule.beta in
  let phi = match w with Sparsecut_expander -> cut_phi | _ -> schedule.X.Schedule.phi.(0) in
  let params = X.Nibble_params.make ~phi ~m:(max 1 (G.num_edges g)) () in
  let src = max_degree_vertex g in
  let b = max 1 ((params.X.Nibble_params.ell + 1) / 2) in
  let eps = X.Nibble_params.eps_b params b in
  let walk_steps = 32 in
  let walk_s, walk =
    probe "probe.walk" (fun () -> X.Walk.truncated_walk g ~src ~eps ~steps:walk_steps)
  in
  let sweep_s, _ = probe "probe.sweep" (fun () -> X.Sweep.scan g walk.(walk_steps)) in
  let nibble_s, _ =
    probe ~max_reps:3 "probe.nibble" (fun () -> X.Nibble.approximate params g ~src ~b)
  in
  let refine_s, _ = probe ~max_reps:5 "probe.refine" (fun () -> Dex_ldd.Refine.run g ~beta) in
  let mpx_alloc = ref 0.0 in
  let mpx_s, clustering =
    probe ~max_reps:3 "probe.mpx" (fun () ->
        let net = X.Network.create g (X.Rounds.create ()) in
        let a0 = Gc.allocated_bytes () in
        let c = X.Clustering.run net ~beta (X.Rng.create algo_seed) in
        mpx_alloc := Gc.allocated_bytes () -. a0;
        c)
  in
  (* the op's own member set and removed edges *)
  let everyone = Array.init (G.num_vertices g) Fun.id in
  let members, removed =
    match result with
    | Decomp d ->
      let largest =
        List.fold_left
          (fun best p -> if Array.length p > Array.length best then p else best)
          [||] d.X.Decomposition.parts
      in
      (largest, d.X.Decomposition.removed_edges)
    | Cut c ->
      let mask = X.Metrics.mask_of g c.X.Sparse_cut.cut in
      let boundary = ref [] in
      G.iter_edges g (fun u v -> if mask.(u) <> mask.(v) then boundary := (u, v) :: !boundary);
      (everyone, !boundary)
    | Tri _ -> (everyone, [])
  in
  let saturated_s, _ =
    probe "probe.saturated_subgraph" (fun () -> G.saturated_subgraph g members)
  in
  let remove_s, remaining = probe "probe.remove_edges" (fun () -> G.remove_edges g removed) in
  let components_s, _ =
    probe "probe.connected_components" (fun () -> X.Metrics.connected_components remaining)
  in
  let exact_s, _ = probe ~max_reps:5 "probe.exact_enumerate" (fun () -> X.Triangles.enumerate g) in
  let queries =
    X.Triangle_enum.instances_for ~n:(G.num_vertices g) ~incident:(G.num_plain_edges g)
      ~volume:(G.total_volume g)
  in
  let best_k_s, _ =
    probe ~max_reps:5 "probe.best_k" (fun () ->
        X.Routing.best_k_for g (X.Rng.create algo_seed) ~queries ~k_max:4)
  in
  { walk_step_s = walk_s /. float_of_int walk_steps;
    sweep_s;
    nibble_s;
    refine_s;
    mpx_s;
    mpx_alloc = !mpx_alloc;
    horizon = clustering.X.Clustering.epochs;
    saturated_s;
    remove_s;
    components_s;
    exact_s;
    best_k_s }

(* ---------- spans file ---------- *)

let write_trace ~path ~wname ~seed tree =
  let all = List.rev !spans in
  let child_ns id =
    List.fold_left (fun acc s -> if s.parent = id then acc + s.end_ns - s.start_ns else acc) 0 all
  in
  let span_json s =
    J.Obj
      [ ("id", J.Int s.id); ("name", J.String s.name); ("parent", J.Int s.parent);
        ("op", J.Int s.op); ("start_ns", J.Int s.start_ns); ("end_ns", J.Int s.end_ns);
        ("self_ns", J.Int (s.end_ns - s.start_ns - child_ns s.id)) ]
  in
  let doc =
    J.Obj
      [ ("workload", J.String wname); ("seed", J.Int seed);
        ("spans", J.List (List.map span_json all)); ("rounds_tree", tree_json tree) ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (J.to_string doc))

(* ---------- command line ---------- *)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  expect : string option;
  out : string;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--expect-digest HEX] [--out DIR]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and expect = ref None and out = ref "." in
  let rec go = function
    | "--workload" :: v :: rest -> workload := List.assoc_opt v workload_names; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--expect-digest" :: v :: rest -> expect := Some v; go rest
    | "--out" :: v :: rest -> out := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
    { workload; seed; seconds; trace; expect = !expect; out = !out }
  | _ -> usage ()

(* ---------- main ---------- *)

let () =
  let args = parse_args () in
  let w = args.workload in
  let wname = fst (List.find (fun (_, w') -> w' = w) workload_names) in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%b\n" wname args.seed
    args.seconds args.trace;
  Printf.printf "# host: recommended_domain_count=%d ocaml=%s executor=Staged domains=1\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  X.Network.set_default_executor X.Network.Staged;
  (* set-up is generating the graph; it is repeated after every
     operation too, so its median spans the whole run *)
  let setup_times = ref [] in
  let setup host =
    let t0 = now_s () in
    let g = with_span ~op:!next_span "setup" (fun () -> generate w args.seed) in
    setup_times := ((now_s () -. t0) /. host *. nominal_cal_s) :: !setup_times;
    g
  in
  let g = setup (calibrate ()) in
  let edges = G.edges g in
  let setup_again host =
    if G.edges (setup host) <> edges then failwith "graph generation is not deterministic"
  in
  for _ = 1 to 4 do setup_again (calibrate ()) done;
  Printf.printf "# graph: n=%d m=%d max_degree=%d\n%!" (G.num_vertices g) (G.num_edges g)
    (G.degree g (max_degree_vertex g));
  (* every op is checked: in full the first time, by digest after *)
  let attempted = ref 0 and failed = ref 0 and reference = ref None in
  let verdict s result =
    incr attempted;
    let d = digest result in
    let ok =
      match !reference with
      | Some d0 -> d = d0
      | None ->
        let ok = with_span ~op:s.op "check" (fun () -> check w g result) in
        reference := Some d;
        describe d ok result;
        ok
    in
    (* ledger invariant: the leaves sum to the total *)
    let ledger_ok = match s.tree with Some t -> leaf_sum t = t.X.Rounds.rounds | None -> true in
    if not (ok && ledger_ok) then incr failed
  in
  (* samples of every op, plus the fastest one (at nominal speed) with
     its result; other results are dropped so the heap stays the op's *)
  let loop ~traced budget =
    let out = ref [] and best = ref None in
    let stop = now_s () +. budget in
    while !out = [] || now_s () < stop do
      let s, result = timed_op ~traced w g in
      verdict s result;
      setup_again s.host;
      (match !best with
      | Some (b, _) when nominal b <= nominal s -> ()
      | _ -> best := Some (s, result));
      out := s :: !out
    done;
    (!out, Option.get !best)
  in
  let report label samples =
    let walls = List.map (fun s -> s.wall) samples in
    Printf.printf
      "# %s ops=%d raw wall min=%.6f median=%.6f max=%.6f; calibration median=%.6f\n" label
      (List.length samples) (minimum walls) (median walls)
      (List.fold_left Float.max 0.0 walls)
      (median (List.map (fun s -> s.host) samples))
  in
  let metric unit v = (J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]) in
  let count v = metric "count" (float_of_int v) in
  let metrics =
    if not args.trace then begin
      let samples, (_, result) = loop ~traced:false args.seconds in
      report "plain" samples;
      let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
      [ ("wall_s", metric "s" (median (List.map nominal samples)));
        ("setup_s", metric "s" (median !setup_times));
        ("alloc_mb", metric "MB" (mb (median (List.map (fun s -> s.alloc_bytes) samples))));
        ("peak_heap_mb", metric "MB" (mb (float_of_int (top_heap * (Sys.word_size / 8)))));
        ("sim_rounds", metric "rounds" (float_of_int (sim_rounds result))) ]
    end
    else begin
      let plain, (fast_plain, _) = loop ~traced:false (args.seconds /. 2.0) in
      let traced, (rep, rep_result) = loop ~traced:true (args.seconds /. 2.0) in
      report "plain" plain;
      report "traced" traced;
      let tree = Option.get rep.tree in
      let tree_s name = secs (sum_named name wall_of tree) in
      let p = run_probes w g rep_result in
      if p.horizon <= 0 then incr failed;
      let path = Filename.concat args.out (Printf.sprintf "%s-%d-trace.json" wname args.seed) in
      write_trace ~path ~wname ~seed:args.seed tree;
      Printf.printf "# trace: %s\n" path;
      let msgs, words = sim_messages_words rep_result in
      let decomp f = match rep_result with Decomp d -> f d.X.Decomposition.stats | _ -> 0 in
      let cut f = match rep_result with Cut c -> f c | _ -> 0 in
      [ ("sparsecut.partition_s", metric "s" (tree_s "partition"));
        ("sparsecut.partition_share", metric "ratio" (tree_s "partition" /. rep.wall));
        ("sparsecut.partition_calls",
          count
            (match rep_result with
            | Cut _ -> 1
            | _ -> decomp (fun s -> s.X.Decomposition.partition_calls)));
        ("sparsecut.iterations", count (cut (fun c -> c.X.Sparse_cut.iterations)));
        ("sparsecut.aborted_copies", count (cut (fun c -> c.X.Sparse_cut.aborted_copies)));
        ("sparsecut.nibble_execute_rounds", count (sum_named "nibble-execute" rounds_of tree));
        ("sparsecut.nibble_approximate_s", metric "s" p.nibble_s);
        ("expander.discard_ratio",
          metric "ratio"
            (float_of_int (decomp (fun s -> s.X.Decomposition.discarded_cuts))
            /. float_of_int (max 1 (decomp (fun s -> s.X.Decomposition.partition_calls)))));
        ("expander.phase1_s", metric "s" (tree_s "phase1"));
        ("expander.phase2_s", metric "s" (tree_s "phase2"));
        ("expander.ldd_graph_s", metric "s" (secs (ldd_graph_ns tree)));
        ("spectral.walk_step_sparse_s", metric "s" p.walk_step_s);
        ("spectral.sweep_scan_s", metric "s" p.sweep_s);
        ("ldd.refine_s", metric "s" p.refine_s);
        ("ldd.mpx_s", metric "s" p.mpx_s);
        ("ldd.mpx_alloc_mb", metric "MB" (mb p.mpx_alloc));
        ("ldd.horizon", metric "rounds" (float_of_int p.horizon));
        ("congest.rounds_per_s", metric "1/s" (float_of_int p.horizon /. p.mpx_s));
        ("congest.bytes_per_round", metric "B" (p.mpx_alloc /. float_of_int (max 1 p.horizon)));
        ("congest.messages", count msgs);
        ("congest.words", count words);
        ("congest.executed_share",
          metric "ratio"
            (float_of_int (sum_named "mpx-clustering" rounds_of tree)
            /. float_of_int (max 1 tree.X.Rounds.rounds)));
        ("graph.saturated_subgraph_s", metric "s" p.saturated_s);
        ("graph.remove_edges_s", metric "s" p.remove_s);
        ("graph.connected_components_s", metric "s" p.components_s);
        ("triangle.exact_enumerate_s", metric "s" p.exact_s);
        ("triangle.decompose_share",
          metric "ratio"
            (match rep_result with Tri _ -> tree_s "decompose" /. rep.wall | _ -> 0.0));
        ("triangle.levels",
          count (match rep_result with Tri t -> List.length t.X.Triangle_enum.levels | _ -> 0));
        ("routing.best_k_s", metric "s" p.best_k_s);
        ("runtime.minor_gcs", count fast_plain.minor_gcs);
        ("runtime.major_gcs", count fast_plain.major_gcs);
        ("obs.ledger_overhead_frac",
          metric "ratio"
            ((median (List.map nominal traced) /. median (List.map nominal plain)) -. 1.0)) ]
    end
  in
  let d = Option.get !reference in
  Printf.printf "# run digest: %s\n" d;
  (match args.expect with
  | Some e when e <> d ->
    Printf.printf "# digest mismatch: pinned %s\n" e;
    failed := !attempted
  | _ -> ());
  Printf.printf "# attempted=%d failed=%d fail_frac=%g\n" !attempted !failed
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (!failed = 0)); ("attempted", J.Int !attempted);
            ("failed", J.Int !failed); ("metrics", J.Obj metrics) ]))
