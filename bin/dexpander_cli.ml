(* dexpander — command-line front end.

   Subcommands:
     generate    describe a generated graph
     decompose   run the (ε, φ)-expander decomposition (Theorem 1)
     sparse-cut  run the nearly most balanced sparse cut (Theorem 3)
     ldd         run the low-diameter decomposition (Theorem 4)
     triangles   enumerate triangles via expander decomposition (Theorem 2)
     faults      reliable BFS/leader election on a lossy network
     throughput  the cursor kernel's rounds/s on a BFS flood

   decompose, sparse-cut and triangles take --trace [--jsonl PATH]:
   after their normal output they print the profile of the same run.

   Graphs are generated on demand: --family gnp/sbm/barbell/dumbbell/
   grid/powerlaw/regular/cliques/tree/cycle/path, with family-specific
   knobs — or loaded from an edge-list file with --file. *)

open Cmdliner
module X = Dexpander

let make_graph ~family ~file ~n ~seed ~p ~parts ~p_in ~p_out ~degree =
  let rng = X.Rng.create (seed + 7919) in
  let g =
    match file with
    | Some path -> (
      (* a bad --file is the user's input, not an internal error *)
      try X.Graph_io.load path
      with Failure msg | Sys_error msg ->
        prerr_endline ("dexpander: " ^ msg);
        exit 2)
    | None ->
    match family with
    | "gnp" -> X.Generators.gnp rng ~n ~p
    | "sbm" ->
      let size = max 1 (n / max 1 parts) in
      X.Generators.planted_partition rng ~parts ~size ~p_in ~p_out
    | "barbell" -> X.Generators.barbell ~clique:(max 2 (n / 2)) ~bridge:(max 0 (n mod 2))
    | "dumbbell" ->
      X.Generators.dumbbell rng ~n1:(n / 2) ~n2:(n - (n / 2)) ~d:degree ~bridges:2
    | "grid" ->
      let side = max 1 (int_of_float (sqrt (float_of_int n))) in
      X.Generators.grid side side
    | "powerlaw" -> X.Generators.chung_lu rng ~n ~exponent:2.5 ~avg_degree:(float_of_int degree)
    | "regular" -> X.Generators.random_regular rng ~n ~d:degree
    | "cliques" -> X.Generators.cliques_chain ~cliques:(max 1 (n / 16)) ~size:16
    | "cycle" -> X.Generators.cycle (max 3 n)
    | "path" -> X.Generators.path (max 1 n)
    | "tree" ->
      let depth = max 1 (int_of_float (log (float_of_int (max 2 n)) /. log 2.0) - 1) in
      X.Generators.binary_tree depth
    | other -> failwith (Printf.sprintf "unknown graph family %S" other)
  in
  X.Generators.connectivize rng g

let describe g =
  Printf.printf "graph: n=%d m=%d (plain %d), degeneracy=%d, connected=%b\n"
    (X.Graph.num_vertices g) (X.Graph.num_edges g) (X.Graph.num_plain_edges g)
    (X.Metrics.degeneracy g)
    (X.Metrics.is_connected g)

(* shared options *)
let family_t =
  Arg.(value & opt string "sbm" & info [ "family"; "f" ] ~docv:"FAMILY" ~doc:"Graph family.")

let file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH" ~doc:"Load the graph from an edge-list file instead of generating one.")

let n_t = Arg.(value & opt int 240 & info [ "n" ] ~docv:"N" ~doc:"Vertex count (approximate).")
let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
let p_t = Arg.(value & opt float 0.1 & info [ "p" ] ~docv:"P" ~doc:"G(n,p) edge probability.")
let parts_t = Arg.(value & opt int 4 & info [ "parts" ] ~doc:"SBM block count.")
let p_in_t = Arg.(value & opt float 0.3 & info [ "p-in" ] ~doc:"SBM intra-block probability.")
let p_out_t = Arg.(value & opt float 0.01 & info [ "p-out" ] ~doc:"SBM inter-block probability.")
let degree_t = Arg.(value & opt int 8 & info [ "degree"; "d" ] ~doc:"Degree for regular-ish families.")
let epsilon_t = Arg.(value & opt float (1.0 /. 6.0) & info [ "epsilon"; "e" ] ~doc:"Target inter-cluster edge fraction.")
let k_t = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Phase-2 level count (Theorem 1 trade-off).")
let phi_t = Arg.(value & opt float 0.05 & info [ "phi" ] ~doc:"Sparse-cut conductance parameter.")
let beta_t = Arg.(value & opt float 0.1 & info [ "beta" ] ~doc:"LDD parameter.")

let graph_of family file n seed p parts p_in p_out degree =
  make_graph ~family ~file ~n ~seed ~p ~parts ~p_in ~p_out ~degree

let generate_cmd =
  let run family file n seed p parts p_in p_out degree =
    describe (graph_of family file n seed p parts p_in p_out degree)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a graph and print its statistics.")
    Term.(const run $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t $ p_out_t $ degree_t)

let attempts_t =
  let pos_int =
    let parse s =
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok v
      | _ -> Error (`Msg "expected a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value & opt pos_int 1
    & info [ "attempts" ]
      ~doc:"Las Vegas retry budget: re-run with fresh randomness until Verify certifies the output, up to this many attempts.")

(* --trace [--jsonl PATH], shared by decompose, sparse-cut and
   triangles: [None] untraced, [Some jsonl] traced, streaming the
   events to [jsonl] when given *)
let trace_t =
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "After the normal output, print the run's span tree, its 10 most congested edges, \
             the per-phase rounds and the trace counters.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"PATH"
          ~doc:
            "Stream every trace event to PATH as JSON Lines (schema: DESIGN.md §8). Implies \
             $(b,--trace).")
  in
  Term.(
    const (fun trace jsonl -> if trace || Option.is_some jsonl then Some jsonl else None)
    $ trace $ jsonl)

(* the profile of one traced run: every charge sits on a leaf of the
   span tree, so the leaf totals sum to the ledger total by
   construction *)
let print_profile ledger trace jsonl =
  Printf.printf "\nspan tree (ledger rounds; sequential sum over components):\n";
  let rec print_node indent (node : X.Rounds.tree) =
    Printf.printf "%s%s  %d rounds%s%s\n" indent node.X.Rounds.span node.X.Rounds.rounds
      (if node.X.Rounds.self > 0 && node.X.Rounds.children <> [] then
         Printf.sprintf " (self %d)" node.X.Rounds.self
       else "")
      (if node.X.Rounds.wall_ns > 0 then
         Printf.sprintf "  [%.2f ms]" (float_of_int node.X.Rounds.wall_ns /. 1e6)
       else "");
    List.iter (print_node (indent ^ "  ")) node.X.Rounds.children
  in
  let tree = X.Rounds.tree ledger in
  print_node "  " tree;
  let rec leaf_sum (node : X.Rounds.tree) =
    node.X.Rounds.self + List.fold_left (fun acc c -> acc + leaf_sum c) 0 node.X.Rounds.children
  in
  let sum = leaf_sum tree and total = X.Rounds.total ledger in
  Printf.printf "  leaf-sum=%d ledger-total=%d%s\n" sum total
    (if sum = total then "" else "  MISMATCH");
  (match X.Trace.top_edges trace 10 with
  | [] -> Printf.printf "\nno executed message traffic (all phases accounted)\n"
  | edges ->
    Printf.printf "\ntop-%d congested edges (cumulative deliveries):\n" (List.length edges);
    List.iter (fun ((u, v), load) -> Printf.printf "  (%d,%d)  %d\n" u v load) edges);
  Printf.printf "\nper-phase rounds (flat):\n";
  List.iter
    (fun (label, rounds) -> Printf.printf "  %-24s %d\n" label rounds)
    (X.Rounds.by_phase ledger);
  Printf.printf "\ntrace: events=%d retained=%d dropped=%d messages=%d faults=%d retries=%d\n"
    (X.Trace.emitted trace)
    (List.length (X.Trace.events trace))
    (X.Trace.dropped trace) (X.Trace.messages trace) (X.Trace.faults trace)
    (X.Trace.retries trace);
  Option.iter (Printf.printf "wrote JSONL events to %s\n") jsonl

(* [with_ledger tracing run] is [run None] untraced; traced, it is
   [run (Some ledger)] on a ledger with a trace attached, followed by
   that run's profile *)
let with_ledger tracing run =
  match tracing with
  | None -> run None
  | Some jsonl ->
    let sink =
      (* an unwritable --jsonl path is the user's input, not an internal error *)
      try Option.map open_out jsonl
      with Sys_error msg ->
        prerr_endline ("dexpander: " ^ msg);
        exit 2
    in
    let trace = X.Trace.create ?sink () in
    let ledger = X.Rounds.create () in
    X.Rounds.attach_trace ledger (Some trace);
    let result = run (Some ledger) in
    Option.iter close_out sink;
    print_profile ledger trace jsonl;
    result

let print_decomposition ~epsilon { X.Las_vegas.result = r; report } =
  Printf.printf
    "decomposition: parts=%d removed=%.2f%% (target %.2f%%) rounds=%d depth=%d \
     phase2=%d partition-calls=%d\n"
    (List.length r.X.Decomposition.parts)
    (100.0 *. r.X.Decomposition.edge_fraction_removed)
    (100.0 *. epsilon)
    r.X.Decomposition.stats.X.Decomposition.rounds
    r.X.Decomposition.stats.X.Decomposition.phase1_depth
    r.X.Decomposition.stats.X.Decomposition.phase2_components
    r.X.Decomposition.stats.X.Decomposition.partition_calls;
  List.iteri
    (fun i part ->
      if i < 20 then Printf.printf "  part %d: %d vertices\n" i (Array.length part))
    r.X.Decomposition.parts;
  if List.length r.X.Decomposition.parts > 20 then
    Printf.printf "  ... (%d parts total)\n" (List.length r.X.Decomposition.parts);
  Printf.printf "verify: partition=%b epsilon-ok=%b min-conductance≥%.4f (target φ=%.4f)\n"
    report.X.Decomposition_verify.is_partition report.X.Decomposition_verify.epsilon_ok
    report.X.Decomposition_verify.min_conductance_lower r.X.Decomposition.phi_target

let decompose_cmd =
  let run family file n seed p parts p_in p_out degree epsilon k attempts tracing =
    let g = graph_of family file n seed p parts p_in p_out degree in
    describe g;
    let certified =
      with_ledger tracing @@ fun ledger ->
      match X.Las_vegas.decompose ?ledger ~attempts ~epsilon ~k g (X.Rng.create seed) with
      | Ok o ->
        print_decomposition ~epsilon o.X.Rounds.value;
        Printf.printf "las-vegas: certified after %d/%d attempt(s), %d rounds total\n"
          o.X.Rounds.attempts attempts o.X.Rounds.rounds_total;
        true
      | Error f ->
        print_decomposition ~epsilon f.X.Rounds.value;
        Printf.printf
          "las-vegas: FAILED — %d attempt(s) exhausted (%d rounds total) without a certificate\n"
          f.X.Rounds.attempts f.X.Rounds.rounds_total;
        false
    in
    if not certified then exit 1
  in
  Cmd.v (Cmd.info "decompose" ~doc:"Run the (ε,φ)-expander decomposition (Theorem 1).")
    Term.(
      const run $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t $ p_out_t
      $ degree_t $ epsilon_t $ k_t $ attempts_t $ trace_t)

let sparse_cut_cmd =
  let run family file n seed p parts p_in p_out degree phi tracing =
    let g = graph_of family file n seed p parts p_in p_out degree in
    describe g;
    with_ledger tracing @@ fun ledger ->
    let r = X.sparse_cut ?ledger ~phi g ~seed in
    if Array.length r.X.Sparse_cut.cut = 0 then
      Printf.printf "sparse-cut: none found — graph certified as a φ=%.4f expander\n" phi
    else
      Printf.printf "sparse-cut: |C|=%d conductance=%.4f balance=%.4f rounds=%d\n"
        (Array.length r.X.Sparse_cut.cut)
        r.X.Sparse_cut.conductance r.X.Sparse_cut.balance r.X.Sparse_cut.rounds
  in
  Cmd.v (Cmd.info "sparse-cut" ~doc:"Run the nearly most balanced sparse cut (Theorem 3).")
    Term.(
      const run $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t $ p_out_t
      $ degree_t $ phi_t $ trace_t)

let ldd_cmd =
  let run family file n seed p parts p_in p_out degree beta =
    let g = graph_of family file n seed p parts p_in p_out degree in
    describe g;
    let r = X.low_diameter_decomposition ~beta g ~seed in
    let m = max 1 (X.Graph.num_edges g) in
    Printf.printf "ldd: parts=%d cut-edges=%d (%.2f%% of m, budget %.2f%%) rounds=%d\n"
      (List.length r.X.Ldd.parts)
      (List.length r.X.Ldd.cut_edges)
      (100.0 *. float_of_int (List.length r.X.Ldd.cut_edges) /. float_of_int m)
      (100.0 *. 3.0 *. beta) r.X.Ldd.rounds;
    Printf.printf "ldd: max part diameter=%d (bound %d)\n"
      (X.Ldd.max_part_diameter g r)
      (X.Ldd.diameter_bound ~n:(X.Graph.num_vertices g) ~beta)
  in
  Cmd.v (Cmd.info "ldd" ~doc:"Run the low-diameter decomposition (Theorem 4).")
    Term.(
      const run $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t $ p_out_t
      $ degree_t $ beta_t)

let triangles_cmd =
  let run family file n seed p parts p_in p_out degree epsilon k tracing =
    let g = graph_of family file n seed p parts p_in p_out degree in
    describe g;
    with_ledger tracing @@ fun ledger ->
    let r = X.enumerate_triangles ?ledger ~epsilon ~k g ~seed in
    Printf.printf
      "triangles: found=%d complete=%b levels=%d total-rounds=%d enumeration-rounds=%d\n"
      (List.length r.X.Triangle_enum.triangles)
      r.X.Triangle_enum.complete
      (List.length r.X.Triangle_enum.levels)
      r.X.Triangle_enum.total_rounds r.X.Triangle_enum.enumeration_rounds;
    let nv = X.Graph.num_vertices g in
    Printf.printf "baselines: trivial=%d dlp-clique=%d izumi-le-gall=%d lower-bound=%d\n"
      (X.Triangle_baselines.trivial_rounds g)
      (X.Triangle_baselines.dlp_clique_rounds g (X.Rng.create seed))
      (X.Triangle_baselines.izumi_le_gall_rounds ~n:nv)
      (X.Triangle_baselines.lower_bound_rounds ~n:nv)
  in
  Cmd.v (Cmd.info "triangles" ~doc:"Enumerate triangles via expander decomposition (Theorem 2).")
    Term.(
      const run $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t $ p_out_t
      $ degree_t $ epsilon_t $ k_t $ trace_t)

let faults_cmd =
  let drop_t =
    Arg.(value & opt float 0.05 & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability.")
  in
  let dup_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability (default drop/2).")
  in
  let fault_seed_t =
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~doc:"Seed of the deterministic fault schedule.")
  in
  let retries_t =
    let pos_int =
      let parse s =
        match int_of_string_opt s with
        | Some v when v >= 1 -> Ok v
        | _ -> Error (`Msg "expected a positive integer")
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(value & opt pos_int 64 & info [ "retries" ] ~doc:"Retransmission budget per message.")
  in
  let run family file n seed p parts p_in p_out degree drop dup fault_seed retries =
    let g = graph_of family file n seed p parts p_in p_out degree in
    describe g;
    let dup = match dup with Some d -> d | None -> drop /. 2.0 in
    let exec faults =
      let ledger = X.Rounds.create () in
      let net = X.Network.create ?faults g ledger in
      let tree = X.Reliable.bfs_tree ~max_retries:retries net ~root:(X.Vertex.local 0) in
      let leaders = X.Reliable.elect_leader ~max_retries:retries net in
      let phases = X.Rounds.by_phase ledger in
      let rounds label = try List.assoc label phases with Not_found -> 0 in
      (rounds "bfs-reliable", rounds "leader-reliable", X.Network.messages_sent net,
       tree, leaders)
    in
    let br0, lr0, m0, tree0, _ = exec None in
    Printf.printf "fault-free: bfs-rounds=%d leader-rounds=%d messages=%d tree-height=%d\n"
      br0 lr0 m0 tree0.X.Primitives.height;
    let faults = X.Faults.create ~drop ~duplicate:dup ~seed:fault_seed in
    let br, lr, m, tree, leaders =
      try exec (Some faults)
      with X.Reliable.Delivery_failed { label; vertex; neighbor; attempts; _ } ->
        Printf.printf
          "FAILED: %s gave up on edge %d->%d after %d retransmissions \
           (dropped=%d duplicated=%d) — raise --retries or lower --drop\n"
          label vertex neighbor attempts
          (X.Faults.drops faults) (X.Faults.duplicates faults);
        exit 1
    in
    Printf.printf
      "lossy (drop=%.3f dup=%.3f seed=%d): bfs-rounds=%d leader-rounds=%d messages=%d\n"
      drop dup fault_seed br lr m;
    Printf.printf "faults: dropped=%d duplicated=%d\n"
      (X.Faults.drops faults) (X.Faults.duplicates faults);
    Printf.printf "overhead: bfs-rounds %.2fx leader-rounds %.2fx messages %.2fx\n"
      (float_of_int br /. float_of_int (max 1 br0))
      (float_of_int lr /. float_of_int (max 1 lr0))
      (float_of_int m /. float_of_int (max 1 m0));
    let bfs_ok = tree.X.Primitives.depth = tree0.X.Primitives.depth in
    let leader_ok = Array.for_all (fun l -> l = leaders.(0)) leaders in
    Printf.printf "correct: bfs=%b leader=%b\n" bfs_ok leader_ok;
    if not (bfs_ok && leader_ok) then exit 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run reliable BFS and leader election on a lossy network and report the overhead.")
    Term.(
      const run $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t $ p_out_t
      $ degree_t $ drop_t $ dup_t $ fault_seed_t $ retries_t)

let throughput_cmd =
  let run family file n seed p parts p_in p_out degree =
    let g = graph_of family file n seed p parts p_in p_out degree in
    describe g;
    let truth = X.Metrics.bfs_distances g 0 in
    (* the [Primitives.bfs] flood, timed on a warm arena *)
    let net = X.Network.create g (X.Rounds.create ()) in
    let bfs = X.Primitives.bfs g ~root:(X.Vertex.local 0) in
    let flood () =
      X.Network.run_active net ~label:"throughput" ~init:bfs.X.Conformance.init
        ~step:bfs.X.Conformance.step ()
    in
    let states, _ = flood () in
    if Array.map (fun st -> st.X.Primitives.dist) states <> truth then
      failwith "throughput: wrong BFS result";
    let t0 = X.Clock.now_ns () in
    let _, rounds = flood () in
    let t1 = X.Clock.now_ns () in
    let secs = float_of_int (t1 - t0) /. 1e9 in
    Printf.printf "cursor rounds=%-6d ms=%-10.2f rounds/s=%.0f\n" rounds (secs *. 1e3)
      (float_of_int rounds /. secs)
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:
         "Time the kernel on the BFS flood over the chosen graph. Try \
          $(b,--family cycle -n 10000): the frontier is O(1) per round, so \
          the active-set worklist does O(1) work per round.")
    Term.(
      const run $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t $ p_out_t
      $ degree_t)

let conformance_cmd =
  let demo_race_t =
    Arg.(
      value & flag
      & info [ "demo-race" ]
          ~doc:
            "Additionally run a deliberately delivery-order-dependent protocol and show \
             that the detector flags it (the command still exits 0 if the clean \
             protocols pass).")
  in
  let run family file n seed p parts p_in p_out degree demo_race =
    let g = graph_of family file n seed p parts p_in p_out degree in
    describe g;
    let report label r =
      Printf.printf
        "%-8s rounds=%d/%d messages=%d/%d (canonical/permuted): %s\n" label
        r.X.Conformance.rounds_canonical r.X.Conformance.rounds_permuted
        r.X.Conformance.messages_canonical r.X.Conformance.messages_permuted
        (if X.Conformance.ok r then "conformant" else "VIOLATIONS");
      List.iter
        (fun v -> Printf.printf "  %s\n" (X.Conformance.describe v))
        r.X.Conformance.violations;
      X.Conformance.ok r
    in
    let bfs_ok =
      report "bfs"
        (X.Conformance.check ~seed g
           ~protocol:(fun () -> X.Primitives.bfs g ~root:(X.Vertex.local 0))
           ())
    in
    let leader_ok =
      report "leader"
        (X.Conformance.check ~seed g ~protocol:(fun () -> X.Primitives.leader g) ())
    in
    let reliable_ok =
      report "reliable"
        (X.Conformance.check ~seed g
           ~protocol:(fun () -> X.Reliable.bfs_protocol g ~root:(X.Vertex.local 0))
           ())
    in
    (* MPX clustering at a fixed β; each run draws its shifts from a
       fresh generator, so both schedules see the same draws *)
    let mpx_ok =
      report "mpx"
        (X.Conformance.check ~seed g
           ~protocol:(fun () -> X.Clustering.protocol g ~beta:0.3 (X.Rng.create seed))
           ())
    in
    if demo_race then begin
      (* adopt the first inbox message's sender: delivery-order
         dependent, so the detector must flag it *)
      let racy () =
        let step ~round ~vertex:v got ib ob =
          let v = X.Vertex.local_int v in
          if round = 1 then
            X.Graph.iter_neighbors g v (fun u ->
                X.Arena.Outbox.send1 ob ~dst:(X.Vertex.local u) v);
          let got = ref got in
          X.Arena.Inbox.iter1 ib (fun sender _ -> if !got < 0 then got := sender);
          !got
        in
        { X.Conformance.init = (fun _ -> -1); step }
      in
      let r = X.Conformance.check ~seed g ~protocol:racy () in
      Printf.printf "demo-race: detector %s\n"
        (if X.Conformance.ok r then "MISSED the race" else "caught the race, as expected");
      List.iter
        (fun v -> Printf.printf "  %s\n" (X.Conformance.describe v))
        r.X.Conformance.violations
    end;
    if not (bfs_ok && leader_ok && reliable_ok && mpx_ok) then exit 1
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Run every kernel protocol of the library (BFS, leader election, reliable BFS and \
          MPX clustering) in the canonical and in a shuffled activation/delivery order and audit the CONGEST invariants \
          (schedule-permutation race detector).")
    Term.(
      const run $ family_t $ file_t $ n_t $ seed_t $ p_t $ parts_t $ p_in_t $ p_out_t
      $ degree_t $ demo_race_t)

let () =
  let doc = "Distributed expander decomposition and triangle enumeration (PODC 2019)" in
  let info = Cmd.info "dexpander" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; decompose_cmd; sparse_cut_cmd; ldd_cmd; triangles_cmd;
            faults_cmd; throughput_cmd; conformance_cmd ]))
