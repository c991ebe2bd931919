(* Tests for the Nibble family and the nearly most balanced sparse cut
   (Theorem 3): parameter formulas, the j-sequence, single nibbles on
   planted instances, ParallelNibble's overlap machinery, Partition's
   balance/conductance guarantees, and the baselines. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Params = Dex_sparsecut.Params
module Nibble = Dex_sparsecut.Nibble
module Pn = Dex_sparsecut.Parallel_nibble
module Partition = Dex_sparsecut.Partition
module Baselines = Dex_sparsecut.Baselines
module Exact = Dex_spectral.Exact
module View = Dex_spectral.View
module Rng = Dex_util.Rng
module Rounds = Dex_congest.Rounds

let mk_params ?(preset = Params.Practical) phi m = Params.make ~preset ~phi ~m ()

(* ---------- params ---------- *)

let test_params_formulas_theory () =
  let p = mk_params ~preset:Params.Theory (1.0 /. 20.0) 1000 in
  (* t0 = 49·ln(1000·e²)/φ² *)
  let expected_t0 = Float.ceil (49.0 *. log (1000.0 *. exp 2.0) /. (0.05 *. 0.05)) in
  Alcotest.(check int) "t0" (int_of_float expected_t0) p.Params.t0;
  Alcotest.(check int) "ell = ceil log2 m" 10 p.Params.ell;
  let expected_gamma = 5.0 *. 0.05 /. (7.0 *. 7.0 *. 8.0 *. log (1000.0 *. exp 4.0)) in
  Alcotest.(check (float 1e-12)) "gamma" expected_gamma p.Params.gamma;
  let expected_f = (0.05 ** 3.0) /. (144.0 *. (log (1000.0 *. exp 4.0) ** 2.0)) in
  Alcotest.(check (float 1e-15)) "f(phi)" expected_f p.Params.f_phi

let test_params_eps_b_halves () =
  let p = mk_params 0.05 1000 in
  for b = 1 to p.Params.ell - 1 do
    let r = Params.eps_b p b /. Params.eps_b p (b + 1) in
    Alcotest.(check (float 1e-9)) "eps_b ratio 2" 2.0 r
  done;
  Alcotest.check_raises "b out of range" (Invalid_argument "Params.eps_b: b out of range")
    (fun () -> ignore (Params.eps_b p 0))

let test_params_validation () =
  Alcotest.check_raises "phi too large"
    (Invalid_argument "Params.make: phi must be in (0, 1/12]") (fun () ->
      ignore (mk_params 0.2 100));
  Alcotest.check_raises "phi zero" (Invalid_argument "Params.make: phi must be in (0, 1/12]")
    (fun () -> ignore (mk_params 0.0 100))

(* Practical caps t₀ and floors the copy count at 2, which is the
   count on every volume 2 … 2·10¹² (m = volume/2): the paper's k is 1
   there. The paper's s is left unclamped, and at practical constants
   it is far beyond any iteration Partition reaches. *)
let test_params_caps () =
  let p = mk_params 0.05 1_000_000 in
  Alcotest.(check bool) "practical t0 capped" true (p.Params.t0 <= 20_000);
  List.iter
    (fun phi ->
      let volume = ref 2 in
      for _ = 0 to 12 do
        let m = !volume / 2 in
        let copies preset = Params.parallel_copies (mk_params ~preset phi m) ~volume:!volume in
        Alcotest.(check int) (Printf.sprintf "practical copies, volume %d" !volume) 2
          (copies Params.Practical);
        Alcotest.(check bool) (Printf.sprintf "theory copies >= 1, volume %d" !volume) true
          (copies Params.Theory >= 1);
        volume := !volume * 10
      done)
    [ 1.0 /. 12.0; 1.0 /. 48.0 ];
  let iters = Params.partition_iterations p ~volume:2_000_000 ~p:0.01 in
  Alcotest.(check bool) "practical iterations >= 1e11" true (iters >= 100_000_000_000);
  let w = Params.overlap_bound p ~volume:2_000_000 in
  Alcotest.(check int) "w = 10 ceil ln vol" (10 * 15) w

let test_h_inverse_roundtrip () =
  let n = 1024 in
  let theta = 0.3 in
  (* h_inverse(h(θ)) = θ: the ladder φ_i = h⁻¹(φ_{i-1}) inverts h *)
  Alcotest.(check (float 1e-9)) "roundtrip" theta (Params.h_inverse ~n (Params.h ~n theta));
  Alcotest.(check bool) "h increasing" true (Params.h ~n 0.4 > Params.h ~n 0.3);
  Alcotest.(check bool) "h_inverse contracts small θ" true (Params.h_inverse ~n 0.1 < 0.1)

(* the intended identity test, spelled directly *)
let test_sweep_schedule () =
  let p = mk_params 0.05 1000 in
  (* practical stride 16: early window plus every 16th step *)
  Alcotest.(check bool) "early window" true (Params.should_sweep p 7);
  Alcotest.(check bool) "stride multiple" true (Params.should_sweep p 160);
  Alcotest.(check bool) "skipped step" false (Params.should_sweep p 161);
  let theory = mk_params ~preset:Params.Theory 0.05 1000 in
  Alcotest.(check bool) "theory checks every step" true (Params.should_sweep theory 161)

let test_relaxed_factor_presets () =
  let practical = mk_params 0.05 1000 in
  let theory = mk_params ~preset:Params.Theory 0.05 1000 in
  Alcotest.(check (float 1e-9)) "practical 3" 3.0 practical.Params.c1_relaxed_factor;
  Alcotest.(check (float 1e-9)) "theory 12 (the paper's C.1-star)" 12.0
    theory.Params.c1_relaxed_factor

let test_practical_output_within_3phi () =
  (* with the practical preset every non-empty output obeys the
     tightened C.1-star: conductance <= 3 phi *)
  let rng = Rng.create 77 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:50 ~p:0.15) in
  let phi = 1.0 /. 20.0 in
  let params = mk_params phi (Graph.num_edges g) in
  for seed = 1 to 6 do
    let outcome = Nibble.approximate params g ~src:(seed * 7 mod 50) ~b:1 in
    match outcome.Nibble.result with
    | None -> ()
    | Some cut ->
      Alcotest.(check bool) "<= 3 phi" true (cut.Nibble.conductance <= (3.0 *. phi) +. 1e-9)
  done

let test_h_identity () =
  let n = 512 in
  let theta = 0.12 in
  let lf = log (float_of_int n) in
  Alcotest.(check (float 1e-9)) "h" ((theta ** (1.0 /. 3.0)) *. (lf ** (5.0 /. 3.0)))
    (Params.h ~n theta);
  Alcotest.(check (float 1e-9)) "h_inverse" (theta ** 3.0 /. (lf ** 5.0))
    (Params.h_inverse ~n theta)

(* ---------- single nibbles ---------- *)

let test_nibble_finds_planted_cut () =
  let g = Gen.barbell ~clique:16 ~bridge:0 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let outcome = Nibble.approximate params g ~src:0 ~b:3 in
  match outcome.Nibble.result with
  | None -> Alcotest.fail "nibble should find the barbell cut"
  | Some cut ->
    Alcotest.(check bool) "conductance within 12φ" true
      (cut.Nibble.conductance <= 12.0 /. 16.0 +. 1e-9);
    Alcotest.(check bool) "nontrivial" true (Array.length cut.Nibble.vertices >= 2);
    (* a bridged barbell too *)
    let g = Gen.barbell ~clique:12 ~bridge:2 in
    let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
    let b = Nibble.approximate params g ~src:0 ~b:2 in
    Alcotest.(check bool) "approximate finds" true (b.Nibble.result <> None)

let test_nibble_cut_conductance_bound () =
  (* every non-empty output satisfies Φ(C) ≤ 12φ (C.1 or C.1-star) *)
  let rng = Rng.create 31 in
  for seed = 1 to 8 do
    let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.1) in
    let params = mk_params (1.0 /. 14.0) (Graph.num_edges g) in
    let src = seed mod 40 in
    let outcome = Nibble.approximate params g ~src ~b:(1 + (seed mod 3)) in
    match outcome.Nibble.result with
    | None -> ()
    | Some cut ->
      Alcotest.(check bool) "≤ 12φ" true (cut.Nibble.conductance <= 12.0 /. 14.0 +. 1e-9);
      (* C.3: volume ceiling *)
      Alcotest.(check bool) "volume ceiling" true
        (12 * cut.Nibble.volume <= 11 * Graph.total_volume g + 12)
  done

let test_nibble_participants_cover_cut () =
  let g = Gen.barbell ~clique:10 ~bridge:0 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let outcome = Nibble.approximate params g ~src:0 ~b:2 in
  (match outcome.Nibble.result with
  | None -> Alcotest.fail "expected cut"
  | Some cut ->
    let members = Hashtbl.create 32 in
    Array.iter (fun v -> Hashtbl.replace members v ()) outcome.Nibble.participants;
    Array.iter
      (fun v -> Alcotest.(check bool) "cut ⊆ participants" true (Hashtbl.mem members v))
      cut.Nibble.vertices);
  Alcotest.(check bool) "rounds positive" true (outcome.Nibble.rounds > 0);
  Alcotest.(check bool) "steps ≤ t0" true (outcome.Nibble.steps_executed <= params.Params.t0)

let test_participating_edges_incident () =
  let g = Gen.cycle 10 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let outcome = Nibble.approximate params g ~src:0 ~b:1 in
  let edges = Reference.participating_edges g outcome in
  let members = Hashtbl.create 32 in
  Array.iter (fun v -> Hashtbl.replace members v ()) outcome.Nibble.participants;
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "incident" true (Hashtbl.mem members u || Hashtbl.mem members v);
      Alcotest.(check bool) "normalized" true (u <= v))
    edges;
  (* no duplicates *)
  let sorted = List.sort compare edges in
  Alcotest.(check int) "deduplicated" (List.length sorted)
    (List.length (List.sort_uniq compare sorted))

(* The tuple-keyed P-star and overlap code that CSR edge ids replaced,
   kept as a test-only reference. *)
module Tuple_reference = struct
  let participating_edges g (outcome : Nibble.outcome) =
    let mask = Array.make (Graph.num_vertices g) false in
    Array.iter (fun v -> mask.(v) <- true) outcome.Nibble.participants;
    let acc = ref [] in
    Array.iter
      (fun v ->
        Graph.iter_neighbors g v (fun u ->
            if u > v || not mask.(u) then acc := (min u v, max u v) :: !acc))
      outcome.Nibble.participants;
    let dedup = Hashtbl.create 16 in
    List.filter
      (fun e ->
        if Hashtbl.mem dedup e then false
        else begin
          Hashtbl.replace dedup e ();
          true
        end)
      !acc

  let max_overlap g outcomes =
    let overlap = Hashtbl.create 16 in
    let best = ref 0 in
    List.iter
      (fun outcome ->
        List.iter
          (fun e ->
            let c = 1 + (try Hashtbl.find overlap e with Not_found -> 0) in
            Hashtbl.replace overlap e c;
            best := max !best c)
          (participating_edges g outcome))
      outcomes;
    !best

  (* prefix-union selection over a member Hashtbl *)
  let union_cut g outcomes =
    let threshold = 23 * Graph.total_volume g / 24 in
    let members = Hashtbl.create 16 in
    let vol = ref 0 in
    let best = ref [] in
    (try
       List.iter
         (fun (o : Nibble.outcome) ->
           (match o.Nibble.result with
           | None -> ()
           | Some cut ->
             Array.iter
               (fun v ->
                 if not (Hashtbl.mem members v) then begin
                   Hashtbl.replace members v ();
                   vol := !vol + Graph.degree g v
                 end)
               cut.Nibble.vertices);
           if !vol <= threshold then
             best := Reference.sorted_keys members
           else raise Exit)
         outcomes
     with Exit -> ());
    Array.of_list !best
end

(* a multigraph on 1..40 vertices: random edges, a sixth of them
   doubled into parallel pairs, some self-loops *)
let random_multigraph rng =
  let n = 1 + Rng.int rng 40 in
  let edges =
    List.init (Rng.int rng (4 * n)) (fun _ ->
        let u = Rng.int rng n in
        match Rng.int rng 8 with 0 -> (u, u) | _ -> (u, Rng.int rng n))
  in
  Graph.of_edges ~n (edges @ List.filteri (fun i _ -> i mod 6 = 0) edges)

(* [Params.next_j]'s forward scan against a binary search per index:
   the same j-sequence over the prefix volumes of real sweeps of
   truncated walks on multigraphs (sparse supports), and over made-up
   non-decreasing volumes with zero-volume prefixes and runs of ties *)
let prop_j_sequence_matches_search =
  QCheck.Test.make ~name:"j-sequence = binary-search reference" ~count:300
    QCheck.(pair (int_bound 1_000_000) (Reference.int_range 1 64))
    (fun (seed, inv_phi) ->
      let rng = Rng.create seed in
      let params = mk_params (1.0 /. float_of_int (12 + inv_phi)) 1000 in
      let volumes, length =
        if seed mod 2 = 0 then begin
          let g = random_multigraph rng in
          let n = Graph.num_vertices g in
          let walk =
            Dex_spectral.Walk.truncated_walk g ~src:(Rng.int rng n)
              ~eps:(Rng.float rng 0.02) ~steps:(1 + Rng.int rng 6)
          in
          let sweep = Dex_spectral.Sweep.scan g walk.(Array.length walk - 1) in
          (sweep.volume, sweep.length)
        end
        else begin
          (* a prefix adds 0 (a tie, or a zero volume at the start)
             with probability 1/2, else up to 80 *)
          let length = Rng.int rng 80 in
          let vol = ref 0 in
          ( Array.init length (fun i ->
                if i > 0 then vol := !vol + (Rng.int rng 2 * (1 + Rng.int rng 80));
                !vol),
            length )
        end
      in
      let rec by_scan j acc =
        if j > length then List.rev acc
        else by_scan (Params.next_j params volumes ~length j) (j :: acc)
      in
      (if length = 0 then [] else by_scan 1 [])
      = Reference.j_sequence_by_search params volumes ~length)

let prop_participating_edges_match_reference =
  QCheck.Test.make ~name:"P-star = tuple reference" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_multigraph rng in
      let n = Graph.num_vertices g in
      let participants =
        Array.of_list (List.filter (fun _ -> Rng.bool rng) (List.init n Fun.id))
      in
      let outcome =
        { Nibble.result = None; src = 0; b = 1; steps_executed = 0;
          candidates_tested = 0; rounds = 0; participants }
      in
      let visited = ref [] and ranked = ref true in
      Reference.iter_participating_edges g outcome (fun u v i ->
          visited := (u, v) :: !visited;
          (* the rank comes only with an edge visited from u *)
          ranked :=
            !ranked
            && (if Array.mem u participants then i = Graph.neighbor_rank g u v else i = -1));
      let edges = Reference.participating_edges g outcome in
      let reference = Tuple_reference.participating_edges g outcome in
      edges = reference
      && !visited = edges
      && !ranked
      && List.sort_uniq compare edges = List.sort compare reference
      && List.for_all (fun (u, v) -> u < v) edges)

let prop_overlap_matches_reference =
  QCheck.Test.make ~name:"overlap & union = reference" ~count:60
    QCheck.(pair (int_bound 1_000_000) (Reference.int_range 1 40))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      let g = random_multigraph rng in
      let params = mk_params (1.0 /. 16.0) (max 1 (Graph.num_edges g)) in
      let r = Pn.run ~k params (View.make g) rng in
      r.Pn.max_overlap = Tuple_reference.max_overlap g r.Pn.nibbles
      && (r.Pn.aborted || r.Pn.cut = Tuple_reference.union_cut g r.Pn.nibbles))

(* ParallelNibble's congestion from copy masks against a counter per
   P-star edge: on the outcomes of runs of k = 1..200 copies, so masks
   of one to four words per vertex, and on hand-built outcomes whose
   participants are random subsets, empty and full ones among them,
   for k at a word boundary (62 to 64, 124 to 126, 186 to 189) or 200.
   The graphs are multigraphs with parallel edges, self-loops and
   isolated vertices. The hand-built outcomes run in masks sized for
   one copy (past k = 62 the call uses its own) and in masks sized for
   200 that a run's outcomes used first, whose bits must not leak. *)
let prop_copy_masks_match_counters =
  QCheck.Test.make ~name:"copy-mask congestion = P-star counters" ~count:120
    QCheck.(pair (int_bound 1_000_000) (int_bound 199))
    (fun (seed, k) ->
      (* k = 1 + the draw, so that shrinking stays in 1..200 *)
      let k = k + 1 in
      let rng = Rng.create seed in
      let g = random_multigraph rng in
      let n = Graph.num_vertices g in
      let params = mk_params (1.0 /. 16.0) (max 1 (Graph.num_edges g)) in
      let r = Pn.run ~k params (View.make g) rng in
      let counted outcomes = Array.fold_left Int.max 0 (Reference.overlap_counters g outcomes) in
      let kb = [| 62; 63; 64; 124; 125; 126; 186; 187; 188; 189; 200 |].(seed mod 11) in
      let hand_built =
        List.init kb (fun _ ->
            let density = Rng.int rng 5 in
            let participants =
              Array.of_list (List.filter (fun _ -> Rng.int rng 4 < density) (List.init n Fun.id))
            in
            { Nibble.result = None; src = 0; b = 1; steps_executed = 0; candidates_tested = 0;
              rounds = 0; participants })
      in
      let expected = counted hand_built in
      let short = Nibble.masks ~copies:1 g and long = Nibble.masks ~copies:200 g in
      r.Pn.max_overlap = counted r.Pn.nibbles
      && Nibble.max_overlap short g hand_built = expected
      && Nibble.max_overlap long g r.Pn.nibbles = r.Pn.max_overlap
      && Nibble.max_overlap long g hand_built = expected)

let test_nibble_on_isolated_vertex () =
  let g = Graph.of_edges ~n:3 [ (1, 2) ] in
  let params = mk_params (1.0 /. 16.0) 4 in
  let outcome = Nibble.approximate params g ~src:0 ~b:1 in
  Alcotest.(check bool) "no cut from isolated src" true (outcome.Nibble.result = None)

(* Lemma 3: Vol(Z_{u,phi,b}) <= (t0+1)/(2 eps_b), where Z is the set
   of start vertices whose walk puts rho_t(u) >= 2 eps_b mass on u at
   some t <= t0. Verified exhaustively on a small graph with a custom
   (shortened) walk length — eps_b rescales with t0 through the record
   field, so the inequality is tested in its exact form. *)
let test_lemma3_z_volume_bound () =
  let rng = Rng.create 83 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:18 ~p:0.25) in
  let base = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let params = { base with Params.t0 = 12 } in
  let b = 2 in
  let eps = Params.eps_b params b in
  let t0 = params.Params.t0 in
  (* all walks from all starts, exact (un-truncated) *)
  let walks =
    Array.init 18 (fun v ->
        let p = ref (Array.init 18 (fun u -> if u = v then 1.0 else 0.0)) in
        Array.init (t0 + 1) (fun t ->
            if t = 0 then !p
            else begin
              p := Reference.step_dense g !p;
              !p
            end))
  in
  for u = 0 to 17 do
    let z_volume = ref 0 in
    for v = 0 to 17 do
      let member = ref false in
      for t = 0 to t0 do
        let rho = walks.(v).(t).(u) /. float_of_int (max 1 (Graph.degree g u)) in
        if rho >= 2.0 *. eps then member := true
      done;
      if !member then z_volume := !z_volume + Graph.degree g v
    done;
    let bound = float_of_int (t0 + 1) /. (2.0 *. eps) in
    Alcotest.(check bool)
      (Printf.sprintf "Vol(Z_u) for u=%d: %d <= %.1f" u !z_volume bound)
      true
      (float_of_int !z_volume <= bound)
  done

let test_c3_volume_floor () =
  (* any returned cut respects the C.3 floor Vol >= (5/7) 2^{b-1} *)
  let g = Gen.barbell ~clique:16 ~bridge:0 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  List.iter
    (fun b ->
      let outcome = Nibble.approximate params g ~src:0 ~b in
      match outcome.Nibble.result with
      | None -> ()
      | Some cut ->
        Alcotest.(check bool)
          (Printf.sprintf "b=%d floor" b)
          true
          (float_of_int cut.Nibble.volume >= 5.0 /. 7.0 *. (2.0 ** float_of_int (b - 1))))
    [ 1; 3; 5; 7 ]

(* ---------- parallel nibble ---------- *)

let test_random_nibble_runs () =
  let rng = Rng.create 17 in
  let g = Gen.dumbbell rng ~n1:30 ~n2:30 ~d:4 ~bridges:1 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let outcome = Pn.random_nibble (Nibble.workspace g) params (View.make g) rng in
  Alcotest.(check bool) "b in range" true (outcome.Nibble.b >= 1 && outcome.Nibble.b <= params.Params.ell);
  Alcotest.(check bool) "src in range" true
    (outcome.Nibble.src >= 0 && outcome.Nibble.src < Graph.num_vertices g)

let test_parallel_nibble_union_volume () =
  let rng = Rng.create 19 in
  let g = Gen.dumbbell rng ~n1:30 ~n2:30 ~d:4 ~bridges:1 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Pn.run ~k:4 params (View.make g) rng in
  Alcotest.(check int) "copies" 4 r.Pn.copies;
  if not r.Pn.aborted then begin
    let vol = Graph.volume g r.Pn.cut in
    Alcotest.(check bool) "≤ 23/24 Vol" true (24 * vol <= 23 * Graph.total_volume g)
  end;
  Alcotest.(check bool) "rounds positive" true (r.Pn.rounds > 0);
  Alcotest.(check int) "all nibbles recorded" 4 (List.length r.Pn.nibbles)

let test_parallel_nibble_overlap_detection () =
  (* many copies on a tiny graph force heavy P-star overlap *)
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  let rng = Rng.create 23 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Pn.run ~k:200 params (View.make g) rng in
  Alcotest.(check bool) "overlap observed" true (r.Pn.max_overlap > 10);
  (* w = 10·ceil(ln Vol) ≈ 40: 200 copies on 32 edges must abort *)
  Alcotest.(check bool) "aborted" true r.Pn.aborted;
  Alcotest.(check (array int)) "empty cut on abort" [||] r.Pn.cut

let test_parallel_nibble_rejects_k () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  List.iter
    (fun k ->
      Alcotest.check_raises (Printf.sprintf "k = %d" k)
        (Invalid_argument "Parallel_nibble.run: k < 1") (fun () ->
          ignore (Pn.run ~k params (View.make g) (Rng.create 1) : Pn.t)))
    [ 0; -1 ]

(* After a warm-up call, ParallelNibble on a Partition-sized workspace
   allocates its outputs and a little bookkeeping on the minor heap and
   nothing on the major heap: the lanes with their sweeps, the copy
   masks and the member mask are the workspace's. The graph is
   sparsecut-expander's kind, a random 8-regular graph on 200
   vertices. The minor bound is the 2,349 words measured plus a 10%
   margin. *)
let test_parallel_nibble_warm_allocation () =
  let g = Gen.random_regular (Rng.create 12) ~n:200 ~d:8 in
  let params = mk_params (1.0 /. 20.0) (Graph.num_edges g) in
  let copies = Params.parallel_copies params ~volume:(Graph.total_volume g) in
  let workspace = Pn.workspace ~copies g and view = View.make g in
  let rng = Rng.create 3 in
  ignore (Pn.run ~workspace params view rng : Pn.t);
  Gc.minor ();
  let minor = Gc.minor_words () in
  let _, _, major = Gc.counters () in
  let r = Pn.run ~workspace params view rng in
  let _, _, major' = Gc.counters () in
  let minor = Gc.minor_words () -. minor in
  Alcotest.(check (float 0.0)) "major words" 0.0 (major' -. major);
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" minor) true (minor <= 2600.0);
  Alcotest.(check bool) "the copies walked" true
    (List.for_all (fun (o : Nibble.outcome) -> o.Nibble.steps_executed > 16) r.Pn.nibbles)

(* The same on triangles-gnp's kind of graph, G(128, 1/2): the lanes'
   sweeps count prefixes by the prepared graph's bit rows, which the
   warm call reads and does not rebuild. *)
let test_parallel_nibble_warm_allocation_dense () =
  let rng = Rng.create 5 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:128 ~p:0.5) in
  let params = mk_params (1.0 /. 20.0) (Graph.num_edges g) in
  let copies = Params.parallel_copies params ~volume:(Graph.total_volume g) in
  let workspace = Pn.workspace ~copies g and view = View.make g in
  Alcotest.(check bool) "bit rows" true
    (Option.is_some (Lazy.force view.View.rows));
  ignore (Pn.run ~workspace params view rng : Pn.t);
  Gc.minor ();
  let minor = Gc.minor_words () in
  let _, _, major = Gc.counters () in
  let r = Pn.run ~workspace params view rng in
  let _, _, major' = Gc.counters () in
  let minor = Gc.minor_words () -. minor in
  Alcotest.(check (float 0.0)) (Printf.sprintf "major words (%.0f minor)" minor) 0.0
    (major' -. major);
  Alcotest.(check bool) "the copies walked" true
    (List.for_all (fun (o : Nibble.outcome) -> o.Nibble.steps_executed > 1) r.Pn.nibbles)

(* ---------- partition (Theorem 3) ---------- *)

(* Partition on sparsecut-expander's input (random 8-regular, n = 200,
   seed 1, connectivized; perfbench's algorithm seed) finds no cut and
   runs its whole budget. It allocates nothing on the major heap: its
   largest arrays, the views and ParallelNibble's copy masks, hold n
   words each, below the minor heap's limit for one block. Its minor
   words are capped at 26,317, measured in this suite's build profile
   once the first G{W}, W = V, became the graph itself instead of a
   copy (28,914 with the copy). *)
let test_partition_allocation_pin () =
  let rng = Rng.create 1 in
  let g = Gen.connectivize rng (Gen.random_regular rng ~n:200 ~d:8) in
  let params = mk_params 0.05 (Graph.num_edges g) in
  Gc.minor ();
  let _, _, major = Gc.counters () in
  let before = Gc.minor_words () in
  let r = Partition.run params g (Rng.create 20190701) in
  let words = Gc.minor_words () -. before in
  let _, _, major' = Gc.counters () in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" words) true (words <= 26_317.0);
  Alcotest.(check (float 0.0)) "major words" 0.0 (major' -. major);
  Alcotest.(check int) "no cut: the whole budget" 0 (Array.length r.Partition.cut)

let test_partition_balanced_cut_dumbbell () =
  let rng = Rng.create 29 in
  let g = Gen.dumbbell rng ~n1:60 ~n2:60 ~d:6 ~bridges:2 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run params g rng in
  Alcotest.(check bool) "found" true (Array.length r.Partition.cut > 0);
  (* Theorem 3: bal(C) ≥ min(b/2, 1/48); planted b ≈ 1/2 *)
  Alcotest.(check bool) "balance ≥ 1/48" true (r.Partition.balance >= 1.0 /. 48.0);
  (* conductance within h(φ) = φ^{1/3}·log^{5/3} n (generous) *)
  let bound = Params.h ~n:(Graph.num_vertices g) (1.0 /. 16.0) in
  Alcotest.(check bool) "conductance bounded" true (r.Partition.conductance <= bound)

let test_partition_unbalanced_planted_cut () =
  let rng = Rng.create 31 in
  (* balance b ≈ 60/(60+300) = 1/6; guarantee is ≥ min(b/2, 1/48) = 1/48 *)
  let g = Gen.dumbbell rng ~n1:60 ~n2:300 ~d:6 ~bridges:2 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run params g rng in
  Alcotest.(check bool) "found" true (Array.length r.Partition.cut > 0);
  Alcotest.(check bool) "balance ≥ 1/48" true (r.Partition.balance >= 1.0 /. 48.0)

let test_partition_volume_ceiling () =
  let rng = Rng.create 37 in
  let g = Gen.cliques_chain ~cliques:6 ~size:10 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run params g rng in
  let vol = Graph.volume g r.Partition.cut in
  Alcotest.(check bool) "Vol(C) ≤ 47/48 Vol(V)" true (48 * vol <= 47 * Graph.total_volume g)

let test_partition_expander_no_false_positive () =
  let rng = Rng.create 41 in
  let g = Gen.random_regular rng ~n:128 ~d:8 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run params g rng in
  (* Theorem 3 case 2: ∅ or a cut within the h bound *)
  if Array.length r.Partition.cut > 0 then begin
    let bound = Params.h ~n:128 (1.0 /. 16.0) in
    Alcotest.(check bool) "within h bound" true (r.Partition.conductance <= bound)
  end

let test_partition_empty_graph () =
  let g = Graph.of_edges ~n:5 [] in
  let params = mk_params (1.0 /. 16.0) 1 in
  let r = Partition.run params g (Rng.create 1) in
  Alcotest.(check bool) "certified" true (Partition.certified_no_sparse_cut r);
  Alcotest.(check int) "zero rounds" 0 r.Partition.rounds

let test_partition_respects_most_balanced_reference () =
  (* on a small graph compare against the exact most balanced cut *)
  let g = Gen.barbell ~clique:8 ~bridge:0 in
  let phi = 1.0 /. 16.0 in
  let params = mk_params phi (Graph.num_edges g) in
  let r = Partition.run params g (Rng.create 43) in
  match Reference.most_balanced_sparse_cut g ~phi with
  | None -> Alcotest.fail "barbell must have a sparse cut"
  | Some (b, _) ->
    Alcotest.(check bool) "Theorem 3 balance" true
      (r.Partition.balance >= Float.min (b /. 2.0) (1.0 /. 48.0) -. 1e-9)

(* ---------- bit-exact goldens on the cut-found path ---------- *)

(* Outputs pinned at fixed seeds on planted-cut graphs, recorded before
   Nibble moved onto the double-buffered walker and the reusable sweep
   workspace. The perfbench workloads find no cut, so these are what
   pins Nibble's selection and the copy of a prefix out of a sweep that
   the next rescan overwrites. Conductances are printed with %h, so a
   one-ulp change fails. *)

(* a sorted vertex set as ascending runs "a-b" or "a" *)
let runs vs =
  let b = Buffer.create 64 in
  let n = Array.length vs in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && vs.(!j + 1) = vs.(!j) + 1 do
      incr j
    done;
    if Buffer.length b > 0 then Buffer.add_char b ',';
    if !j = !i then Buffer.add_string b (string_of_int vs.(!i))
    else Buffer.add_string b (Printf.sprintf "%d-%d" vs.(!i) vs.(!j));
    i := !j + 1
  done;
  Buffer.contents b

let partition_golden (r : Partition.t) =
  Printf.sprintf "cut=[%s] phi=%h iterations=%d rounds=%d aborted=%d" (runs r.Partition.cut)
    r.Partition.conductance r.Partition.iterations r.Partition.rounds
    r.Partition.aborted_copies

let nibble_golden (o : Nibble.outcome) =
  let cut =
    match o.Nibble.result with
    | None -> "none"
    | Some c ->
      Printf.sprintf "[%s] vol=%d edges=%d phi=%h t=%d j=%d" (runs c.Nibble.vertices)
        c.Nibble.volume c.Nibble.cut_edges c.Nibble.conductance c.Nibble.found_t c.Nibble.found_j
  in
  Printf.sprintf "cut=%s steps=%d candidates=%d rounds=%d participants=%d" cut
    o.Nibble.steps_executed o.Nibble.candidates_tested o.Nibble.rounds
    (Array.length o.Nibble.participants)

let golden_barbell () = Gen.barbell ~clique:16 ~bridge:0

(* two blocks of 100 *)
let golden_sbm () =
  Gen.planted_partition (Rng.create 5) ~parts:2 ~size:100 ~p_in:0.1 ~p_out:0.004

(* a 40-vertex side against a 160-vertex one *)
let golden_unbalanced () = Gen.dumbbell (Rng.create 7) ~n1:40 ~n2:160 ~d:6 ~bridges:2

let golden_sbm4 () =
  Gen.planted_partition (Rng.create 5) ~parts:4 ~size:50 ~p_in:0.2 ~p_out:0.01

(* four 6-vertex warts on an expander: Partition peels two of them over
   three iterations, one of them idle *)
let golden_warts () =
  let rng = Rng.create 9 in
  Gen.attach_warts rng (Gen.random_regular rng ~n:400 ~d:6) ~warts:4 ~size:6

let test_partition_goldens () =
  List.iter
    (fun (name, graph, seed, expected) ->
      let g = graph () in
      let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
      Alcotest.(check string) name expected
        (partition_golden (Partition.run params g (Rng.create seed))))
    [ ( "barbell", golden_barbell, 101,
        "cut=[16-31] phi=0x1.0fef010fef011p-8 iterations=1 rounds=485 aborted=0" );
      ( "2-block sbm", golden_sbm, 103,
        "cut=[100-110,112-166,168-199] phi=0x1.8efd14f51f91ap-5 iterations=1 rounds=67519 \
         aborted=0" );
      ( "unbalanced dumbbell", golden_unbalanced, 107,
        "cut=[0-26,28-39] phi=0x1.05d84176105d8p-5 iterations=1 rounds=86055 aborted=0" );
      ( "warts", golden_warts, 2,
        "cut=[400-405,412-417] phi=0x1.0842108421084p-5 iterations=3 rounds=844051795 \
         aborted=0" ) ]

(* Each ApproximateNibble case runs twice: in a fresh workspace, and in
   one workspace that every case shares, sized to a larger graph. Both
   must give the golden, and no later run may change an earlier
   outcome: no stale mask bit, buffer or length leaks between runs. *)
let test_nibble_goldens () =
  let shared = Nibble.workspace (golden_warts ()) in
  let results =
    List.map
      (fun (name, graph, src, b, expected) ->
        let g = graph () in
        let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
        let runs =
          [ Nibble.approximate params g ~src ~b;
            Nibble.approximate ~workspace:shared params g ~src ~b ]
        in
        List.iter (fun o -> Alcotest.(check string) name expected (nibble_golden o)) runs;
        (name, expected, runs))
      [ ( "barbell approximate", golden_barbell, 0, 3,
          "cut=[0-15] vol=241 edges=1 phi=0x1.0fef010fef011p-8 t=1 j=16 steps=1 candidates=16 \
           rounds=241 participants=16" );
        ( "2-block sbm approximate", golden_sbm, 3, 4,
          "cut=[0-99,125,140,168,186] vol=1096 edges=56 phi=0x1.e5f75270d0457p-5 t=5 j=104 \
           steps=5 candidates=255 rounds=17651 participants=200" );
        ( "unbalanced approximate", golden_unbalanced, 5, 3,
          "cut=[0-39] vol=226 edges=2 phi=0x1.21fb78121fb78p-7 t=3 j=40 steps=3 candidates=72 \
           rounds=2721 participants=42" );
        (* found at t = 11, then the walk runs on for its patience and
           rescans over the buffer the cut was copied from *)
        ( "4-block sbm approximate", golden_sbm4, 21, 1,
          "cut=[0-49] vol=597 edges=63 phi=0x1.b03dbfadab187p-4 t=11 j=50 steps=197 \
           candidates=1652 rounds=1597190 participants=200" );
        ( "barbell approximate after the others", golden_barbell, 0, 3,
          "cut=[0-15] vol=241 edges=1 phi=0x1.0fef010fef011p-8 t=1 j=16 steps=1 candidates=16 \
           rounds=241 participants=16" ) ]
  in
  List.iter
    (fun (name, expected, runs) ->
      List.iter
        (fun o -> Alcotest.(check string) (name ^ ", kept") expected (nibble_golden o))
        runs)
    results

(* ---------- run_verified (Las Vegas wrapper) ---------- *)

let test_run_verified_accepts_dumbbell () =
  let rng = Rng.create 53 in
  let g = Gen.dumbbell rng ~n1:60 ~n2:60 ~d:6 ~bridges:2 in
  let phi = 1.0 /. 16.0 in
  let params = mk_params phi (Graph.num_edges g) in
  let bound = Params.h ~n:(Graph.num_vertices g) phi in
  match Partition.run_verified ~bound params g rng with
  | Error _ -> Alcotest.fail "dumbbell run should certify within 3 attempts"
  | Ok o ->
    let r = o.Rounds.value in
    Alcotest.(check bool) "acceptable" true
      (Partition.certified_no_sparse_cut r || r.Partition.conductance <= bound);
    Alcotest.(check bool) "attempts in budget" true
      (o.Rounds.attempts >= 1 && o.Rounds.attempts <= 3);
    Alcotest.(check bool) "rounds summed" true
      (o.Rounds.rounds_total >= o.Rounds.value.Partition.rounds)

let test_run_verified_reports_best_on_failure () =
  let rng = Rng.create 59 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:6 ~bridges:2 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  (* an absurd bound no non-empty cut can meet: every attempt fails,
     but the wrapper must return its best attempt with full context *)
  match Partition.run_verified ~bound:1e-9 params g rng with
  | Ok o when Partition.certified_no_sparse_cut o.Rounds.value ->
    (* certified-empty is acceptable by definition; nothing to check *)
    ()
  | Ok _ -> Alcotest.fail "a non-empty cut cannot meet a 1e-9 bound"
  | Error e ->
    Alcotest.(check int) "used full budget" 3 e.Rounds.attempts;
    Alcotest.(check bool) "best attempt carried" true
      (Array.length e.Rounds.value.Partition.cut > 0);
    Alcotest.(check bool) "rounds accumulated" true
      (e.Rounds.rounds_total >= e.Rounds.value.Partition.rounds)

(* ---------- ACL personalized PageRank ---------- *)

module Ppr = Dex_sparsecut.Pagerank_cut

let test_ppr_invariants () =
  let rng = Rng.create 91 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.12) in
  let m = Graph.num_edges g in
  let eps = 1.0 /. (20.0 *. float_of_int m) in
  let p, r, pushes = Reference.approximate_pagerank g ~src:5 in
  Alcotest.(check bool) "pushed" true (pushes > 0);
  (* termination invariant: every residual is below eps·deg *)
  Hashtbl.iter
    (fun v rv ->
      Alcotest.(check bool)
        (Printf.sprintf "residual at %d" v)
        true
        (rv < eps *. float_of_int (Graph.degree g v) +. 1e-12))
    r;
  (* mass conservation: p + r sums to 1 *)
  let total =
    Hashtbl.fold (fun _ x acc -> acc +. x) p 0.0
    +. Hashtbl.fold (fun _ x acc -> acc +. x) r 0.0
  in
  Alcotest.(check (float 1e-9)) "mass" 1.0 total;
  (* the oracle is the loop run sweeps *)
  match Ppr.run g ~src:5 with
  | None -> Alcotest.fail "expected a sweep"
  | Some c -> Alcotest.(check int) "run's push count" pushes c.Ppr.pushes

let test_ppr_finds_barbell_cut () =
  let g = Gen.barbell ~clique:12 ~bridge:0 in
  match Ppr.run g ~src:0 with
  | None -> Alcotest.fail "expected a cut"
  | Some c ->
    Alcotest.(check bool) "sparse" true (c.Ppr.conductance < 0.05);
    Alcotest.(check int) "the seed clique" 12 (Array.length c.Ppr.cut);
    Alcotest.(check bool) "support local" true (c.Ppr.support <= 24)

(* ---------- executed walk protocol ---------- *)

module Wp = Walk_protocol
module Walk = Dex_spectral.Walk
module Network = Dex_congest.Network

let test_walk_protocol_matches_central () =
  let rng = Rng.create 71 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.15) in
  let eps = 1e-5 and steps = 8 in
  let net = Network.create g (Rounds.create ()) in
  let pairs, rounds = Wp.run net ~src:3 ~eps ~steps in
  Alcotest.(check int) "rounds = steps + 1" (steps + 1) rounds;
  let protocol = Wp.distribution_table pairs in
  let central = (Walk.truncated_walk g ~src:3 ~eps ~steps).(steps) in
  Alcotest.(check int) "same support" (Walk.size central) (Walk.size protocol);
  Reference.Walk_view.iter
    (fun v x ->
      let y = Reference.Walk_view.get protocol v in
      Alcotest.(check (float 1e-12)) (Printf.sprintf "mass at %d" v) x y;
      (* each vertex sums its terms in the central walk's order *)
      Alcotest.(check int64) (Printf.sprintf "bits at %d" v) (Int64.bits_of_float x)
        (Int64.bits_of_float y))
    central

let test_walk_protocol_with_self_loops () =
  (* the saturated-subgraph case: self-loops keep their share *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 0) ] in
  let net = Network.create g (Rounds.create ()) in
  let pairs, _ = Wp.run net ~src:0 ~eps:0.0 ~steps:1 in
  let tbl = Wp.distribution_table pairs in
  (* deg 0 = 2 (loop + edge): stays 1/2 + loop 1/4 = 3/4; sends 1/4 *)
  Alcotest.(check (float 1e-12)) "stay" 0.75 (Reference.Walk_view.get tbl 0);
  Alcotest.(check (float 1e-12)) "move" 0.25 (Reference.Walk_view.get tbl 1)

let test_walk_protocol_charges_ledger () =
  let g = Gen.cycle 8 in
  let ledger = Rounds.create () in
  let net = Network.create g ledger in
  let _ = Wp.run net ~src:0 ~eps:1e-6 ~steps:5 in
  Alcotest.(check int) "ledger charged" 6 (Rounds.total ledger)

(* ---------- the sequential Spielman–Teng Partition ---------- *)

let test_st_reference_dumbbell () =
  let rng = Rng.create 59 in
  let g = Gen.dumbbell rng ~n1:50 ~n2:50 ~d:6 ~bridges:1 in
  let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
  let r = Partition.run_sequential params g (Rng.create 61) in
  Alcotest.(check bool) "found a cut" true (Array.length r.Partition.cut > 0);
  Alcotest.(check bool) "volume ceiling" true
    (48 * Graph.volume g r.Partition.cut <= 47 * Graph.total_volume g);
  Alcotest.(check bool) "rounds accumulate" true (r.Partition.rounds > 0);
  Alcotest.(check bool) "nibbles counted" true (r.Partition.iterations >= 1)

let test_st_reference_empty () =
  let params = mk_params (1.0 /. 16.0) 1 in
  let r = Partition.run_sequential params (Graph.of_edges ~n:4 []) (Rng.create 1) in
  Alcotest.(check int) "no cut" 0 (Array.length r.Partition.cut);
  Alcotest.(check int) "no rounds" 0 r.Partition.rounds

(* the Theory preset never stops on misses (idle_limit = max_int), so on
   a clique, where no nibble finds a cut, only the 64-nibble cap ends
   the loop *)
let test_st_reference_max_nibbles () =
  let g = Gen.complete 6 in
  let params = mk_params ~preset:Params.Theory (1.0 /. 12.0) (Graph.num_edges g) in
  let r = Partition.run_sequential params g (Rng.create 67) in
  Alcotest.(check int) "no cut" 0 (Array.length r.Partition.cut);
  Alcotest.(check int) "capped" 64 r.Partition.iterations

(* What the sequential loop returned while it was a module of its own,
   which rebuilt G{W}, its view and a Nibble workspace for every
   nibble: the cut's digest and size, Φ and bal with %h, the summed
   rounds and the nibble count. Eleven of the runs peel the large side
   of a nibble's cut; the warts and the 1:15 dumbbell peel over up to
   ten nibbles, some of them misses; the 128-vertex regular graph has
   no cut and stops on misses; K₆ under Theory stops on the 64-nibble
   cap. *)
let sequential_golden (r : Partition.t) =
  let cut = String.concat "," (Array.to_list (Array.map string_of_int r.Partition.cut)) in
  Printf.sprintf "cut=%s size=%d phi=%h balance=%h rounds=%d nibbles=%d"
    (String.sub (Digest.to_hex (Digest.string cut)) 0 12)
    (Array.length r.Partition.cut) r.Partition.conductance r.Partition.balance
    r.Partition.rounds r.Partition.iterations

let test_sequential_goldens () =
  let dumbbell seed n1 n2 bridges () = Gen.dumbbell (Rng.create seed) ~n1 ~n2 ~d:6 ~bridges in
  let warts seed n warts size () =
    let rng = Rng.create seed in
    Gen.attach_warts rng (Gen.random_regular rng ~n ~d:6) ~warts ~size
  in
  List.iter
    (fun (name, graph, seed, expected) ->
      let g = graph () in
      let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
      Alcotest.(check string) (Printf.sprintf "%s, seed %d" name seed) expected
        (sequential_golden (Partition.run_sequential params g (Rng.create seed))))
    [ ( "dumbbell 1:1", dumbbell 59 50 50 1, 61,
        "cut=3a3b1060250d size=49 phi=0x1.5c9882b931057p-6 balance=0x1.fc64f52edf8cap-2 \
         rounds=2977 nibbles=1" );
      ( "dumbbell 1:1", dumbbell 59 50 50 1, 62,
        "cut=4e0f8ee8749a size=50 phi=0x1.d272ca3fc5b1ap-9 balance=0x1.fa976fc64f52fp-2 \
         rounds=5293 nibbles=1" );
      ( "dumbbell 1:1", dumbbell 59 50 50 1, 63,
        "cut=f3dbb74b4b55 size=50 phi=0x1.42fb69850bedap-5 balance=0x1.f6fc64f52edf9p-2 \
         rounds=2936 nibbles=1" );
      ( "dumbbell 1:2", dumbbell 11 40 80 2, 1,
        "cut=577604b31d70 size=40 phi=0x1.e64879921e648p-5 balance=0x1.45f417d05f418p-2 \
         rounds=18622 nibbles=1" );
      ( "dumbbell 1:2", dumbbell 11 40 80 2, 2,
        "cut=d730e185bee0 size=40 phi=0x1.29e4129e4129ep-7 balance=0x1.47711dc47711ep-2 \
         rounds=12823 nibbles=1" );
      ( "dumbbell 1:2", dumbbell 11 40 80 2, 3,
        "cut=d730e185bee0 size=40 phi=0x1.29e4129e4129ep-7 balance=0x1.47711dc47711ep-2 \
         rounds=7348 nibbles=1" );
      ( "dumbbell 1:4", dumbbell 7 40 160 2, 107,
        "cut=abc2e679102b size=39 phi=0x1.05d84176105d8p-5 balance=0x1.7eb07dd0d1b16p-3 \
         rounds=43019 nibbles=1" );
      ( "dumbbell 1:4", dumbbell 7 40 160 2, 108,
        "cut=d730e185bee0 size=40 phi=0x1.21fb78121fb78p-7 balance=0x1.8aebe7892c8f5p-3 \
         rounds=129003 nibbles=1" );
      ( "dumbbell 1:4", dumbbell 7 40 160 2, 109,
        "cut=b6c8a36e1f56 size=38 phi=0x1.7ecdc1cb5d4efp-5 balance=0x1.75f3c49647a52p-3 \
         rounds=9401 nibbles=1" );
      ( "dumbbell 1:8", dumbbell 13 20 160 1, 4,
        "cut=e35bd11683ad size=20 phi=0x1.3e22cbce4a902p-7 balance=0x1.9108c2ad4329ep-4 \
         rounds=330815 nibbles=1" );
      ( "dumbbell 1:8", dumbbell 13 20 160 1, 5,
        "cut=23aedda494e3 size=19 phi=0x1p-4 balance=0x1.75c78b31a4808p-4 rounds=9471 nibbles=1" );
      ( "dumbbell 1:8", dumbbell 13 20 160 1, 6,
        "cut=23aedda494e3 size=19 phi=0x1p-4 balance=0x1.75c78b31a4808p-4 rounds=9573 nibbles=1" );
      ( "dumbbell 1:15", dumbbell 17 16 240 1, 7,
        "cut=21a81b3c5086 size=16 phi=0x1.9ec8e951033d9p-7 balance=0x1.adb9f72923047p-5 \
         rounds=2674708918 nibbles=5" );
      ( "dumbbell 1:15", dumbbell 17 16 240 1, 8,
        "cut=d41d8cd98f00 size=0 phi=infinity balance=0x0p+0 rounds=5339031969 nibbles=8" );
      ( "warts 400", warts 9 400 4 6, 2,
        "cut=f21cd438eb7a size=12 phi=0x1.0842108421084p-5 balance=0x1.95ff9739e97d7p-6 \
         rounds=692149280 nibbles=6" );
      ( "warts 400", warts 9 400 4 6, 3,
        "cut=87a5a04f9142 size=6 phi=0x1.0842108421084p-5 balance=0x1.95ff9739e97d7p-7 \
         rounds=1346337231 nibbles=10" );
      ( "warts 400", warts 9 400 4 6, 4,
        "cut=f8522cd72862 size=6 phi=0x1.0842108421084p-5 balance=0x1.95ff9739e97d7p-7 \
         rounds=1232660079 nibbles=9" );
      ( "warts 200", warts 21 200 2 8, 5,
        "cut=502452a00776 size=18 phi=0x1.a9fbe76c8b439p-4 balance=0x1.89d89d89d89d9p-4 \
         rounds=1646392 nibbles=1" );
      ( "warts 200", warts 21 200 2 8, 6,
        "cut=6541b123f747 size=8 phi=0x1.1f7047dc11f7p-6 balance=0x1.67300c9a633fdp-5 \
         rounds=97 nibbles=1" );
      ( "warts 200", warts 21 200 2 8, 7,
        "cut=8dba586ffe07 size=8 phi=0x1.1f7047dc11f7p-6 balance=0x1.67300c9a633fdp-5 \
         rounds=97 nibbles=1" );
      ( "cliques chain 4x8", (fun () -> Gen.cliques_chain ~cliques:4 ~size:8), 1,
        "cut=eefb6a47fbc8 size=8 phi=0x1.1a7b9611a7b96p-5 balance=0x1.0239e0d5b4502p-2 \
         rounds=97 nibbles=1" );
      ( "cliques chain 4x8", (fun () -> Gen.cliques_chain ~cliques:4 ~size:8), 2,
        "cut=9d622f14cf0e size=8 phi=0x1.1f7047dc11f7p-6 balance=0x1.fb8c3e54975fcp-3 \
         rounds=97 nibbles=1" );
      ( "cliques chain 4x8", (fun () -> Gen.cliques_chain ~cliques:4 ~size:8), 3,
        "cut=eefb6a47fbc8 size=8 phi=0x1.1a7b9611a7b96p-5 balance=0x1.0239e0d5b4502p-2 \
         rounds=97 nibbles=1" );
      ( "cliques chain 6x6", (fun () -> Gen.cliques_chain ~cliques:6 ~size:6), 4,
        "cut=a0d553c102ce size=6 phi=0x1p-4 balance=0x1.58ed2308158edp-3 rounds=85 nibbles=1" );
      ( "cliques chain 6x6", (fun () -> Gen.cliques_chain ~cliques:6 ~size:6), 5,
        "cut=4197541ce206 size=6 phi=0x1.0842108421084p-5 balance=0x1.4e25b9efd4e26p-3 \
         rounds=73 nibbles=1" );
      ( "regular 128", (fun () -> Gen.random_regular (Rng.create 23) ~n:128 ~d:8), 1,
        "cut=d41d8cd98f00 size=0 phi=infinity balance=0x0p+0 rounds=6215560 nibbles=8" );
      ( "regular 128", (fun () -> Gen.random_regular (Rng.create 23) ~n:128 ~d:8), 2,
        "cut=d41d8cd98f00 size=0 phi=infinity balance=0x0p+0 rounds=6391137 nibbles=8" ) ];
  let g = Gen.complete 6 in
  let params = mk_params ~preset:Params.Theory (1.0 /. 12.0) (Graph.num_edges g) in
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check string) (Printf.sprintf "K6 Theory, seed %d" seed) expected
        (sequential_golden (Partition.run_sequential params g (Rng.create seed))))
    [ ( 67, "cut=d41d8cd98f00 size=0 phi=infinity balance=0x0p+0 rounds=1773056 nibbles=64" );
      ( 68, "cut=d41d8cd98f00 size=0 phi=infinity balance=0x0p+0 rounds=1773056 nibbles=64" ) ]

(* ---------- lockstep copies vs the sequential loop ---------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* every field, conductances bit for bit *)
let same_outcome (a : Nibble.outcome) (b : Nibble.outcome) =
  let same_cut (x : Nibble.cut) (y : Nibble.cut) =
    x.vertices = y.vertices && x.volume = y.volume && x.cut_edges = y.cut_edges
    && same_float x.conductance y.conductance
    && x.found_t = y.found_t && x.found_j = y.found_j
  in
  (match (a.result, b.result) with
  | None, None -> true
  | Some x, Some y -> same_cut x y
  | _ -> false)
  && a.src = b.src && a.b = b.b && a.steps_executed = b.steps_executed
  && a.candidates_tested = b.candidates_tested && a.rounds = b.rounds
  && a.participants = b.participants

let same_run (r : Pn.t) (s : Pn.t) =
  r.cut = s.cut && r.rounds = s.rounds && r.copies = s.copies && r.aborted = s.aborted
  && r.max_overlap = s.max_overlap
  && List.length r.nibbles = List.length s.nibbles
  && List.for_all2 same_outcome r.nibbles s.nibbles

(* [Pn.run] three ways against the sequential loop: in a workspace
   with [lanes] lanes, again in the same warmed workspace, and in a
   fresh one *)
let lockstep_matches ~k ~lanes params g seed =
  let expected = Reference.sequential_parallel_nibble ~k params g (Rng.create seed) in
  let view = View.make g in
  let workspace = Pn.workspace ~copies:lanes g in
  let run ?workspace () = Pn.run ~k ?workspace params view (Rng.create seed) in
  let first = run ~workspace () in
  let again = run ~workspace () in
  (expected, same_run first expected && same_run again expected && same_run (run ()) expected)

(* Random multigraphs (isolated vertices: walks that never cover every
   vertex) and small planted cuts (copies that find a cut and stop at
   different steps), k from 1 to 7 copies in 1 to 4 lanes, so odd k,
   k = 1 and k beyond the lanes all occur. *)
let prop_lockstep_matches_sequential =
  QCheck.Test.make ~name:"lockstep ParallelNibble = sequential copies" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        match Rng.int rng 3 with
        | 0 -> random_multigraph rng
        | 1 ->
          Gen.dumbbell rng ~n1:(8 + Rng.int rng 16) ~n2:(8 + Rng.int rng 24) ~d:4
            ~bridges:(1 + Rng.int rng 2)
        | _ ->
          Gen.planted_partition rng ~parts:(2 + Rng.int rng 2) ~size:(8 + Rng.int rng 16)
            ~p_in:0.4 ~p_out:0.03
      in
      let params = mk_params (1.0 /. 16.0) (max 1 (Graph.num_edges g)) in
      let k = 1 + Rng.int rng 7 and lanes = 1 + Rng.int rng 4 in
      snd (lockstep_matches ~k ~lanes params g seed))

(* the planted-cut goldens' graphs, five copies in two lanes: copies
   that find a cut stop early while the others walk on *)
let test_lockstep_planted_cuts () =
  let stopped_apart = ref false in
  List.iter
    (fun (name, graph, seed) ->
      let g = graph () in
      let params = mk_params (1.0 /. 16.0) (Graph.num_edges g) in
      let expected, ok = lockstep_matches ~k:5 ~lanes:2 params g seed in
      Alcotest.(check bool) name true ok;
      let steps =
        List.map (fun (o : Nibble.outcome) -> o.Nibble.steps_executed) expected.Pn.nibbles
      in
      if List.length (List.sort_uniq Int.compare steps) > 1 then stopped_apart := true)
    [ ("2-block sbm", golden_sbm, 103); ("unbalanced dumbbell", golden_unbalanced, 107);
      ("4-block sbm", golden_sbm4, 5) ];
  Alcotest.(check bool) "copies stopped at different steps" true !stopped_apart

(* ---------- baselines ---------- *)

let test_spectral_baseline_dumbbell () =
  let rng = Rng.create 47 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:4 ~bridges:1 in
  match Baselines.spectral g (Rng.create 48) with
  | None -> Alcotest.fail "spectral should always return a cut"
  | Some c ->
    Alcotest.(check bool) "sparse" true (c.Baselines.conductance < 0.1);
    Alcotest.(check bool) "balanced here" true (c.Baselines.balance > 0.3)

(* The spectral baseline sweeps its eigenvector x in x order, ties by
   vertex, through the masses x(v)·deg(v), whose ρ gives back x(v): its
   cut is the first prefix of least conductance in that order *)
let prop_spectral_baseline_sweeps_vector_order =
  QCheck.Test.make ~name:"spectral baseline = best prefix in vector order" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 10 + Rng.int rng 30 in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:(0.05 +. Rng.float rng 0.3)) in
      let _, x = Dex_spectral.Mixing.spectral_gap ~iters:100 g (Rng.create (seed + 1)) in
      let order =
        List.sort
          (fun u v -> match Float.compare x.(v) x.(u) with 0 -> Int.compare u v | c -> c)
          (List.init n Fun.id)
      in
      let best = ref None in
      List.iteri
        (fun j _ ->
          let prefix = Array.of_list (List.filteri (fun i _ -> i <= j) order) in
          let c = Metrics.conductance g prefix in
          match !best with
          | Some (bc, _) when bc <= c -> ()
          | _ -> if Float.is_finite c then best := Some (c, prefix))
        order;
      match (Baselines.spectral g (Rng.create (seed + 1)), !best) with
      | None, None -> true
      | Some c, Some (bc, prefix) ->
        Array.sort Int.compare prefix;
        c.Baselines.vertices = prefix && Float.equal c.Baselines.conductance bc
      | _ -> false)

let test_dsmp_baseline_runs () =
  let rng = Rng.create 53 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:4 ~bridges:1 in
  match Baselines.dsmp g (Rng.create 54) with
  | None -> Alcotest.fail "dsmp returns a cut on a connected graph"
  | Some c ->
    (* ⌈16·ln²80⌉ = 308 steps *)
    Alcotest.(check int) "rounds = walk length" 308 c.Baselines.rounds;
    Alcotest.(check bool) "conductance recorded" true (Float.is_finite c.Baselines.conductance)

let prop_nibble_output_is_sparse =
  QCheck.Test.make ~name:"non-empty nibble output obeys C.1/C.1-star" ~count:25
    QCheck.(pair (Reference.int_range 10 40) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.15) in
      let params = mk_params (1.0 /. 13.0) (max 1 (Graph.num_edges g)) in
      let outcome = Nibble.approximate params g ~src:(seed mod n) ~b:1 in
      match outcome.Nibble.result with
      | None -> true
      | Some cut -> cut.Nibble.conductance <= (12.0 /. 13.0) +. 1e-9)

let () =
  Alcotest.run "sparsecut"
    [ ( "params",
        [ Alcotest.test_case "theory formulas" `Quick test_params_formulas_theory;
          Alcotest.test_case "eps_b halves" `Quick test_params_eps_b_halves;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "caps" `Quick test_params_caps;
          Alcotest.test_case "sweep schedule" `Quick test_sweep_schedule;
          Alcotest.test_case "relaxed factor presets" `Quick test_relaxed_factor_presets;
          Alcotest.test_case "practical 3phi bound" `Quick test_practical_output_within_3phi;
          Alcotest.test_case "h / h_inverse identity" `Quick test_h_identity;
          Alcotest.test_case "h roundtrip" `Quick test_h_inverse_roundtrip ] );
      ( "nibble",
        [ Alcotest.test_case "finds planted cut" `Quick test_nibble_finds_planted_cut;
          Alcotest.test_case "conductance bound" `Quick test_nibble_cut_conductance_bound;
          Alcotest.test_case "participants cover cut" `Quick test_nibble_participants_cover_cut;
          Alcotest.test_case "participating edges" `Quick test_participating_edges_incident;
          Alcotest.test_case "isolated source" `Quick test_nibble_on_isolated_vertex;
          Alcotest.test_case "C.3 volume floor" `Quick test_c3_volume_floor;
          Alcotest.test_case "Lemma 3 volume bound" `Quick test_lemma3_z_volume_bound;
          QCheck_alcotest.to_alcotest prop_nibble_output_is_sparse;
          QCheck_alcotest.to_alcotest prop_participating_edges_match_reference;
          QCheck_alcotest.to_alcotest prop_j_sequence_matches_search ] );
      ( "parallel-nibble",
        [ Alcotest.test_case "random nibble" `Quick test_random_nibble_runs;
          Alcotest.test_case "union volume ceiling" `Quick test_parallel_nibble_union_volume;
          Alcotest.test_case "overlap abort" `Quick test_parallel_nibble_overlap_detection;
          Alcotest.test_case "k < 1 rejected" `Quick test_parallel_nibble_rejects_k;
          Alcotest.test_case "warm call: no major words" `Quick
            test_parallel_nibble_warm_allocation;
          Alcotest.test_case "warm call on G(128, 1/2): no major words" `Quick
            test_parallel_nibble_warm_allocation_dense;
          Alcotest.test_case "lockstep on planted cuts" `Quick test_lockstep_planted_cuts;
          QCheck_alcotest.to_alcotest prop_overlap_matches_reference;
          QCheck_alcotest.to_alcotest prop_copy_masks_match_counters;
          QCheck_alcotest.to_alcotest prop_lockstep_matches_sequential ] );
      ( "partition",
        [ Alcotest.test_case "balanced dumbbell" `Quick test_partition_balanced_cut_dumbbell;
          Alcotest.test_case "unbalanced dumbbell" `Quick test_partition_unbalanced_planted_cut;
          Alcotest.test_case "volume ceiling" `Quick test_partition_volume_ceiling;
          Alcotest.test_case "expander case" `Quick test_partition_expander_no_false_positive;
          Alcotest.test_case "empty graph" `Quick test_partition_empty_graph;
          Alcotest.test_case "allocation pin on sparsecut-expander" `Quick
            test_partition_allocation_pin;
          Alcotest.test_case "balance vs exact reference" `Quick
            test_partition_respects_most_balanced_reference ] );
      ( "goldens",
        [ Alcotest.test_case "Partition.run" `Quick test_partition_goldens;
          Alcotest.test_case "Nibble runs" `Quick test_nibble_goldens ] );
      ( "run-verified",
        [ Alcotest.test_case "accepts dumbbell" `Quick test_run_verified_accepts_dumbbell;
          Alcotest.test_case "best attempt on failure" `Quick
            test_run_verified_reports_best_on_failure ] );
      ( "pagerank",
        [ Alcotest.test_case "push invariants" `Quick test_ppr_invariants;
          Alcotest.test_case "finds barbell cut" `Quick test_ppr_finds_barbell_cut ] );
      ( "walk-protocol",
        [ Alcotest.test_case "matches central computation" `Quick
            test_walk_protocol_matches_central;
          Alcotest.test_case "self loops" `Quick test_walk_protocol_with_self_loops;
          Alcotest.test_case "ledger" `Quick test_walk_protocol_charges_ledger ] );
      ( "st-reference",
        [ Alcotest.test_case "dumbbell" `Quick test_st_reference_dumbbell;
          Alcotest.test_case "empty" `Quick test_st_reference_empty;
          Alcotest.test_case "max nibbles" `Quick test_st_reference_max_nibbles;
          Alcotest.test_case "goldens" `Quick test_sequential_goldens ] );
      ( "baselines",
        [ Alcotest.test_case "spectral dumbbell" `Quick test_spectral_baseline_dumbbell;
          QCheck_alcotest.to_alcotest prop_spectral_baseline_sweeps_vector_order;
          Alcotest.test_case "dsmp runs" `Quick test_dsmp_baseline_runs ] ) ]
