(* Tests for the low-diameter decomposition (Theorem 4): MPX
   clustering as a protocol, the V_D/V_S refinement invariants, and
   the end-to-end diameter / cut-fraction guarantees. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Rounds = Dex_congest.Rounds
module Network = Dex_congest.Network
module Clustering = Dex_ldd.Clustering
module Neighborhood = Dex_ldd.Neighborhood
module Refine = Dex_ldd.Refine
module Ldd = Dex_ldd.Ldd
module Rng = Dex_util.Rng
module Trace = Dex_obs.Trace

let net_of g = Network.create g (Rounds.create ())

(* ---------- MPX clustering ---------- *)

(* the clusters of [c], each ascending, by ascending center *)
let clusters (c : Clustering.t) =
  let n = Array.length c.Clustering.cluster in
  List.filter_map
    (fun center ->
      match List.filter (fun v -> c.Clustering.cluster.(v) = center) (List.init n Fun.id) with
      | [] -> None
      | members -> Some (Array.of_list members))
    (List.init n Fun.id)

(* edges whose endpoints lie in different clusters *)
let inter_cluster_edges g (c : Clustering.t) =
  let crossing = ref 0 in
  Graph.iter_edges g (fun u v ->
      if u <> v && c.Clustering.cluster.(u) <> c.Clustering.cluster.(v) then incr crossing);
  !crossing

let test_clustering_covers () =
  let rng = Rng.create 1 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:80 ~p:0.05) in
  let c = Clustering.run (net_of g) ~beta:0.3 rng in
  Array.iteri
    (fun v cl ->
      Alcotest.(check bool) (Printf.sprintf "vertex %d clustered" v) true (cl >= 0 && cl < 80))
    c.Clustering.cluster;
  let parts = clusters c in
  Metrics.check_partition g parts

let test_clustering_centers_own_cluster () =
  let rng = Rng.create 2 in
  let g = Gen.grid 8 8 in
  let c = Clustering.run (net_of g) ~beta:0.4 rng in
  (* every cluster id is a vertex assigned to itself *)
  Array.iter
    (fun cl -> Alcotest.(check int) "center in own cluster" cl c.Clustering.cluster.(cl))
    c.Clustering.cluster

let test_clustering_radius_bound () =
  let rng = Rng.create 3 in
  let g = Gen.grid 12 12 in
  let beta = 0.4 in
  let c = Clustering.run (net_of g) ~beta rng in
  let horizon = c.Clustering.epochs in
  (* each vertex is within horizon hops of its center, and the
     protocol ran exactly horizon epochs *)
  let parts = clusters c in
  List.iter
    (fun part ->
      let center = c.Clustering.cluster.(part.(0)) in
      let dist = Metrics.bfs_distances g center in
      Array.iter
        (fun v -> Alcotest.(check bool) "within horizon" true (dist.(v) <= horizon))
        part)
    parts;
  Alcotest.(check int) "rounds = epochs" horizon c.Clustering.rounds

let test_clustering_cut_fraction_expectation () =
  (* Lemma 12: Pr[edge cut] ≤ 2β; empirical average over seeds should
     be ≤ 3β comfortably *)
  let beta = 0.15 in
  let g = Gen.cycle 400 in
  let total = ref 0 in
  let seeds = 10 in
  for seed = 1 to seeds do
    let c = Clustering.run (net_of g) ~beta (Rng.create seed) in
    total := !total + inter_cluster_edges g c
  done;
  let avg = float_of_int !total /. float_of_int seeds in
  let m = float_of_int (Graph.num_edges g) in
  Alcotest.(check bool)
    (Printf.sprintf "avg cut %.1f ≤ 3βm = %.1f" avg (3.0 *. beta *. m))
    true
    (avg <= 3.0 *. beta *. m)

let test_clustering_beta_validation () =
  let g = Gen.path 4 in
  Alcotest.check_raises "beta out of range" (Invalid_argument "Clustering.run: beta in (0,1)")
    (fun () -> ignore (Clustering.run (net_of g) ~beta:1.5 (Rng.create 1)))

let test_clustering_start_times () =
  let rng = Rng.create 4 in
  let g = Gen.grid 10 10 in
  let c = Clustering.run (net_of g) ~beta:0.3 rng in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "start in [1, horizon]" true (s >= 1 && s <= c.Clustering.epochs))
    c.Clustering.start;
  (* a vertex whose start epoch is 1 must be its own center *)
  Array.iteri
    (fun v s ->
      if s = 1 then Alcotest.(check int) "epoch-1 vertex is a center" v c.Clustering.cluster.(v))
    c.Clustering.start

(* ---------- MPX oracle: cursor port vs the list-API protocol ---------- *)

(* [Clustering.run] as it ran on the list API, stepping all n vertices
   for all [horizon] rounds, now on the reference interpreter. Kept
   here as the bit-identity oracle for the cursor port; returns the
   clustering and the reference's message and word counts. *)
type ref_state = { start_epoch : int; cluster : int; announced : bool }

let reference_run g ~beta rng =
  let n = Graph.num_vertices g in
  let horizon =
    max 1 (int_of_float (Float.ceil (2.0 *. log (Float.max 2.0 (float_of_int n)) /. beta)))
  in
  let starts =
    Array.init n (fun i ->
        let local = Rng.split rng i in
        let delta = Rng.exponential local ~rate:beta in
        max 1 (horizon - int_of_float (Float.floor delta)))
  in
  let init v = { start_epoch = starts.(v); cluster = -1; announced = false } in
  let step ~round ~vertex:v st inbox =
    let v = Dex_graph.Vertex.local_int v in
    let st =
      if st.cluster >= 0 then st
      else if st.start_epoch = round then { st with cluster = v }
      else if st.start_epoch > round then begin
        match inbox with
        | [] -> st
        | _ :: _ ->
          let best =
            List.fold_left (fun acc (_, w) -> min acc w) max_int inbox
          in
          { st with cluster = best }
      end
      else st
    in
    if st.cluster >= 0 && not st.announced then begin
      let outbox = ref [] in
      Graph.iter_neighbors g v (fun u -> outbox := (u, st.cluster) :: !outbox);
      ({ st with announced = true }, !outbox)
    end
    else (st, [])
  in
  let r = Reference.create g in
  let states = Reference.run_rounds r ~init ~step ~on_round:(fun _ _ -> ()) horizon in
  ( { Clustering.cluster = Array.map (fun st -> st.cluster) states;
      start = starts;
      epochs = horizon;
      rounds = horizon },
    r.Reference.messages,
    r.Reference.words )

(* one graph per family, with self-loops sprinkled in: loops are not
   CONGEST edges, so neither protocol may send on them *)
let oracle_graph family n rng =
  let g =
    match family with
    | 0 -> Gen.gnp rng ~n ~p:(Float.min 1.0 (3.0 /. float_of_int n))
    | 1 -> Gen.random_regular rng ~n:(2 * ((n + 5) / 2)) ~d:4
    | 2 -> Gen.cycle (max 3 n)
    | 3 -> Gen.grid (1 + (n / 8)) 8
    | 4 ->
      (* two components side by side *)
      let h = max 2 (n / 2) in
      let a = Gen.cycle (max 3 h) and b = Gen.gnp rng ~n:h ~p:0.2 in
      let na = Graph.num_vertices a in
      Graph.of_edges ~n:(na + h)
        (Graph.edges a @ List.map (fun (u, v) -> (u + na, v + na)) (Graph.edges b))
    | _ -> Graph.of_edges ~n [] (* isolated vertices only *)
  in
  Reference.with_self_loops g
    (Array.init (Graph.num_vertices g) (fun v -> if v mod 5 = 0 then 1 else 0))

let prop_mpx_matches_list_api =
  QCheck.Test.make ~name:"MPX cursor port = list-API protocol" ~count:100
    QCheck.(
      quad (int_bound 5) (Reference.int_range 1 60) (float_range 0.01 0.99) (int_bound 100_000))
    (fun (family, n, beta, seed) ->
      (* the shrinker may step outside the generator's ranges *)
      let g = oracle_graph (abs family) (max 1 n) (Rng.create (seed + 1)) in
      let w, messages, words = reference_run g ~beta (Rng.create seed) in
      let net = Network.create g (Rounds.create ()) in
      let r = Clustering.run net ~beta (Rng.create seed) in
      w.Clustering.cluster = r.Clustering.cluster
      && w.Clustering.start = r.Clustering.start
      && w.Clustering.epochs = r.Clustering.epochs
      && w.Clustering.rounds = r.Clustering.rounds
      && Rounds.by_phase (Network.rounds net) = [ ("mpx-clustering", w.Clustering.rounds) ]
      && Network.messages_sent net = messages
      && Network.messages_sent net = words)

(* complexity guard without a clock: MPX charges all [horizon] rounds
   but only rounds in which some vertex acts are stepped, and each
   stepped round emits one tick. The cycle at beta = 0.002 has a
   horizon of ~6,000, far above 2n, so a dense run would fail here. *)
let test_mpx_ticks_only_stepped_rounds () =
  let n = 400 in
  let g = Gen.cycle n in
  List.iter
    (fun beta ->
      let ledger = Rounds.create () in
      let tr = Trace.create ~capacity:100_000 () in
      Rounds.attach_trace ledger (Some tr);
      let net = Network.create g ledger in
      let c = Clustering.run net ~beta (Rng.create 7) in
      let ticks =
        List.length
          (List.filter
             (function Trace.Round_tick _ -> true | _ -> false)
             (Trace.events tr))
      in
      let name what = Printf.sprintf "beta %g %s" beta what in
      Alcotest.(check int) (name "charged = horizon") c.Clustering.epochs (Rounds.total ledger);
      Alcotest.(check bool)
        (name (Printf.sprintf "%d ticks <= 2n" ticks))
        true (ticks <= 2 * n);
      Alcotest.(check int) (name "ticks carry every message") (Network.messages_sent net)
        (Trace.messages tr))
    [ 0.05; 0.002 ];
  (* the guard has teeth: at beta = 0.002 the horizon alone exceeds 2n *)
  let c = Clustering.run (net_of g) ~beta:0.002 (Rng.create 7) in
  Alcotest.(check bool) "horizon > 2n" true (c.Clustering.epochs > 2 * n)

(* MPX under drops and duplicates on a dense graph, where most
   vertices stepped in a round were woken by a delivery and send
   nothing: the clusters, the message count, the fault counts and
   every traced round tick and fault event, in order, are the ones
   recorded before Phase B skipped the slots of vertices that staged
   nothing *)
let test_mpx_dense_faults_golden () =
  let g = Gen.gnp (Rng.create 11) ~n:96 ~p:0.5 in
  let faults = Dex_congest.Faults.create ~drop:0.1 ~duplicate:0.05 ~seed:4 in
  let ledger = Rounds.create () in
  let tr = Trace.create ~capacity:100_000 () in
  Rounds.attach_trace ledger (Some tr);
  let net = Network.create ~faults g ledger in
  let c = Clustering.run net ~beta:0.3 (Rng.create 5) in
  let events =
    List.filter_map
      (function
        | Trace.Round_tick { round; messages; max_edge_load; active } ->
          (* the digest was recorded with a words column, which repeated
             messages: one word per message *)
          Some
            (Printf.sprintf "tick %d %d %d %d %d" round messages messages max_edge_load active)
        | Trace.Fault { kind; round; src; dst } ->
          Some (Printf.sprintf "%s %d %d %d" kind round src dst)
        | _ -> None)
      (Trace.events tr)
  in
  let digest l = Digest.to_hex (Digest.string (String.concat "\n" l)) in
  let summary =
    Printf.sprintf "clusters=%s messages=%d drops=%d duplicates=%d events=%d trace=%s"
      (digest (Array.to_list (Array.map string_of_int c.Clustering.cluster)))
      (Network.messages_sent net) (Dex_congest.Faults.drops faults)
      (Dex_congest.Faults.duplicates faults) (List.length events) (digest events)
  in
  Alcotest.(check string) "golden"
    "clusters=241bb65c33f73b14651277f478a065dc messages=4318 drops=407 duplicates=207 \
     events=631 trace=58413d3a0b65c72acb359e722ca343ab"
    summary

(* ---------- neighborhood counting ---------- *)

let test_ball_edge_count () =
  let g = Gen.path 10 in
  let count ~d = (Neighborhood.all_ball_edge_counts g ~d).(5) in
  (* ball of radius 1 around vertex 5 = {4,5,6}: 2 edges *)
  Alcotest.(check int) "radius 1" 2 (count ~d:1);
  Alcotest.(check int) "radius 2" 4 (count ~d:2);
  Alcotest.(check int) "radius 0" 0 (count ~d:0);
  Alcotest.(check int) "whole graph" 9 (count ~d:20)

let test_ball_counts_with_loops () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 1) ] in
  (* ball radius 1 around 0 = {0,1}: edge 0-1 plus loop at 1 *)
  Alcotest.(check int) "loop counted" 2 (Neighborhood.all_ball_edge_counts g ~d:1).(0)

(* the bulk counts, whole-component shortcut included, against a
   per-vertex search on multigraphs with loops, isolated vertices and
   several components *)
let prop_ball_counts_match_single =
  QCheck.Test.make ~name:"bulk matches single" ~count:300
    QCheck.(triple (Reference.int_range 1 30) (int_bound 10_000) (int_range 0 4))
    (fun (n, seed, d) ->
      let rng = Rng.create seed in
      let edges = List.init (Rng.int rng (2 * n)) (fun _ -> (Rng.int rng n, Rng.int rng n)) in
      let g = Graph.of_edges ~n edges in
      let all = Neighborhood.all_ball_edge_counts g ~d in
      Array.for_all Fun.id (Array.init n (fun v -> all.(v) = Reference.ball_edge_count g ~d v)))

let test_lemma16_rounds_positive () =
  Alcotest.(check bool) "positive" true (Neighborhood.lemma16_rounds ~n:100 ~d:5 ~f:0.5 > 0);
  Alcotest.check_raises "f validation"
    (Invalid_argument "Neighborhood.lemma16_rounds: f in (0,1)") (fun () ->
      ignore (Neighborhood.lemma16_rounds ~n:100 ~d:5 ~f:1.5))

(* ---------- refinement ---------- *)

let test_refine_invariants_on_path () =
  let g = Gen.path 600 in
  let t = Refine.run g ~beta:0.4 in
  Reference.check_refine g t;
  Alcotest.(check bool) "iterations within 2b" true (t.Refine.iterations <= (2 * t.Refine.b) + 1)

let test_refine_low_diameter_graph_all_vd () =
  (* when a ≥ diameter, every ball is the whole graph and every vertex
     is dense relative to itself: V_D = V *)
  let rng = Rng.create 6 in
  let g = Gen.random_regular rng ~n:64 ~d:6 in
  let t = Refine.run g ~beta:0.2 in
  Alcotest.(check bool) "all of V in V_D" true (Array.for_all (fun b -> b) t.Refine.in_vd)

let test_refine_vs_density () =
  let g = Gen.path 600 in
  let t = Refine.run g ~beta:0.4 in
  let m = Graph.num_edges g in
  let counts = Neighborhood.all_ball_edge_counts g ~d:t.Refine.a in
  Array.iteri
    (fun v in_vd ->
      if not in_vd then
        Alcotest.(check bool) "V_S ball sparse" true (counts.(v) * t.Refine.b <= m))
    t.Refine.in_vd

(* Refine's outputs on graphs that exercise every step: the barbell
   and the warted cycle merge W's components (two iterations), the
   grid and the short cycle keep V_D = V after one, and on the long
   cycle V'_D is empty. The values were recorded before the searches
   moved onto Metrics.bfs. *)
let test_refine_golden () =
  let summary g beta =
    let t = Refine.run g ~beta in
    let bits = String.init (Array.length t.Refine.in_vd) (fun v -> if t.Refine.in_vd.(v) then '1' else '0') in
    Printf.sprintf "a=%d b=%d iterations=%d rounds=%d |V_D|=%d in_vd=%s" t.Refine.a t.Refine.b
      t.Refine.iterations t.Refine.rounds
      (Array.fold_left (fun c b -> if b then c + 1 else c) 0 t.Refine.in_vd)
      (Digest.to_hex (Digest.string bits))
  in
  List.iter
    (fun (name, g, beta, expected) -> Alcotest.(check string) name expected (summary g beta))
    [ ( "barbell 80/200", Gen.barbell ~clique:80 ~bridge:200, 0.7,
        "a=43 b=43 iterations=2 rounds=12220 |V_D|=360 in_vd=067e60b6ede424ad7788b4f54d99ef6b" );
      ( "warted cycle", Gen.attach_warts (Rng.create 1) (Gen.cycle 1500) ~warts:20 ~size:25, 0.9,
        "a=43 b=43 iterations=2 rounds=20176 |V_D|=1937 in_vd=d8934881175b2e933649f36ddfb889c4" );
      ( "grid 30x30", Gen.grid 30 30, 0.9,
        "a=38 b=38 iterations=1 rounds=14181 |V_D|=900 in_vd=217db169d19f6c1f6125456f452022a9" );
      ( "cycle 2000", Gen.cycle 2000, 0.7,
        "a=55 b=55 iterations=1 rounds=25586 |V_D|=2000 in_vd=e92b7cd4cf3a611a8a6a07935339eb6d" );
      ( "cycle 5000", Gen.cycle 5000, 0.9,
        "a=48 b=48 iterations=1 rounds=27905 |V_D|=0 in_vd=9716dbe3f1a00dc5bd603a2304fa06a6" ) ]

(* After a warm-up call, Refine and the component search on
   decompose-expander's input (random 8-regular, n = 160, seed 1,
   connectivized) at its schedule's β allocate nothing on the major
   heap, and on the minor heap no more than they did before their
   searches moved onto Metrics.bfs: 5,954 and 1,132 words, measured in
   this suite's build profile. *)
let test_ldd_allocation_pin () =
  let rng = Rng.create 1 in
  let g = Gen.connectivize rng (Gen.random_regular rng ~n:160 ~d:8) in
  let beta = (Dex_decomp.Schedule.make ~epsilon:0.3 ~k:2 g).Dex_decomp.Schedule.beta in
  let pin name ceiling f =
    ignore (Sys.opaque_identity (f ()));
    Gc.minor ();
    let _, _, major = Gc.counters () in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    let words = Gc.minor_words () -. before in
    let _, _, major' = Gc.counters () in
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f minor words" name words) true (words <= ceiling);
    Alcotest.(check (float 0.0)) (name ^ ": major words") 0.0 (major' -. major)
  in
  pin "Refine.run" 5954.0 (fun () -> Obj.repr (Refine.run g ~beta));
  pin "connected_components" 1132.0 (fun () -> Obj.repr (Metrics.connected_components g))

(* ---------- end-to-end LDD ---------- *)

let test_ldd_run_on_network () =
  (* rounds charged to the ledger of the caller's network *)
  let rng = Rng.create 5 in
  let g = Gen.cycle 4_000 in
  let net = net_of g in
  let r = Ldd.run_graph ~ledger:(Network.rounds net) g ~beta:0.6 rng in
  Metrics.check_partition g r.Ldd.parts;
  Alcotest.(check int) "rounds charged to the network ledger" r.Ldd.rounds
    (Rounds.total (Network.rounds net))

let test_ldd_partition_and_diameter () =
  (* at the paper's constants the far ball saturates unless the graph
     is long enough: a 20000-cycle at beta = 0.6 puts every vertex in
     V_S, so the MPX cuts really materialize *)
  let rng = Rng.create 7 in
  let n = 20_000 in
  let g = Gen.cycle n in
  let beta = 0.6 in
  let r = Ldd.run_graph g ~beta rng in
  Metrics.check_partition g r.Ldd.parts;
  let bound = Ldd.diameter_bound ~n ~beta in
  List.iter
    (fun part ->
      (* parts of a cycle are arcs: diameter = size - 1 unless whole *)
      let d = if Array.length part = n then n / 2 else Array.length part - 1 in
      Alcotest.(check bool) "diameter within bound" true (d <= bound))
    r.Ldd.parts;
  Alcotest.(check bool) "actually clustered" true (List.length r.Ldd.parts > 1);
  Alcotest.(check bool) "rounds positive" true (r.Ldd.rounds > 0)

let test_ldd_cut_fraction () =
  let beta = 0.6 in
  let g = Gen.cycle 20_000 in
  let worst = ref 0.0 in
  for seed = 1 to 5 do
    let r = Ldd.run_graph g ~beta (Rng.create seed) in
    let frac =
      float_of_int (List.length r.Ldd.cut_edges) /. float_of_int (Graph.num_edges g)
    in
    if frac > !worst then worst := frac
  done;
  (* Theorem 4 (with our Lemma 13 constant): ≤ 3β w.h.p. *)
  Alcotest.(check bool)
    (Printf.sprintf "worst %.3f ≤ 3β = %.3f" !worst (3.0 *. beta))
    true
    (!worst <= 3.0 *. beta)

let test_ldd_removed_edges_consistent () =
  let rng = Rng.create 8 in
  let g = Gen.grid 20 20 in
  let r = Ldd.run_graph g ~beta:0.5 rng in
  (* cut edges really join different parts *)
  let label = Array.make (Graph.num_vertices g) (-1) in
  List.iteri (fun i part -> Array.iter (fun v -> label.(v) <- i) part) r.Ldd.parts;
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "cut edge crosses" true (label.(u) <> label.(v)))
    r.Ldd.cut_edges

let test_ldd_expander_is_single_part () =
  (* low-diameter input: LDD may keep everything whole (V_D = V) *)
  let rng = Rng.create 9 in
  let g = Gen.random_regular rng ~n:128 ~d:8 in
  let r = Ldd.run_graph g ~beta:0.2 rng in
  Alcotest.(check int) "one part" 1 (List.length r.Ldd.parts);
  Alcotest.(check int) "no cut edges" 0 (List.length r.Ldd.cut_edges)

let prop_ldd_is_partition =
  QCheck.Test.make ~name:"LDD output is a partition within the diameter bound" ~count:10
    QCheck.(pair (Reference.int_range 50 300) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:(4.0 /. float_of_int n)) in
      let beta = 0.3 in
      let r = Ldd.run_graph g ~beta rng in
      Metrics.check_partition g r.Ldd.parts;
      Ldd.max_part_diameter g r <= Ldd.diameter_bound ~n ~beta)

let () =
  Alcotest.run "ldd"
    [ ( "clustering",
        [ Alcotest.test_case "covers all vertices" `Quick test_clustering_covers;
          Alcotest.test_case "centers own cluster" `Quick test_clustering_centers_own_cluster;
          Alcotest.test_case "radius bound" `Quick test_clustering_radius_bound;
          Alcotest.test_case "cut fraction (Lemma 12)" `Quick
            test_clustering_cut_fraction_expectation;
          Alcotest.test_case "beta validation" `Quick test_clustering_beta_validation;
          Alcotest.test_case "start times" `Quick test_clustering_start_times ] );
      ( "mpx-oracle",
        [ QCheck_alcotest.to_alcotest prop_mpx_matches_list_api;
          Alcotest.test_case "ticks only on stepped rounds" `Quick
            test_mpx_ticks_only_stepped_rounds;
          Alcotest.test_case "dense faulty run golden" `Quick test_mpx_dense_faults_golden ] );
      ( "neighborhood",
        [ Alcotest.test_case "ball edge count" `Quick test_ball_edge_count;
          Alcotest.test_case "loops counted" `Quick test_ball_counts_with_loops;
          QCheck_alcotest.to_alcotest prop_ball_counts_match_single;
          Alcotest.test_case "lemma 16 rounds" `Quick test_lemma16_rounds_positive ] );
      ( "refine",
        [ Alcotest.test_case "invariants on path" `Quick test_refine_invariants_on_path;
          Alcotest.test_case "low-diameter graph ⇒ V_D = V" `Quick
            test_refine_low_diameter_graph_all_vd;
          Alcotest.test_case "V_S density" `Quick test_refine_vs_density;
          Alcotest.test_case "refine golden" `Quick test_refine_golden;
          Alcotest.test_case "allocation pin on decompose-expander" `Quick
            test_ldd_allocation_pin ] );
      ( "end-to-end",
        [ Alcotest.test_case "run on a network" `Quick test_ldd_run_on_network;
          Alcotest.test_case "partition & diameter" `Quick test_ldd_partition_and_diameter;
          Alcotest.test_case "cut fraction (Theorem 4)" `Quick test_ldd_cut_fraction;
          Alcotest.test_case "cut edges cross" `Quick test_ldd_removed_edges_consistent;
          Alcotest.test_case "expander stays whole" `Quick test_ldd_expander_is_single_part;
          QCheck_alcotest.to_alcotest prop_ldd_is_partition ] ) ]
