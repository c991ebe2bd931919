(* Tests for triangle enumeration: the exact forward algorithm against
   a naive triple scan, the expander-based distributed enumerator
   (Theorem 2) for completeness, and the baseline cost models. *)

module Graph = Dex_graph.Graph
module Gen = Dex_graph.Generators
module Exact = Dex_triangle.Exact
module Enum = Dex_triangle.Expander_enum
module Baselines = Dex_triangle.Baselines
module Decomposition = Dex_decomp.Decomposition
module Rng = Dex_util.Rng
module Rounds = Dex_congest.Rounds
module View = Dex_spectral.View


(* the star K_{1,n-1}, from the shared test helpers *)
let star = Reference.star

let naive_triangles g =
  let n = Graph.num_vertices g in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      for w = v + 1 to n - 1 do
        if Reference.mem_edge g u v && Reference.mem_edge g v w && Reference.mem_edge g u w then
          acc := (u, v, w) :: !acc
      done
    done
  done;
  List.sort compare !acc

(* ---------- exact ---------- *)

let test_known_counts () =
  Alcotest.(check int) "K4" 4 (Exact.count (Gen.complete 4));
  Alcotest.(check int) "K5" 10 (Exact.count (Gen.complete 5));
  Alcotest.(check int) "K6" 20 (Exact.count (Gen.complete 6));
  Alcotest.(check int) "C5" 0 (Exact.count (Gen.cycle 5));
  Alcotest.(check int) "C3" 1 (Exact.count (Gen.cycle 3));
  Alcotest.(check int) "grid" 0 (Exact.count (Gen.grid 4 4));
  Alcotest.(check int) "tree" 0 (Exact.count (Gen.binary_tree 4));
  Alcotest.(check int) "star" 0 (Exact.count (star 10))

let test_self_loops_ignored () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2); (0, 0); (1, 1) ] in
  Alcotest.(check int) "one triangle" 1 (Exact.count g);
  Alcotest.(check (list (triple int int int))) "ordered" [ (0, 1, 2) ] (Exact.enumerate g)

let test_parallel_edges_no_double_count () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check int) "still one" 1 (Exact.count g)

let test_enumerate_matches_naive () =
  for seed = 1 to 6 do
    let rng = Rng.create seed in
    let g = Gen.gnp rng ~n:25 ~p:0.25 in
    Alcotest.(check (list (triple int int int))) "forward = naive" (naive_triangles g)
      (Exact.enumerate g)
  done

let test_edge_pred_split () =
  let g = Gen.complete 6 in
  let n = Graph.num_vertices g in
  let all = Exact.enumerate g in
  let hit =
    Exact.triangles_of_ids ~n (Exact.triangle_ids_with_edge_pred g (fun u v -> u = 0 && v = 1))
  in
  let miss = List.filter (fun t -> not (List.mem t hit)) all in
  Alcotest.(check int) "total preserved" (List.length all) (List.length hit + List.length miss);
  (* triangles containing edge (0,1): n-2 = 4 of them *)
  Alcotest.(check int) "hits" 4 (List.length hit);
  List.iter
    (fun (a, b, _) -> Alcotest.(check bool) "hit contains 0-1" true (a = 0 && b = 1))
    hit

(* ---------- packed-id oracle ---------- *)

(* The tuple implementation the packed-id code replaced, kept as a
   test-only reference: outputs and the [iter] call sequence must match
   it exactly. *)
module Tuple_reference = struct
  let rank g v = (Graph.plain_degree g v, v)

  let forward_lists g =
    let n = Graph.num_vertices g in
    let out = Array.make n [] in
    Graph.iter_edges g (fun u v ->
        if u <> v then
          if rank g u < rank g v then out.(u) <- v :: out.(u) else out.(v) <- u :: out.(v));
    Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) out

  let iter g f =
    let out = forward_lists g in
    let n = Graph.num_vertices g in
    let mark = Array.make n false in
    for u = 0 to n - 1 do
      let ou = out.(u) in
      Array.iter (fun v -> mark.(v) <- true) ou;
      Array.iter
        (fun v ->
          Array.iter
            (fun w ->
              if mark.(w) then begin
                let a = min u (min v w) and c = max u (max v w) in
                f (a, u + v + w - a - c, c)
              end)
            out.(v))
        ou;
      Array.iter (fun v -> mark.(v) <- false) ou
    done

  let enumerate g =
    let acc = ref [] in
    iter g (fun t -> acc := t :: !acc);
    List.sort compare !acc

  let count g =
    let c = ref 0 in
    iter g (fun _ -> incr c);
    !c

  let triangles_with_edge_pred g pred =
    let hit = ref [] in
    iter g (fun (u, v, w) -> if pred u v || pred v w || pred u w then hit := (u, v, w) :: !hit);
    List.sort compare !hit
end

(* a G(n, p) multigraph, p in [0.1, 0.9], with parallel copies,
   self-loops and some isolated vertices, plus a random edge
   predicate *)
let random_instance seed =
  let rng = Rng.create seed in
  let n = Rng.int rng 61 in
  let p = 0.1 +. Rng.float rng 0.8 in
  let isolated = Array.init n (fun _ -> Rng.int rng 8 = 0) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    if Rng.int rng 5 = 0 then edges := (u, u) :: !edges;
    for v = u + 1 to n - 1 do
      if (not isolated.(u)) && (not isolated.(v)) && Rng.bernoulli rng p then begin
        edges := (u, v) :: !edges;
        if Rng.int rng 6 = 0 then edges := (v, u) :: !edges
      end
    done
  done;
  let g = Graph.of_edges ~n !edges in
  let marked = Array.init (n * n) (fun _ -> Rng.bool rng) in
  (g, fun u v -> marked.((u * n) + v))

let calls iter g =
  let acc = ref [] in
  iter g (fun t -> acc := t :: !acc);
  List.rev !acc

let prop_exact_matches_reference =
  QCheck.Test.make ~name:"packed ids = tuple reference" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, pred = random_instance seed in
      let n = Graph.num_vertices g in
      let all = Tuple_reference.enumerate g in
      let hit = Tuple_reference.triangles_with_edge_pred g pred in
      calls Exact.iter g = calls Tuple_reference.iter g
      && Exact.enumerate g = all
      && Exact.count g = Tuple_reference.count g
      && Exact.triangles_of_ids ~n (Exact.triangle_ids g) = all
      && Exact.triangles_of_ids ~n (Exact.triangle_ids_with_edge_pred g pred) = hit)

(* Graphs with no parallel edges, some with self-loops (the bit rows
   hold none; the enumerator's later levels run on graphs that carry
   them), at vertex counts on both sides of each row-word edge, with p
   on both sides of the view's density rule (mean degree 8 per row
   word), so that some instances list their ids from bit rows and
   others from the forward algorithm; plus an edge predicate that
   holds with a random probability, so that [pred a b] both holds and
   fails on a bit-row word. *)
let word_edge_sizes = [| 1; 2; 3; 62; 63; 64; 125; 126; 127; 128; 189; 190 |]

let simple_instance seed =
  let rng = Rng.create seed in
  let n = word_edge_sizes.(Rng.int rng (Array.length word_edge_sizes)) in
  let p = 0.05 +. Rng.float rng 0.4 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    if Rng.int rng 8 = 0 then edges := (u, u) :: !edges;
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng p then edges := (u, v) :: !edges
    done
  done;
  let g = Graph.of_edges ~n !edges in
  let q = Rng.float rng 1.0 in
  let marked = Array.init (n * n) (fun _ -> Rng.float rng 1.0 < q) in
  (g, fun u v -> marked.((u * n) + v))

let prop_dense_ids_match_reference =
  QCheck.Test.make ~name:"bit-row ids = tuple reference" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, pred = simple_instance seed in
      let n = Graph.num_vertices g in
      Exact.triangles_of_ids ~n (Exact.triangle_ids g) = Tuple_reference.enumerate g
      && Exact.triangles_of_ids ~n (Exact.triangle_ids_with_edge_pred g pred)
         = Tuple_reference.triangles_with_edge_pred g pred
      && Exact.count g = Tuple_reference.count g)

(* the instances above reach both paths, and G(128, 1/2), the
   benchmark's graph, takes the bit rows *)
let test_dense_instances_cover_both_paths () =
  let rows seed = Option.is_some (Lazy.force (View.make (fst (simple_instance seed))).rows) in
  let sample = List.init 60 rows in
  Alcotest.(check bool) "some instance has bit rows" true (List.mem true sample);
  Alcotest.(check bool) "some instance has none" true (List.mem false sample);
  let g = Gen.gnp (Rng.create 1) ~n:128 ~p:0.5 in
  Alcotest.(check bool) "G(128, 1/2) has bit rows" true (Option.is_some (Lazy.force (View.make g).rows))

let test_id_bound () =
  let n = 1 lsl 20 in
  let top = (n - 3, n - 2, n - 1) and low = (0, 1, n - 1) in
  let g =
    Graph.of_edges ~n
      [ (n - 3, n - 2); (n - 2, n - 1); (n - 3, n - 1); (0, 1); (1, n - 1); (0, n - 1) ]
  in
  let ids = Exact.triangle_ids g in
  Alcotest.(check (list (triple int int int))) "round trip" [ low; top ]
    (Exact.triangles_of_ids ~n ids);
  Alcotest.(check int) "largest id" ((((n - 3) * n) + n - 2) * n + n - 1) ids.(1);
  Alcotest.(check (list (triple int int int))) "id to triple" [ top ]
    (Exact.triangles_of_ids ~n [| ids.(1) |]);
  Alcotest.(check bool) "below max_int" true (ids.(1) > 0 && ids.(1) < max_int);
  let big = Graph.of_edges ~n:(n + 1) [] in
  let msg = Invalid_argument "Exact: 1048577 vertices exceed the triangle-id bound n <= 2^20" in
  Alcotest.check_raises "triangle_ids beyond 2^20" msg (fun () ->
      ignore (Exact.triangle_ids big));
  Alcotest.check_raises "enumerate beyond 2^20" msg (fun () -> ignore (Exact.enumerate big));
  Alcotest.(check int) "count needs no ids" 0 (Exact.count big)

(* Level 1's detections, the ground truth filtered by the intra-part
   predicate, equal a second enumeration with that predicate, on
   random partitions into 1 to 8 parts; with one part every triangle
   passes and the filter returns its input. *)
let prop_level1_filter_matches_enumeration =
  QCheck.Test.make ~name:"level-1 filter = enumeration with the intra-part predicate" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, _ = random_instance seed in
      let n = Graph.num_vertices g in
      let rng = Rng.create (seed + 1) in
      let parts = 1 + Rng.int rng 8 in
      let part_of = Array.init n (fun _ -> Rng.int rng parts) in
      let intra u v = part_of.(u) = part_of.(v) in
      let ids = Exact.triangle_ids g in
      let filtered = Exact.filter_ids ~n ids intra in
      filtered = Exact.triangle_ids_with_edge_pred g intra
      && (parts > 1 || filtered == ids))

(* Integer order on ids is the lexicographic order on triangles, at
   vertex counts on both sides of a power of two and at the 2^20
   bound: on a clique over the first three, the middle and the last
   three vertices, the ids ascend strictly and decode to the sorted
   triangles. *)
let test_id_order () =
  List.iter
    (fun n ->
      let last = n - 1 in
      let picks =
        List.sort_uniq Int.compare
          (List.filter (fun v -> v >= 0 && v < n) [ 0; 1; 2; last / 2; last - 2; last - 1; last ])
      in
      let pairs =
        List.concat_map
          (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) picks)
          picks
      in
      let triangles =
        List.concat_map
          (fun (a, b) -> List.filter_map (fun c -> if b < c then Some (a, b, c) else None) picks)
          pairs
      in
      let ids = Exact.triangle_ids (Graph.of_edges ~n pairs) in
      let label = Printf.sprintf "n = %d" n in
      Alcotest.(check (list (triple int int int))) (label ^ ": decodes to the sorted triangles")
        (List.sort compare triangles) (Exact.triangles_of_ids ~n ids);
      Alcotest.(check bool) (label ^ ": ids ascend") true
        (List.for_all (fun i -> ids.(i) < ids.(i + 1)) (List.init (Int.max 0 (Array.length ids - 1)) Fun.id)))
    [ 1; 2; 3; 128; 129; 1 lsl 20 ]

(* ---------- distributed enumerator ---------- *)

let check_complete ?epsilon ?k_decomp g seed =
  let r = Enum.run ?epsilon ?k_decomp g (Rng.create seed) in
  Alcotest.(check bool) "complete" true r.Enum.complete;
  Alcotest.(check int) "count matches" (Exact.count g) (List.length r.Enum.triangles);
  r

let test_enum_gnp_dense () =
  let rng = Rng.create 7 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:60 ~p:0.5) in
  let r = check_complete g 8 in
  Alcotest.(check bool) "some rounds" true (r.Enum.total_rounds > 0);
  Alcotest.(check bool) "levels ≥ 1" true (List.length r.Enum.levels >= 1)

let test_enum_sbm_multi_level () =
  let rng = Rng.create 9 in
  let g = Gen.planted_partition rng ~parts:4 ~size:30 ~p_in:0.5 ~p_out:0.05 in
  let g = Gen.connectivize rng g in
  let r = check_complete ~epsilon:0.3 g 10 in
  (* cross-block triangles survive into E-star: expect > 1 level *)
  Alcotest.(check bool) "recursed" true (List.length r.Enum.levels >= 1);
  let total_detected =
    List.fold_left (fun acc l -> acc + l.Enum.detected) 0 r.Enum.levels
  in
  Alcotest.(check bool) "level counts cover all" true
    (total_detected >= List.length r.Enum.triangles)

(* level 1 decomposes the input with the run's generator before
   anything else draws from it, so the same seed rebuilds its parts;
   the instance counts must match a per-part incident-edge scan *)
let check_level1_instances g seed =
  let epsilon = 1.0 /. 6.0 in
  let r = Enum.run ~epsilon g (Rng.create seed) in
  let decomp = Decomposition.run ~epsilon ~k:2 g (Rng.create seed) in
  let n = Graph.num_vertices g in
  let instances part =
    let sub, _ = Graph.induced_subgraph g part in
    if Array.length part < 2 || Graph.num_plain_edges sub = 0 then 0
    else begin
      let mask = Dex_graph.Metrics.mask_of g part in
      let incident = ref 0 in
      Graph.iter_edges g (fun u v -> if u <> v && (mask.(u) || mask.(v)) then incr incident);
      Enum.instances_for ~n ~incident:!incident ~volume:(Graph.volume g part)
    end
  in
  let parts = decomp.Decomposition.parts in
  Alcotest.(check bool) "several parts" true (List.length parts > 1);
  let l1 = List.hd r.Enum.levels in
  Alcotest.(check int) "components" (List.length parts) l1.Enum.components;
  Alcotest.(check int) "max instances"
    (List.fold_left (fun acc p -> max acc (instances p)) 0 parts)
    l1.Enum.max_instances

(* twelve K8s, each bridged to a central K8 that has the highest ids:
   the centre's crossing edges set the max instance count *)
let star_of_cliques () =
  let clique base =
    List.concat
      (List.init 8 (fun a -> List.init (7 - a) (fun d -> (base + a, base + a + d + 1))))
  in
  let leaves = List.concat (List.init 12 (fun i -> (8 * i, 96 + (i mod 8)) :: clique (8 * i))) in
  Graph.of_edges ~n:104 (clique 96 @ leaves)

let test_enum_level1_instances () =
  check_level1_instances (star_of_cliques ()) 10;
  check_level1_instances (Gen.cliques_chain ~cliques:5 ~size:8) 10;
  check_level1_instances (Gen.dumbbell (Rng.create 12) ~n1:40 ~n2:40 ~d:8 ~bridges:2) 13

(* a detected triangle loses an intra-part edge to E-star, so every
   triangle is new at exactly one level *)
let test_enum_levels_partition_triangles () =
  List.iter
    (fun seed ->
      let g = Gen.dumbbell (Rng.create seed) ~n1:30 ~n2:30 ~d:8 ~bridges:3 in
      let r = Enum.run g (Rng.create (seed + 1)) in
      let detected = List.fold_left (fun acc l -> acc + l.Enum.detected) 0 r.Enum.levels in
      Alcotest.(check bool) "complete" true r.Enum.complete;
      Alcotest.(check bool) "several levels" true (List.length r.Enum.levels > 1);
      Alcotest.(check int) "sum of level counts" (List.length r.Enum.triangles) detected)
    [ 31; 32; 33 ]

let test_enum_triangle_free () =
  let g = Gen.grid 8 8 in
  let r = Enum.run g (Rng.create 11) in
  Alcotest.(check (list (triple int int int))) "none" [] r.Enum.triangles;
  Alcotest.(check bool) "complete" true r.Enum.complete

let test_enum_dumbbell () =
  let rng = Rng.create 12 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:8 ~bridges:2 in
  ignore (check_complete g 13)

let test_enum_power_law () =
  let rng = Rng.create 14 in
  let g = Gen.connectivize rng (Gen.chung_lu rng ~n:120 ~exponent:2.5 ~avg_degree:10.0) in
  ignore (check_complete g 15)

let test_enum_cliques_chain () =
  let g = Gen.cliques_chain ~cliques:5 ~size:8 in
  let r = check_complete g 16 in
  Alcotest.(check int) "clique triangles" (5 * 56) (List.length r.Enum.triangles)

let test_instances_formula () =
  (* clique-like component: incident = volume/2 exactly when all edges
     are intra, so instances ≈ 1.5·n^{1/3} *)
  Alcotest.(check int) "balanced" 8 (Enum.instances_for ~n:125 ~incident:100 ~volume:200);
  Alcotest.(check bool) "monotone in incident" true
    (Enum.instances_for ~n:125 ~incident:200 ~volume:200
     > Enum.instances_for ~n:125 ~incident:50 ~volume:200)

let test_level_reports_consistent () =
  let rng = Rng.create 17 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:50 ~p:0.3) in
  let r = Enum.run g (Rng.create 18) in
  List.iter
    (fun l ->
      Alcotest.(check bool) "edges positive" true (l.Enum.edges > 0);
      Alcotest.(check bool) "components positive" true (l.Enum.components > 0);
      Alcotest.(check bool) "rounds nonneg" true (l.Enum.decomposition_rounds >= 0))
    r.Enum.levels;
  let level_sum =
    List.fold_left
      (fun acc l ->
        acc + l.Enum.routing_preprocess_rounds + l.Enum.routing_query_rounds)
      0 r.Enum.levels
  in
  Alcotest.(check bool) "enumeration rounds = routing part" true
    (r.Enum.enumeration_rounds >= level_sum)

(* ---------- executed DLP ---------- *)

module Dlp = Dex_triangle.Dlp

let test_dlp_complete_and_counts () =
  for seed = 1 to 4 do
    let rng = Rng.create seed in
    let g = Gen.gnp rng ~n:40 ~p:0.4 in
    let r = Dlp.run g in
    Alcotest.(check bool) "complete" true r.Dlp.complete;
    Alcotest.(check int) "count" (Exact.count g) (List.length r.Dlp.triangles);
    Alcotest.(check bool) "rounds positive" true (r.Dlp.rounds > 0)
  done

let test_dlp_group_structure () =
  let r = Dlp.run (Gen.complete 27) in
  Alcotest.(check int) "g = n^{1/3}" 3 r.Dlp.groups;
  (* multisets of 3 groups: C(3,3)+3·2+3 = 10 *)
  Alcotest.(check int) "triples" 10 r.Dlp.triples;
  Alcotest.(check bool) "loads measured" true
    (r.Dlp.max_receive_words > 0 && r.Dlp.max_send_words > 0)

(* on K_64 the 4 groups of 16 give every pair block 16² edges, and the
   heaviest owner learns three distinct pair blocks: 3·16² = 768 words.
   An unbalanced split (e.g. v·4/65: blocks of 17/16/16/15) reads
   more *)
let test_dlp_group_of_balanced () =
  let r = Dlp.run (Gen.complete 64) in
  Alcotest.(check int) "groups" 4 r.Dlp.groups;
  Alcotest.(check int) "triples" 20 r.Dlp.triples;
  Alcotest.(check int) "balanced blocks: heaviest receiver" (3 * 16 * 16) r.Dlp.max_receive_words

let test_dlp_scaling () =
  let rng = Rng.create 23 in
  let r64 = Dlp.run (Gen.gnp rng ~n:64 ~p:0.5) in
  let r512 = Dlp.run (Gen.gnp rng ~n:512 ~p:0.5) in
  let ratio = float_of_int r512.Dlp.rounds /. float_of_int (max 1 r64.Dlp.rounds) in
  (* n^{1/3} scaling: factor 2 expected over an 8x size jump *)
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f in [1,8]" ratio) true
    (ratio >= 1.0 && ratio <= 8.0)

let test_dlp_empty_graph () =
  let r = Dlp.run (Graph.of_edges ~n:10 []) in
  Alcotest.(check (list (triple int int int))) "no triangles" [] r.Dlp.triangles;
  Alcotest.(check bool) "complete" true r.Dlp.complete

(* ---------- baselines ---------- *)

let test_trivial_rounds () =
  (* complete graph: every vertex receives (n-1)·(n-1) words over
     (n-1) edges = n-1 rounds *)
  Alcotest.(check int) "K10" 9 (Baselines.trivial_rounds (Gen.complete 10));
  (* star: center degree n-1, leaves degree 1; leaf receives n-1 words
     over one edge *)
  Alcotest.(check int) "star" 9 (Baselines.trivial_rounds (star 10));
  Alcotest.(check int) "empty" 0 (Baselines.trivial_rounds (Graph.of_edges ~n:5 []))

let test_dlp_rounds_scale () =
  let rng = Rng.create 19 in
  let r64 = Baselines.dlp_clique_rounds (Gen.gnp rng ~n:64 ~p:0.5) (Rng.create 20) in
  let r512 = Baselines.dlp_clique_rounds (Gen.gnp rng ~n:512 ~p:0.5) (Rng.create 21) in
  Alcotest.(check bool) "positive" true (r64 >= 1);
  (* n^{1/3} scaling: 512/64 = 8 ⇒ factor ≈ 2; allow [1.2, 6] slack *)
  let ratio = float_of_int r512 /. float_of_int (max 1 r64) in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f" ratio) true (ratio > 1.2 && ratio < 6.0)

let test_reference_formulas () =
  Alcotest.(check bool) "IL ≥ LB" true
    (Baselines.izumi_le_gall_rounds ~n:1000 > Baselines.lower_bound_rounds ~n:1000);
  Alcotest.(check bool) "LB grows" true
    (Baselines.lower_bound_rounds ~n:100_000 > Baselines.lower_bound_rounds ~n:100)

let test_run_verified_complete () =
  let rng = Rng.create 67 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.25) in
  match Enum.run_verified g (Rng.create 68) with
  | Error _ -> Alcotest.fail "enumeration should certify within 3 attempts"
  | Ok o ->
    Alcotest.(check bool) "complete" true o.Rounds.value.Enum.complete;
    Alcotest.(check bool) "attempts in budget" true
      (o.Rounds.attempts >= 1 && o.Rounds.attempts <= 3);
    Alcotest.(check bool) "rounds summed" true
      (o.Rounds.rounds_total >= o.Rounds.value.Enum.total_rounds);
    Alcotest.(check (list (triple int int int))) "matches naive"
      (naive_triangles g) o.Rounds.value.Enum.triangles

let prop_enum_complete =
  QCheck.Test.make ~name:"expander enumeration = ground truth" ~count:6
    QCheck.(pair (Reference.int_range 20 60) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.3) in
      let r = Enum.run g (Rng.create (seed + 1)) in
      r.Enum.complete)

let () =
  Alcotest.run "triangle"
    [ ( "exact",
        [ Alcotest.test_case "known counts" `Quick test_known_counts;
          Alcotest.test_case "self loops ignored" `Quick test_self_loops_ignored;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges_no_double_count;
          Alcotest.test_case "matches naive" `Quick test_enumerate_matches_naive;
          Alcotest.test_case "edge predicate split" `Quick test_edge_pred_split ] );
      ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_exact_matches_reference;
          Alcotest.test_case "id bound 2^20" `Quick test_id_bound;
          Alcotest.test_case "id order is lexicographic" `Quick test_id_order;
          QCheck_alcotest.to_alcotest prop_level1_filter_matches_enumeration;
          QCheck_alcotest.to_alcotest prop_dense_ids_match_reference;
          Alcotest.test_case "bit-row instances cover both paths" `Quick
            test_dense_instances_cover_both_paths ] );
      ( "expander-enum",
        [ Alcotest.test_case "dense gnp" `Quick test_enum_gnp_dense;
          Alcotest.test_case "SBM multi level" `Quick test_enum_sbm_multi_level;
          Alcotest.test_case "triangle free" `Quick test_enum_triangle_free;
          Alcotest.test_case "dumbbell" `Quick test_enum_dumbbell;
          Alcotest.test_case "power law" `Quick test_enum_power_law;
          Alcotest.test_case "cliques chain" `Quick test_enum_cliques_chain;
          Alcotest.test_case "instances formula" `Quick test_instances_formula;
          Alcotest.test_case "level reports" `Quick test_level_reports_consistent;
          Alcotest.test_case "run_verified complete" `Quick test_run_verified_complete;
          QCheck_alcotest.to_alcotest prop_enum_complete;
          Alcotest.test_case "level-1 instances" `Quick test_enum_level1_instances;
          Alcotest.test_case "levels partition" `Quick test_enum_levels_partition_triangles ] );
      ( "dlp",
        [ Alcotest.test_case "complete & counts" `Quick test_dlp_complete_and_counts;
          Alcotest.test_case "group structure" `Quick test_dlp_group_structure;
          Alcotest.test_case "balanced groups" `Quick test_dlp_group_of_balanced;
          Alcotest.test_case "n^{1/3} scaling" `Quick test_dlp_scaling;
          Alcotest.test_case "empty graph" `Quick test_dlp_empty_graph ] );
      ( "baselines",
        [ Alcotest.test_case "trivial rounds" `Quick test_trivial_rounds;
          Alcotest.test_case "dlp scaling" `Quick test_dlp_rounds_scale;
          Alcotest.test_case "reference formulas" `Quick test_reference_formulas ] ) ]
