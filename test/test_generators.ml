(* Tests for Dex_graph.Generators: structural guarantees of each
   family used by the experiments. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Rng = Dex_util.Rng

let test_complete () =
  let g = Gen.complete 6 in
  Alcotest.(check int) "n" 6 (Graph.num_vertices g);
  Alcotest.(check int) "m" 15 (Graph.num_edges g);
  for v = 0 to 5 do
    Alcotest.(check int) "degree" 5 (Graph.degree g v)
  done

let test_cycle_path_star () =
  let c = Gen.cycle 8 in
  Alcotest.(check int) "cycle m" 8 (Graph.num_edges c);
  for v = 0 to 7 do
    Alcotest.(check int) "cycle 2-regular" 2 (Graph.degree c v)
  done;
  let p = Gen.path 8 in
  Alcotest.(check int) "path m" 7 (Graph.num_edges p);
  let s = Reference.star 8 in
  Alcotest.(check int) "star center degree" 7 (Graph.degree s 0);
  Alcotest.(check int) "star leaf degree" 1 (Graph.degree s 3)

let test_grid () =
  let g = Gen.grid 4 5 in
  Alcotest.(check int) "n" 20 (Graph.num_vertices g);
  Alcotest.(check int) "m" 31 (Graph.num_edges g);
  (* corner degree 2, interior degree 4 *)
  Alcotest.(check int) "corner" 2 (Graph.degree g 0);
  Alcotest.(check int) "interior" 4 (Graph.degree g 6);
  Alcotest.(check int) "diameter" 7 (Metrics.subset_diameter g (Array.init 20 Fun.id))

let test_gnp_density () =
  let rng = Rng.create 1 in
  let g = Gen.gnp rng ~n:100 ~p:0.1 in
  let m = Graph.num_edges g in
  (* expectation 495; allow wide slack *)
  Alcotest.(check bool) "density plausible" true (m > 330 && m < 680);
  let g0 = Gen.gnp rng ~n:50 ~p:0.0 in
  Alcotest.(check int) "p=0 empty" 0 (Graph.num_edges g0);
  let g1 = Gen.gnp rng ~n:10 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" 45 (Graph.num_edges g1)

let test_gnp_sparse_dense_agree () =
  (* the sparse (skip) sampler and dense sampler target the same
     distribution; compare means over seeds *)
  let mean_m p lo hi =
    let total = ref 0 in
    for seed = 1 to 20 do
      let rng = Rng.create seed in
      total := !total + Graph.num_edges (Gen.gnp rng ~n:60 ~p)
    done;
    let avg = float_of_int !total /. 20.0 in
    Alcotest.(check bool) (Printf.sprintf "avg for p=%f in [%f,%f]" p lo hi) true
      (avg >= lo && avg <= hi)
  in
  (* E[m] = 1770·p *)
  mean_m 0.1 150.0 205.0;
  (* sparse path *)
  mean_m 0.3 470.0 590.0 (* dense path *)

let test_random_regular () =
  let rng = Rng.create 3 in
  let g = Gen.random_regular rng ~n:100 ~d:6 in
  let total = Graph.total_volume g in
  Alcotest.(check bool) "near regular" true (total >= 560 && total <= 600);
  let irregular = ref 0 in
  for v = 0 to 99 do
    if Graph.degree g v <> 6 then incr irregular
  done;
  Alcotest.(check bool) "few irregular vertices" true (!irregular <= 10);
  Alcotest.check_raises "odd nd" (Invalid_argument "Generators.random_regular: n*d must be even")
    (fun () -> ignore (Gen.random_regular rng ~n:5 ~d:3))

(* Edge-list digests of seeded generator outputs: any change to a
   generator's output or to its rng draws fails here, not only the
   bench and perfbench goldens. (10, 2, 1), (20, 3, 2) and (1000, 4, 5)
   end on a strict pairing attempt; (200, 8, 1) and (160, 8, 1), the
   perfbench expander inputs, and (9, 8, 4), d = n - 1, end on the
   fallback, which keeps 793, 617 and 23 pairs. *)
let edges_digest g =
  Graph.edges g
  |> List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let test_generator_goldens () =
  List.iter
    (fun (n, d, seed, m, digest) ->
      let g = Gen.random_regular (Rng.create seed) ~n ~d in
      let case = Printf.sprintf "random_regular n=%d d=%d seed=%d" n d seed in
      Alcotest.(check int) (case ^ " m") m (Graph.num_edges g);
      Alcotest.(check string) case digest (edges_digest g))
    [ (10, 2, 1, 10, "dedd20a48b3979be8dfa2377ae48c5b9");
      (20, 3, 2, 30, "827d9058cc4e3a1148a80a647901e2f4");
      (200, 8, 1, 793, "10cf2899631df7300130b567ce94c783");
      (160, 8, 1, 617, "7126cbb34e99a00600fb892238192e1e");
      (50, 0, 3, 0, "d41d8cd98f00b204e9800998ecf8427e");
      (9, 8, 4, 23, "86c7ebfebb5760b299b35b441c295498");
      (1000, 4, 5, 2000, "74c6a5f527dbaa8033db12e61543de85") ];
  let g = Gen.dumbbell (Rng.create 4) ~n1:40 ~n2:40 ~d:6 ~bridges:2 in
  Alcotest.(check string) "dumbbell" "532c091fd37b62f19aa8247b0e1995ee" (edges_digest g);
  List.iter
    (fun (n, p, seed, digest) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p in
      Alcotest.(check string) (Printf.sprintf "gnp n=%d p=%g seed=%d" n p seed) digest
        (edges_digest g))
    [ (300, 0.05, 7, "033d40c2718737f8bc59848197f35d1e");
      (1000, 0.01, 2, "ebbb506939b26d7ac384f088ca7231fd");
      (128, 0.5, 1, "095b8e10346cf080ae5b42337f012817") ]

let test_barbell () =
  let g = Gen.barbell ~clique:10 ~bridge:3 in
  Alcotest.(check int) "n" 23 (Graph.num_vertices g);
  Alcotest.(check bool) "connected" true (Metrics.is_connected g);
  (* the clique side is a sparse cut *)
  let side = Array.init 10 (fun i -> i) in
  Alcotest.(check bool) "sparse side" true (Metrics.conductance g side < 0.05)

let test_dumbbell () =
  let rng = Rng.create 4 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:6 ~bridges:2 in
  Alcotest.(check bool) "connected" true (Metrics.is_connected g);
  let side = Array.init 40 (fun i -> i) in
  let phi = Metrics.conductance g side in
  Alcotest.(check bool) "planted cut sparse" true (phi < 0.02);
  Alcotest.(check bool) "balance ≈ 1/2" true (Metrics.balance g side > 0.45)

let test_planted_partition () =
  let rng = Rng.create 5 in
  let g = Gen.planted_partition rng ~parts:3 ~size:40 ~p_in:0.4 ~p_out:0.01 in
  Alcotest.(check int) "n" 120 (Graph.num_vertices g);
  let block = Array.init 40 (fun i -> i) in
  Alcotest.(check bool) "block is sparse cut" true (Metrics.conductance g block < 0.15)

let test_chung_lu () =
  let rng = Rng.create 6 in
  let g = Gen.chung_lu rng ~n:200 ~exponent:2.5 ~avg_degree:10.0 in
  let avg = float_of_int (Graph.total_volume g) /. 200.0 in
  Alcotest.(check bool) "average degree ≈ 10" true (avg > 6.0 && avg < 14.0);
  (* power law: max degree much larger than average *)
  let maxdeg = ref 0 in
  for v = 0 to 199 do
    maxdeg := max !maxdeg (Graph.degree g v)
  done;
  Alcotest.(check bool) "skewed degrees" true (float_of_int !maxdeg > 2.0 *. avg)

let test_cliques_chain () =
  let g = Gen.cliques_chain ~cliques:4 ~size:6 in
  Alcotest.(check int) "n" 24 (Graph.num_vertices g);
  Alcotest.(check bool) "connected" true (Metrics.is_connected g);
  Alcotest.(check int) "m" ((4 * 15) + 3) (Graph.num_edges g)

let test_binary_tree () =
  let g = Gen.binary_tree 4 in
  Alcotest.(check int) "n" 31 (Graph.num_vertices g);
  Alcotest.(check int) "m" 30 (Graph.num_edges g);
  Alcotest.(check int) "tree degeneracy" 1 (Metrics.degeneracy g)

let test_attach_warts () =
  let rng = Rng.create 8 in
  let base = Gen.random_regular rng ~n:60 ~d:6 in
  let g = Gen.attach_warts rng base ~warts:3 ~size:5 in
  Alcotest.(check int) "n grows" (60 + 15) (Graph.num_vertices g);
  Alcotest.(check int) "edges grow" (Graph.num_edges base + (3 * 10) + 3) (Graph.num_edges g);
  Alcotest.(check bool) "connected" true (Metrics.is_connected g);
  (* each wart is a very sparse, very unbalanced cut *)
  for w = 0 to 2 do
    let wart = Array.init 5 (fun i -> 60 + (w * 5) + i) in
    Alcotest.(check int) "wart cut = 1 edge" 1 (Metrics.cut_size g wart);
    Alcotest.(check bool) "wart sparse" true (Metrics.conductance g wart < 0.05);
    Alcotest.(check bool) "wart unbalanced" true (Metrics.balance g wart < 0.06)
  done

let test_connectivize () =
  let rng = Rng.create 7 in
  let g = Graph.of_edges ~n:9 [ (0, 1); (2, 3); (4, 5) ] in
  let g' = Gen.connectivize rng g in
  Alcotest.(check bool) "connected afterwards" true (Metrics.is_connected g');
  Alcotest.(check bool) "few edges added" true (Graph.num_edges g' <= 3 + 5);
  (* already connected: unchanged *)
  let p = Gen.path 5 in
  let p' = Gen.connectivize rng p in
  Alcotest.(check int) "no-op" (Graph.num_edges p) (Graph.num_edges p')

let prop_generators_valid =
  QCheck.Test.make ~name:"generated graphs pass invariants" ~count:50
    QCheck.(pair (Reference.int_range 4 40) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let graphs =
        [ Gen.gnp rng ~n ~p:0.2;
          Gen.random_regular rng ~n:(2 * n) ~d:3;
          Gen.cycle (max 3 n);
          Gen.grid 3 (max 1 (n / 3));
          Gen.chung_lu rng ~n ~exponent:2.7 ~avg_degree:4.0 ]
      in
      List.iter Reference.check_graph graphs;
      true)

let () =
  Alcotest.run "generators"
    [ ( "deterministic families",
        [ Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "cycle/path/star" `Quick test_cycle_path_star;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "barbell" `Quick test_barbell;
          Alcotest.test_case "cliques chain" `Quick test_cliques_chain;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "attach warts" `Quick test_attach_warts ] );
      ( "random families",
        [ Alcotest.test_case "gnp density" `Quick test_gnp_density;
          Alcotest.test_case "gnp samplers agree" `Quick test_gnp_sparse_dense_agree;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "dumbbell" `Quick test_dumbbell;
          Alcotest.test_case "planted partition" `Quick test_planted_partition;
          Alcotest.test_case "chung-lu" `Quick test_chung_lu;
          Alcotest.test_case "connectivize" `Quick test_connectivize;
          Alcotest.test_case "generator goldens" `Quick test_generator_goldens ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_generators_valid ]) ]
