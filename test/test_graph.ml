(* Tests for Dex_graph.Graph and Dex_graph.Metrics: representation
   invariants, the self-loop degree convention, subgraph operators
   G[S] / G{S}, and the cut metrics of the paper's Section 1. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Rng = Dex_util.Rng

let triangle_plus_pendant () =
  (* 0-1-2 triangle with a pendant 3 attached to 0 *)
  Graph.of_edges ~n:4 [ (0, 1); (1, 2); (0, 2); (0, 3) ]

let random_graph seed n p =
  let rng = Rng.create seed in
  Gen.gnp rng ~n ~p

(* ---------- construction and degrees ---------- *)

let test_basic_counts () =
  let g = triangle_plus_pendant () in
  Alcotest.(check int) "n" 4 (Graph.num_vertices g);
  Alcotest.(check int) "m" 4 (Graph.num_edges g);
  Alcotest.(check int) "deg 0" 3 (Graph.degree g 0);
  Alcotest.(check int) "deg 3" 1 (Graph.degree g 3);
  Alcotest.(check int) "total volume" 8 (Graph.total_volume g);
  Reference.check_graph g

let test_self_loops_count_one () =
  let g = Graph.of_edges ~n:2 [ (0, 1); (0, 0); (0, 0) ] in
  Alcotest.(check int) "deg with loops" 3 (Graph.degree g 0);
  Alcotest.(check int) "plain degree" 1 (Graph.plain_degree g 0);
  Alcotest.(check int) "self loops" 2 (Graph.self_loops g 0);
  Alcotest.(check int) "edges include loops" 3 (Graph.num_edges g);
  Alcotest.(check int) "volume" 4 (Graph.total_volume g);
  Reference.check_graph g

let test_mem_edge () =
  let g = triangle_plus_pendant () in
  Alcotest.(check bool) "0-1" true (Reference.mem_edge g 0 1);
  Alcotest.(check bool) "1-0" true (Reference.mem_edge g 1 0);
  Alcotest.(check bool) "1-3" false (Reference.mem_edge g 1 3);
  Alcotest.(check bool) "no loop" false (Reference.mem_edge g 0 0)

let test_out_of_range () =
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 5) ]))

let test_iter_edges_roundtrip () =
  let g = triangle_plus_pendant () in
  let edges = Graph.edges g in
  Alcotest.(check int) "count" 4 (List.length edges);
  let g2 = Graph.of_edges ~n:4 edges in
  Alcotest.(check int) "same m" (Graph.num_edges g) (Graph.num_edges g2);
  for v = 0 to 3 do
    Alcotest.(check int) "same degree" (Graph.degree g v) (Graph.degree g2 v)
  done

(* ---------- subgraphs ---------- *)

let test_induced_subgraph () =
  let g = triangle_plus_pendant () in
  let sub, mapping = Graph.induced_subgraph g [| 0; 1; 2 |] in
  Alcotest.(check int) "sub n" 3 (Graph.num_vertices sub);
  Alcotest.(check int) "sub m" 3 (Graph.num_edges sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] mapping;
  (* vertex 0 lost its pendant edge: degree drops *)
  Alcotest.(check int) "induced degree drops" 2 (Graph.degree sub 0)

let test_saturated_subgraph_preserves_degrees () =
  let g = triangle_plus_pendant () in
  let sub, mapping = Graph.saturated_subgraph g [| 0; 1; 2 |] in
  Array.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "degree preserved at %d" v)
        (Graph.degree g v) (Graph.degree sub i))
    mapping;
  Alcotest.(check int) "loop added at cut endpoint" 1 (Graph.self_loops sub 0);
  Reference.check_graph sub

let test_remove_edges_adds_loops () =
  let g = triangle_plus_pendant () in
  let g' = Graph.remove_edges g [ (0, 1); (3, 0) ] in
  Alcotest.(check int) "degree never changes (0)" (Graph.degree g 0) (Graph.degree g' 0);
  Alcotest.(check int) "degree never changes (3)" (Graph.degree g 3) (Graph.degree g' 3);
  Alcotest.(check bool) "edge gone" false (Reference.mem_edge g' 0 1);
  Alcotest.(check int) "loop at 3" 1 (Graph.self_loops g' 3);
  Alcotest.(check int) "plain m" 2 (Graph.num_plain_edges g');
  Reference.check_graph g'

let test_empty_graph () =
  let g = Graph.of_edges ~n:4 [] in
  Alcotest.(check int) "no edges" 0 (Graph.num_edges g);
  Alcotest.(check int) "volume" 0 (Graph.total_volume g);
  Reference.check_graph g

(* ---------- metrics ---------- *)

let test_cut_and_conductance () =
  let g = triangle_plus_pendant () in
  (* S = {3}: one crossing edge, Vol = 1 *)
  Alcotest.(check int) "cut {3}" 1 (Metrics.cut_size g [| 3 |]);
  Alcotest.(check (float 1e-9)) "phi {3}" 1.0 (Metrics.conductance g [| 3 |]);
  (* S = {0,3}: edges 0-1 and 0-2 cross *)
  Alcotest.(check int) "cut {0,3}" 2 (Metrics.cut_size g [| 0; 3 |]);
  Alcotest.(check (float 1e-9)) "phi {0,3}" 0.5 (Metrics.conductance g [| 0; 3 |]);
  Alcotest.(check (float 1e-9)) "balance {0,3}" 0.5 (Metrics.balance g [| 0; 3 |])

let test_conductance_symmetric () =
  let g = random_graph 3 24 0.2 in
  let rng = Rng.create 9 in
  for _ = 1 to 20 do
    let size = 1 + Rng.int rng 22 in
    let order = Array.init 24 Fun.id in
    Rng.shuffle rng order;
    let s = Array.sub order 0 size in
    let s_bar = Metrics.complement g s in
    let c1 = Metrics.conductance g s and c2 = Metrics.conductance g s_bar in
    if Float.is_finite c1 || Float.is_finite c2 then
      Alcotest.(check (float 1e-9)) "phi(S) = phi(S̄)" c1 c2
  done

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let comps = Metrics.connected_components g in
  Alcotest.(check int) "3 components" 3 (List.length comps);
  Alcotest.(check (array int)) "largest first" [| 0; 1; 2 |] (List.hd comps);
  Alcotest.(check bool) "not connected" false (Metrics.is_connected g);
  Alcotest.(check bool) "path connected" true (Metrics.is_connected (Gen.path 5))

let test_bfs_and_diameter () =
  let g = Gen.path 10 in
  let dist = Metrics.bfs_distances g 0 in
  Alcotest.(check int) "dist to end" 9 dist.(9);
  let diameter g = Metrics.subset_diameter g (Array.init (Graph.num_vertices g) Fun.id) in
  Alcotest.(check int) "diameter path" 9 (diameter g);
  Alcotest.(check int) "cycle diameter" 5 (diameter (Gen.cycle 10));
  Alcotest.(check int) "complete diameter" 1 (diameter (Gen.complete 5));
  Alcotest.(check int) "unreachable" max_int (Metrics.bfs_distances (Graph.of_edges ~n:2 []) 0).(1)

let test_degeneracy () =
  Alcotest.(check int) "tree degeneracy" 1 (Metrics.degeneracy (Gen.binary_tree 4));
  Alcotest.(check int) "K5 degeneracy" 4 (Metrics.degeneracy (Gen.complete 5));
  Alcotest.(check int) "cycle degeneracy" 2 (Metrics.degeneracy (Gen.cycle 8));
  Alcotest.(check int) "grid degeneracy" 2 (Metrics.degeneracy (Gen.grid 5 5))

let test_sparse_cut_predicate () =
  (* one barbell bridge: conductance of a side is tiny, a single
     vertex of K5 is not sparse: Φ(S) ≤ 0.2 decides it *)
  let g = Gen.barbell ~clique:5 ~bridge:0 in
  let side = Array.init 5 (fun i -> i) in
  Alcotest.(check bool) "bridge side is a 0.2-sparse cut" true
    (Metrics.conductance g side <= 0.2);
  Alcotest.(check bool) "single K5 vertex is not" false
    (Metrics.conductance g [| 1 |] <= 0.2)

let test_arboricity_bound () =
  (* the degeneracy bounds the arboricity from above: arboricity(K5)
     = 3 <= 4; a tree's bound is its arboricity, 1 *)
  Alcotest.(check int) "K5" 4 (Metrics.degeneracy (Gen.complete 5));
  Alcotest.(check int) "tree" 1 (Metrics.degeneracy (Gen.binary_tree 4))

let test_fold_vertices_sums_degrees () =
  let g = triangle_plus_pendant () in
  let handshake = Graph.fold_vertices g 0 (fun acc v -> acc + Graph.degree g v) in
  Alcotest.(check int) "handshake lemma" (2 * Graph.num_edges g) handshake

let test_partition_checks () =
  let g = Gen.path 4 in
  Metrics.check_partition g [ [| 0; 1 |]; [| 2; 3 |] ];
  Alcotest.(check int) "inter edges" 1
    (Metrics.inter_component_edges g [ [| 0; 1 |]; [| 2; 3 |] ]);
  Alcotest.check_raises "missing vertex"
    (Invalid_argument "Metrics.check_partition: vertex 3 uncovered") (fun () ->
      Metrics.check_partition g [ [| 0; 1 |]; [| 2 |] ]);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Metrics.check_partition: vertex appears twice") (fun () ->
      Metrics.check_partition g [ [| 0; 1 |]; [| 1; 2; 3 |] ])

let test_subset_diameter () =
  let g = Gen.cycle 12 in
  Alcotest.(check int) "arc of 4" 3 (Metrics.subset_diameter g [| 0; 1; 2; 3 |])

(* ---------- properties ---------- *)

let graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 24 in
    let* edges =
      list_size (int_range 0 60) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (Graph.of_edges ~n edges))

let arb_graph = QCheck.make graph_gen

let prop_invariants =
  QCheck.Test.make ~name:"graph invariants hold" ~count:200 arb_graph (fun g ->
      Reference.check_graph g;
      true)

let prop_volume_split =
  QCheck.Test.make ~name:"Vol(S) + Vol(S̄) = Vol(V)" ~count:200 arb_graph (fun g ->
      let n = Graph.num_vertices g in
      let s = Array.init (n / 2) (fun i -> i) in
      let s_bar = Metrics.complement g s in
      Graph.volume g s + Graph.volume g s_bar = Graph.total_volume g)

let prop_cut_bounded =
  QCheck.Test.make ~name:"cut ≤ min volume side" ~count:200 arb_graph (fun g ->
      let n = Graph.num_vertices g in
      let s = Array.init (max 1 (n / 2)) (fun i -> i) in
      let cut = Metrics.cut_size g s in
      let vol_s = Graph.volume g s in
      let vol_rest = Graph.total_volume g - vol_s in
      cut <= vol_s && cut <= max cut vol_rest)

let prop_remove_edges_degree_invariant =
  QCheck.Test.make ~name:"remove_edges preserves degrees" ~count:200 arb_graph (fun g ->
      let edges = Graph.edges g in
      let g' = Graph.remove_edges g edges in
      let ok = ref (Graph.num_plain_edges g' = 0) in
      for v = 0 to Graph.num_vertices g - 1 do
        if Graph.degree g v <> Graph.degree g' v then ok := false
      done;
      !ok)

let prop_saturated_degrees =
  QCheck.Test.make ~name:"G{S} preserves degrees" ~count:200 arb_graph (fun g ->
      let n = Graph.num_vertices g in
      let s = Array.init ((n + 1) / 2) (fun i -> i * 2 mod n) in
      let s = Array.of_list (List.sort_uniq compare (Array.to_list s)) in
      let sub, mapping = Graph.saturated_subgraph g s in
      let ok = ref true in
      Array.iteri
        (fun i v -> if Graph.degree sub i <> Graph.degree g v then ok := false)
        mapping;
      !ok)

(* G[S] / G{S} and edge removal against their definitions, built from
   the edge list with [of_edges] and [Reference.with_self_loops]: the subset may
   be unsorted, the dead list may repeat, reverse, loop or leave the
   graph, and the graphs carry loops and parallel edges *)
let same_graph a b =
  Graph.num_vertices a = Graph.num_vertices b
  && Graph.num_plain_edges a = Graph.num_plain_edges b
  && Graph.num_edges a = Graph.num_edges b
  && List.for_all
       (fun v ->
         Graph.neighbors a v = Graph.neighbors b v && Graph.self_loops a v = Graph.self_loops b v)
       (List.init (Graph.num_vertices a) Fun.id)

let subgraph_by_definition g s ~saturate =
  let id = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace id v i) s;
  let inside = List.filter (fun (u, v) -> Hashtbl.mem id u && Hashtbl.mem id v) (Graph.edges g) in
  let base =
    Graph.of_edges ~n:(Array.length s)
      (List.map (fun (u, v) -> (Hashtbl.find id u, Hashtbl.find id v)) inside)
  in
  Reference.with_self_loops base
    (Array.mapi
       (fun i v -> if saturate then Graph.plain_degree g v - Graph.plain_degree base i else 0)
       s)

let prop_subgraphs_match_definition =
  QCheck.Test.make ~name:"G[S] and G{S} match their edge-list definition" ~count:300
    QCheck.(pair arb_graph (list small_nat))
    (fun (g, picks) ->
      let n = Graph.num_vertices g in
      let seen = Hashtbl.create 16 in
      let s =
        Array.of_list
          (List.filter_map
             (fun x ->
               let v = x mod n in
               if Hashtbl.mem seen v then None
               else begin
                 Hashtbl.replace seen v ();
                 Some v
               end)
             picks)
      in
      List.for_all
        (fun saturate ->
          let sub, mapping =
            if saturate then Graph.saturated_subgraph g s else Graph.induced_subgraph g s
          in
          Reference.check_graph sub;
          mapping = s && same_graph sub (subgraph_by_definition g s ~saturate))
        [ false; true ])

let prop_remove_edges_matches_definition =
  QCheck.Test.make ~name:"remove_edges matches its edge-list definition" ~count:300
    QCheck.(pair arb_graph (list (pair (Reference.int_range (-1) 25) (Reference.int_range (-1) 25))))
    (fun (g, dead) ->
      let n = Graph.num_vertices g in
      let norm (u, v) = (min u v, max u v) in
      let is_dead (u, v) =
        u <> v && List.exists (fun e -> norm e = norm (u, v)) dead
      in
      let kept = List.filter (fun e -> not (is_dead e)) (Graph.edges g) in
      let extra = Array.make n 0 in
      List.iter
        (fun (u, v) ->
          if is_dead (u, v) then begin
            extra.(u) <- extra.(u) + 1;
            extra.(v) <- extra.(v) + 1
          end)
        (Graph.edges g);
      let g' = Graph.remove_edges g dead in
      Reference.check_graph g';
      same_graph g' (Reference.with_self_loops (Graph.of_edges ~n kept) extra))

let test_subgraph_rejects_duplicates () =
  let g = triangle_plus_pendant () in
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph: duplicate subset vertex")
    (fun () -> ignore (Graph.saturated_subgraph g [| 0; 2; 0 |]));
  Alcotest.check_raises "out of range" (Invalid_argument "Graph: subset vertex out of range")
    (fun () -> ignore (Graph.induced_subgraph g [| 0; 4 |]))

let prop_components_partition =
  QCheck.Test.make ~name:"components form a partition" ~count:200 arb_graph (fun g ->
      let comps = Metrics.connected_components g in
      Metrics.check_partition g comps;
      Metrics.inter_component_edges g comps = 0)

(* the one search against its level-by-level reference, on multigraphs
   with loops and isolated vertices: sources with repeats, with and
   without a mask and labels, at every limit *)
let prop_bfs_matches_reference =
  let search_gen =
    QCheck.Gen.(
      let* g = graph_gen in
      let n = Graph.num_vertices g in
      let* sources = list_size (int_range 0 n) (int_range 0 (n - 1)) in
      let* mask = opt (array_repeat n bool) in
      let* label = opt (array_repeat n (int_range (-1) 5)) in
      let* limit = oneof [ int_range (-1) (n + 1); return max_int ] in
      return (g, sources, mask, label, limit))
  in
  QCheck.Test.make ~name:"bfs = level-by-level reference" ~count:500 (QCheck.make search_gen)
    (fun (g, sources, mask, label, limit) ->
      let n = Graph.num_vertices g in
      let dist = Array.make n max_int and queue = Array.make n 0 in
      List.iteri (fun i v -> queue.(i) <- v) sources;
      let labels = Option.map Array.copy label in
      let k =
        Metrics.bfs ?mask ?label:labels g ~dist ~queue ~sources:(List.length sources) ~limit
      in
      let ref_dist, ref_label, order =
        Reference.bfs g
          ~mask:(Option.value mask ~default:(Array.make n true))
          ~label:(Option.value label ~default:(Array.make n 0))
          ~limit sources
      in
      dist = ref_dist
      && Array.to_list (Array.sub queue 0 k) = order
      && Option.fold ~none:true ~some:(fun l -> l = ref_label) labels)

(* ---------- serialization ---------- *)

module Io = Dex_graph.Graph_io

let test_io_roundtrip () =
  let g = triangle_plus_pendant () in
  let g2 = Reference.load_string (Reference.edge_list g) in
  Alcotest.(check int) "n" (Graph.num_vertices g) (Graph.num_vertices g2);
  Alcotest.(check int) "m" (Graph.num_edges g) (Graph.num_edges g2);
  for v = 0 to 3 do
    Alcotest.(check int) "degree" (Graph.degree g v) (Graph.degree g2 v)
  done

(* a file [text] for [f path], removed afterwards *)
let with_file text f =
  let path = Filename.temp_file "dex_graph" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_io_file_roundtrip () =
  let g = triangle_plus_pendant () in
  with_file (Reference.edge_list g) (fun path ->
      let g2 = Io.load path in
      Alcotest.(check int) "n" (Graph.num_vertices g) (Graph.num_vertices g2);
      Alcotest.(check int) "m" (Graph.num_edges g) (Graph.num_edges g2);
      for v = 0 to 3 do
        Alcotest.(check int) "degree" (Graph.degree g v) (Graph.degree g2 v)
      done)

let test_io_parse_features () =
  let g = Reference.load_string "# header\nn 5\n0 1\n1\t2\n\n3 3\n" in
  Alcotest.(check int) "n declared" 5 (Graph.num_vertices g);
  Alcotest.(check int) "edges with loop" 3 (Graph.num_edges g);
  Alcotest.(check int) "self loop" 1 (Graph.self_loops g 3);
  let g2 = Reference.load_string "0 7\n" in
  Alcotest.(check int) "n inferred" 8 (Graph.num_vertices g2)

(* every load error is one line naming the file, and the line when
   there is one *)
let test_io_errors () =
  let fails_with text expected =
    with_file text (fun path ->
        match Io.load path with
        | exception Failure msg -> Alcotest.(check string) text (path ^ ": " ^ expected) msg
        | _ -> Alcotest.failf "expected a load failure on %S" text)
  in
  fails_with "n 3\n0 1\n1 x\n" "line 3: invalid edge \"1 x\"";
  fails_with "0 1\nn 2\n# the largest endpoint is on line 4\n0 5\n1 2\n"
    "line 4: edge endpoint 5 exceeds declared n = 2";
  fails_with "n -1\n" "line 1: invalid vertex count \"-1\"";
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "dex_no_such_graph.txt" in
  match Io.load missing with
  | exception Sys_error msg ->
    Alcotest.(check bool) ("names the path: " ^ msg) true
      (String.length msg > String.length missing
       && String.sub msg 0 (String.length missing) = missing)
  | _ -> Alcotest.fail "expected Sys_error on a missing file"

let prop_io_roundtrip =
  QCheck.Test.make ~name:"serialization roundtrip" ~count:100 arb_graph (fun g ->
      let g2 = Reference.load_string (Reference.edge_list g) in
      Graph.num_vertices g = Graph.num_vertices g2
      && Graph.num_edges g = Graph.num_edges g2
      && Graph.edges g = Graph.edges g2)

let () =
  Alcotest.run "graph"
    [ ( "construction",
        [ Alcotest.test_case "basic counts" `Quick test_basic_counts;
          Alcotest.test_case "self-loop degree convention" `Quick test_self_loops_count_one;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "edges roundtrip" `Quick test_iter_edges_roundtrip ] );
      ( "subgraphs",
        [ Alcotest.test_case "induced" `Quick test_induced_subgraph;
          Alcotest.test_case "saturated preserves degrees" `Quick
            test_saturated_subgraph_preserves_degrees;
          Alcotest.test_case "remove_edges adds loops" `Quick test_remove_edges_adds_loops;
          Alcotest.test_case "subset validation" `Quick test_subgraph_rejects_duplicates;
          Alcotest.test_case "empty graph" `Quick test_empty_graph ] );
      ( "metrics",
        [ Alcotest.test_case "cut & conductance" `Quick test_cut_and_conductance;
          Alcotest.test_case "conductance symmetric" `Quick test_conductance_symmetric;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "bfs & diameter" `Quick test_bfs_and_diameter;
          Alcotest.test_case "degeneracy" `Quick test_degeneracy;
          Alcotest.test_case "sparse-cut predicate" `Quick test_sparse_cut_predicate;
          Alcotest.test_case "arboricity bound" `Quick test_arboricity_bound;
          Alcotest.test_case "fold_vertices" `Quick test_fold_vertices_sums_degrees;
          Alcotest.test_case "partition checks" `Quick test_partition_checks;
          Alcotest.test_case "subset diameter" `Quick test_subset_diameter ] );
      ( "serialization",
        [ Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "parse features" `Quick test_io_parse_features;
          Alcotest.test_case "errors" `Quick test_io_errors;
          QCheck_alcotest.to_alcotest prop_io_roundtrip ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_invariants;
          QCheck_alcotest.to_alcotest prop_volume_split;
          QCheck_alcotest.to_alcotest prop_cut_bounded;
          QCheck_alcotest.to_alcotest prop_remove_edges_degree_invariant;
          QCheck_alcotest.to_alcotest prop_saturated_degrees;
          QCheck_alcotest.to_alcotest prop_subgraphs_match_definition;
          QCheck_alcotest.to_alcotest prop_remove_edges_matches_definition;
          QCheck_alcotest.to_alcotest prop_components_partition;
          QCheck_alcotest.to_alcotest prop_bfs_matches_reference ] ) ]
