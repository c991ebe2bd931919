(* Determinism regression tests (the dynamic side of the dex_lint
   rules) and schedule-permutation conformance checks.

   Determinism: rebuilding a graph from a shuffled, endpoint-flipped
   edge list yields the same internal representation (adjacency is
   sorted at build time), so a schedule-insensitive algorithm must
   return bit-identical results on it. A regression here means some
   code path started observing hash order, ambient randomness or
   another representation artifact.

   Conformance: Dex_congest.Conformance replays protocols under a
   permuted activation/delivery schedule; conformant protocols pass,
   and deliberately racy or budget-violating ones are detected. *)

module Graph = Dex_graph.Graph
module Gen = Dex_graph.Generators
module Rng = Dex_util.Rng
module Decomposition = Dex_decomp.Decomposition
module Enum = Dex_triangle.Expander_enum
module Conformance = Dex_congest.Conformance
module Primitives = Dex_congest.Primitives
module Reliable = Dex_congest.Reliable
module Arena = Dex_congest.Arena
module Clustering = Dex_ldd.Clustering

(* shuffled edge list, each edge flipped pseudo-randomly: a different
   presentation of the same graph *)
let permuted_copy seed g =
  let rng = Rng.create seed in
  let edges = Array.of_list (Graph.edges g) in
  Rng.shuffle rng edges;
  let edges = Array.map (fun (u, v) -> if Rng.bool rng then (v, u) else (u, v)) edges in
  Graph.of_edges ~n:(Graph.num_vertices g) (Array.to_list edges)

let test_graph seed =
  let rng = Rng.create seed in
  Gen.connectivize rng (Gen.gnp rng ~n:96 ~p:0.08)

(* ---------- decomposition determinism ---------- *)

let check_same_partition msg a b =
  Alcotest.(check (list (array int)))
    (msg ^ ": parts") a.Decomposition.parts b.Decomposition.parts;
  Alcotest.(check (array int)) (msg ^ ": part_of") a.Decomposition.part_of
    b.Decomposition.part_of;
  Alcotest.(check int) (msg ^ ": rounds") a.Decomposition.stats.Decomposition.rounds
    b.Decomposition.stats.Decomposition.rounds;
  Alcotest.(check int) (msg ^ ": removed edges")
    (List.length a.Decomposition.removed_edges)
    (List.length b.Decomposition.removed_edges)

let test_decompose_repr_independent () =
  let g = test_graph 41 in
  let g' = permuted_copy 42 g in
  let run h = Decomposition.run ~epsilon:(1. /. 6.) ~k:2 h (Rng.create 7) in
  check_same_partition "permuted adjacency" (run g) (run g');
  check_same_partition "same graph twice" (run g) (run g)

let test_decompose_seed_sensitivity_is_sole_source () =
  (* same representation, same seed, three times in a row: any drift
     means hidden global state *)
  let g = test_graph 43 in
  let run () = Decomposition.run ~epsilon:(1. /. 6.) ~k:2 g (Rng.create 11) in
  let a = run () and b = run () and c = run () in
  check_same_partition "run 1 vs 2" a b;
  check_same_partition "run 2 vs 3" b c

(* ---------- triangle enumeration determinism ---------- *)

let tri = Alcotest.(triple int int int)

let test_triangles_repr_independent () =
  let g = test_graph 45 in
  let g' = permuted_copy 46 g in
  let run h = (Enum.run h (Rng.create 9)).Enum.triangles in
  Alcotest.(check (list tri)) "same triangle set" (run g) (run g');
  Alcotest.(check (list tri)) "repeat run" (run g) (run g)

(* ---------- conformance: the kernel's own protocols pass ---------- *)

let small_expander seed = Gen.random_regular (Rng.create seed) ~n:24 ~d:4

let conformant name r =
  Alcotest.(check bool)
    (name ^ ": " ^ String.concat "; " (List.map Conformance.describe r.Conformance.violations))
    true (Conformance.ok r)

(* [Primitives.bfs] breaks ties toward the smaller sender explicitly;
   adopting the first best sender in inbox order instead makes this
   check fail *)
let test_bfs_conformant () =
  let g = small_expander 50 in
  let r =
    Conformance.check g
      ~protocol:(fun () -> Primitives.bfs g ~root:(Dex_graph.Vertex.local 0))
      ()
  in
  conformant "bfs" r;
  Alcotest.(check int) "round counts agree" r.Conformance.rounds_canonical
    r.Conformance.rounds_permuted

let test_leader_conformant () =
  let g = small_expander 51 in
  let r = Conformance.check g ~protocol:(fun () -> Primitives.leader g) () in
  conformant "leader" r;
  Alcotest.(check int) "messages agree" r.Conformance.messages_canonical
    r.Conformance.messages_permuted

(* every kernel protocol in lib/: the Primitives BFS and leader on each
   test graph, the fault-free Reliable flood and MPX clustering *)
let test_kernel_protocols_conformant () =
  List.iter
    (fun (name, g) ->
      let root = Dex_graph.Vertex.local 0 in
      conformant (name ^ " bfs") (Conformance.check g ~protocol:(fun () -> Primitives.bfs g ~root) ());
      conformant (name ^ " leader") (Conformance.check g ~protocol:(fun () -> Primitives.leader g) ());
      conformant (name ^ " reliable bfs")
        (Conformance.check g ~protocol:(fun () -> Reliable.bfs_protocol g ~root) ());
      conformant (name ^ " mpx")
        (Conformance.check g ~protocol:(fun () -> Clustering.protocol g ~beta:0.3 (Rng.create 5)) ()))
    [ ("expander 50", small_expander 50);
      ("expander 51", small_expander 51);
      ("expander 52", small_expander 52);
      ("path 6", Gen.path 6) ]

(* ---------- conformance: races and kernel violations detected ---------- *)

(* adopt the sender of the FIRST inbox message: delivery-order
   dependent by construction *)
let racy_protocol g () =
  let step ~round ~vertex:v got ib ob =
    let v = Dex_graph.Vertex.local_int v in
    if round = 1 then
      Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Dex_graph.Vertex.local u) v);
    let got = ref got in
    Arena.Inbox.iter1 ib (fun sender _ -> if !got < 0 then got := sender);
    !got
  in
  { Conformance.init = (fun _ -> -1); step }

let test_race_detected () =
  let g = small_expander 52 in
  let r = Conformance.check g ~protocol:(racy_protocol g) () in
  Alcotest.(check bool) "race reported" true
    (List.exists
       (function Conformance.State_divergence _ -> true | _ -> false)
       r.Conformance.violations)

(* every vertex makes [per_vertex v]'s sends in round 1 *)
let one_shot per_vertex () =
  let step ~round ~vertex:v () _ib ob =
    if round = 1 then
      List.iter
        (fun (u, w) -> Arena.Outbox.send1 ob ~dst:(Dex_graph.Vertex.local u) w)
        (per_vertex (Dex_graph.Vertex.local_int v))
  in
  { Conformance.init = (fun _ -> ()); step }

let test_duplicate_edge_audited () =
  let g = small_expander 54 in
  let twice v =
    let u = (Graph.neighbors g v).(0) in
    [ (u, v); (u, v) ]
  in
  let r = Conformance.check g ~protocol:(one_shot twice) () in
  Alcotest.(check bool) "duplicate directed edge reported" true
    (List.exists
       (function
         | Conformance.Kernel { violation = Arena.Duplicate_edge _; _ } -> true
         | _ -> false)
       r.Conformance.violations)

let test_non_neighbor_audited () =
  let g = Gen.path 6 in
  let far v = [ ((v + 3) mod 6, v) ] in
  let r = Conformance.check g ~protocol:(one_shot far) () in
  Alcotest.(check bool) "non-neighbor send reported" true
    (List.exists
       (function
         | Conformance.Kernel { violation = Arena.Not_a_neighbor _; _ } -> true
         | _ -> false)
       r.Conformance.violations)

let test_describe_covers_all () =
  let open Conformance in
  let vs =
    [ Kernel { run = Permuted; round = 1; violation = Arena.Duplicate_edge { vertex = 2; dst = 3 } };
      Kernel { run = Canonical; round = 1; violation = Arena.Not_a_neighbor { vertex = 2; dst = 3 } };
      Round_limit { run = Permuted; executed = 9 };
      State_divergence
        { round = 1; vertex = 2; digest_canonical = 3; digest_permuted = 4 };
      Round_divergence { rounds_canonical = 5; rounds_permuted = 6 } ]
  in
  List.iter (fun v -> Alcotest.(check bool) "non-empty" true (describe v <> "")) vs

let () =
  Alcotest.run "determinism"
    [ ( "representation-independence",
        [ Alcotest.test_case "decomposition" `Quick test_decompose_repr_independent;
          Alcotest.test_case "decomposition repeat" `Quick
            test_decompose_seed_sensitivity_is_sole_source;
          Alcotest.test_case "triangle enumeration" `Quick
            test_triangles_repr_independent ] );
      ( "conformance",
        [ Alcotest.test_case "bfs passes" `Quick test_bfs_conformant;
          Alcotest.test_case "leader passes" `Quick test_leader_conformant;
          Alcotest.test_case "kernel protocols pass" `Quick test_kernel_protocols_conformant;
          Alcotest.test_case "schedule race detected" `Quick test_race_detected;
          Alcotest.test_case "duplicate edge audited" `Quick test_duplicate_edge_audited;
          Alcotest.test_case "non-neighbor audited" `Quick test_non_neighbor_audited;
          Alcotest.test_case "describe" `Quick test_describe_covers_all ] ) ]
