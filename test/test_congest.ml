(* Tests for the CONGEST kernel: the rounds ledger, message delivery,
   the congestion discipline (failure injection), the executed
   primitives (BFS tree, leader election), subgraph networks and the
   congested clique as a network over K_n. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Vertex = Dex_graph.Vertex
module Rounds = Dex_congest.Rounds
module Network = Dex_congest.Network
module Primitives = Dex_congest.Primitives
module Arena = Dex_congest.Arena
module Rng = Dex_util.Rng

let fresh_net g = Network.create g (Rounds.create ())

(* ---------- rounds ledger ---------- *)

let test_rounds_ledger () =
  let r = Rounds.create () in
  Alcotest.(check int) "empty" 0 (Rounds.total r);
  Rounds.charge r ~label:"a" 3;
  Rounds.charge r ~label:"b" 5;
  Rounds.charge r ~label:"a" 2;
  Alcotest.(check int) "total" 10 (Rounds.total r);
  (* equal costs are ordered by label — deterministic across runs *)
  Alcotest.(check (list (pair string int))) "by phase" [ ("a", 5); ("b", 5) ]
    (Rounds.by_phase r);
  Rounds.charge r ~label:"zz" 7;
  Alcotest.(check (list (pair string int))) "by phase sorted" [ ("zz", 7); ("a", 5); ("b", 5) ]
    (Rounds.by_phase r);
  Alcotest.check_raises "negative"
    (Dex_util.Invariant.Violation { where = "Rounds.charge"; what = "negative round count" })
    (fun () -> Rounds.charge r ~label:"x" (-1))

(* by_phase is derived from the span tree: a label charged under two
   spans sums over both, a label charged 0 rounds is still listed, and
   a name used as both a span and a label counts only its charges *)
let test_by_phase_from_spans () =
  let r = Rounds.create () in
  let made = ref [] in
  let charge label k =
    made := (label, k) :: !made;
    Rounds.charge r ~label k
  in
  Rounds.span (Some r) "a" (fun () ->
      charge "x" 3;
      charge "idle" 0);
  Rounds.span (Some r) "b" (fun () ->
      charge "x" 4;
      Rounds.span (Some r) "c" (fun () -> charge "y" 2));
  charge "a" 1;
  charge "y" 5;
  let expected =
    List.fold_left
      (fun acc (label, k) ->
        let prev = Option.value (List.assoc_opt label acc) ~default:0 in
        (label, prev + k) :: List.remove_assoc label acc)
      [] (List.rev !made)
    |> List.sort (fun (la, a) (lb, b) ->
           if a <> b then Int.compare b a else String.compare la lb)
  in
  Alcotest.(check (list (pair string int)))
    "fold over the charges" [ ("x", 7); ("y", 7); ("a", 1); ("idle", 0) ] expected;
  Alcotest.(check (list (pair string int))) "by phase" expected (Rounds.by_phase r)

(* ---------- message passing ---------- *)

(* a 2-round protocol: round 1 everyone sends its id+100 to neighbors;
   round 2 everyone records the max received *)
let test_basic_exchange () =
  let g = Gen.cycle 5 in
  let net = fresh_net g in
  let step ~round ~vertex st ib ob =
    let vertex = Vertex.local_int vertex in
    if round = 1 then begin
      Graph.iter_neighbors g vertex (fun u ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local u) (vertex + 100));
      st
    end
    else begin
      let best = ref st in
      Arena.Inbox.iter1 ib (fun _ w -> best := max !best w);
      !best
    end
  in
  let states = Network.run_active_rounds net ~label:"exchange" ~init:(fun _ -> -1) ~step 2 in
  Alcotest.(check int) "vertex 0 saw 104" 104 states.(0);
  Alcotest.(check int) "vertex 2 saw 103" 103 states.(2);
  Alcotest.(check int) "messages" 10 (Network.messages_sent net);
  Alcotest.(check int) "rounds charged" 2 (Rounds.total (Network.rounds net))

(* ---------- failure injection: the congestion discipline ---------- *)

let expect_congestion f =
  match f () with
  | exception Network.Congestion_violation _ -> ()
  | _ -> Alcotest.fail "expected Congestion_violation"

(* one round in which vertex 0 makes the given sends *)
let vertex0_sends net sends =
  Network.run_active_rounds net ~label:"bad"
    ~init:(fun _ -> ())
    ~step:(fun ~round:_ ~vertex () _ib ob ->
      if Vertex.local_int vertex = 0 then
        List.iter (fun (u, w) -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) w) sends)
    1

let test_rejects_non_neighbor () =
  let net = fresh_net (Gen.path 3) in
  expect_congestion (fun () -> vertex0_sends net [ (2, 1) ])

let test_rejects_double_send () =
  let net = fresh_net (Gen.path 3) in
  expect_congestion (fun () -> vertex0_sends net [ (1, 1); (1, 2) ])

let test_rejects_self_message () =
  let net = fresh_net (Graph.of_edges ~n:2 [ (0, 1); (0, 0) ]) in
  expect_congestion (fun () -> vertex0_sends net [ (0, 1) ])

let test_run_timeout () =
  let g = Gen.path 3 in
  let net = fresh_net g in
  match
    Network.run_active net ~label:"never"
      ~init:(fun _ -> ())
      ~step:(fun ~round:_ ~vertex:_ st _ib ob -> Arena.Outbox.wake ob; st)
      ~max_rounds:10 ()
  with
  | exception Network.Round_limit_exceeded { label; max_rounds; executed } ->
    Alcotest.(check string) "label" "never" label;
    Alcotest.(check int) "max_rounds" 10 max_rounds;
    Alcotest.(check int) "executed" 10 executed;
    (* the partial rounds were really executed: the ledger must say so *)
    Alcotest.(check int) "partial rounds charged" 10 (Rounds.total (Network.rounds net))
  | _ -> Alcotest.fail "expected Round_limit_exceeded"

(* ---------- primitives ---------- *)

let test_bfs_tree_matches_metrics () =
  let rng = Rng.create 12 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.08) in
  let net = fresh_net g in
  let tree = Reference.bfs_tree net ~root:(Vertex.local 0) in
  let reference = Metrics.bfs_distances g 0 in
  Alcotest.(check (array int)) "depths equal BFS distances" reference tree.Primitives.depth;
  Alcotest.(check int) "root parent" 0 tree.Primitives.parent.(0);
  (* parent is one step closer *)
  Array.iteri
    (fun v d ->
      if v <> 0 && d <> max_int then
        Alcotest.(check int) "parent depth" (d - 1) tree.Primitives.depth.(tree.Primitives.parent.(v)))
    tree.Primitives.depth;
  Alcotest.(check int) "members count" 40 (Array.length tree.Primitives.members);
  Alcotest.(check bool) "rounds ≈ height" true
    (Rounds.total (Network.rounds net) >= tree.Primitives.height)

let test_bfs_tree_partial_component () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2) ] in
  let net = fresh_net g in
  let tree = Reference.bfs_tree net ~root:(Vertex.local 0) in
  Alcotest.(check int) "component size" 3 (Array.length tree.Primitives.members);
  Alcotest.(check int) "outside parent" (-1) tree.Primitives.parent.(4)

let test_leader_election () =
  let g = Graph.of_edges ~n:6 [ (3, 4); (4, 5); (1, 2) ] in
  let net = fresh_net g in
  let leaders = Reference.elect_leader net in
  Alcotest.(check int) "comp {3,4,5}" 3 leaders.(5);
  Alcotest.(check int) "comp {1,2}" 1 leaders.(2);
  Alcotest.(check int) "isolated" 0 leaders.(0)

(* a network on the induced subgraph G[members] over [net]'s ledger,
   reporting in [net]'s coordinates: how Decomposition hands a
   subgraph to LDD *)
let subnetwork net members =
  let sub, mapping = Graph.induced_subgraph (Network.graph net) members in
  let mapping = Vertex.Map.of_array mapping in
  (Network.create ~vertex_map:mapping sub (Network.rounds net), mapping)

let test_subnetwork () =
  let g = Gen.cycle 6 in
  let net = fresh_net g in
  let sub, mapping = subnetwork net [| 0; 1; 2 |] in
  Alcotest.(check int) "sub size" 3 (Graph.num_vertices (Network.graph sub));
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] (mapping :> int array);
  Alcotest.(check int) "get translates one id" 2 (Vertex.orig_int (Vertex.Map.get mapping 2));
  (* shared ledger *)
  Network.charge sub ~label:"x" 4;
  Alcotest.(check int) "ledger shared" 4 (Rounds.total (Network.rounds net))

let test_subnetwork_violation_reports_original_id () =
  (* a send to a non-neighbour inside a subnetwork must be reported in
     the original graph's coordinates, not the subnetwork-local ones *)
  let g = Gen.cycle 6 in
  let net = fresh_net g in
  let sub, _mapping = subnetwork net [| 3; 4; 5 |] in
  (match vertex0_sends sub [ (2, 1) ] with
  | exception Network.Congestion_violation { violation; _ } ->
    let msg = Arena.describe violation in
    (* local vertex 0 is original vertex 3 *)
    Alcotest.(check bool)
      (Printf.sprintf "mentions original id 3: %S" msg)
      true
      (String.length msg >= 8 && String.sub msg 0 8 = "vertex 3")
  | _ -> Alcotest.fail "expected Congestion_violation")

(* a protocol on a subnetwork that addresses an id outside it (n' or
   -1) is a congestion violation, not an out-of-bounds lookup while
   formatting the message *)
let test_subnetwork_out_of_range_id () =
  let g = Gen.cycle 6 in
  let net = fresh_net g in
  let sub, _mapping = subnetwork net [| 3; 4; 5 |] in
  List.iter
    (fun bad ->
      match vertex0_sends sub [ (bad, 1) ] with
      | exception Network.Congestion_violation { violation; _ } ->
        Alcotest.(check string)
          (Printf.sprintf "destination %d" bad)
          (Printf.sprintf "vertex 3: %d is not a neighbor" bad)
          (Arena.describe violation)
      | _ -> Alcotest.failf "destination %d: expected Congestion_violation" bad)
    [ 3; -1 ]

(* ---------- congested clique: a network over K_n ---------- *)

let test_clique_exchange () =
  (* round 1: everyone sends its id to everyone; round 2: record sum *)
  let net = fresh_net (Gen.complete 5) in
  let step ~round ~vertex st ib ob =
    let vertex = Vertex.local_int vertex in
    if round = 1 then begin
      for u = 0 to 4 do
        if u <> vertex then Arena.Outbox.send1 ob ~dst:(Vertex.local u) vertex
      done;
      st
    end
    else begin
      let sum = ref st in
      Arena.Inbox.iter1 ib (fun _ w -> sum := !sum + w);
      !sum
    end
  in
  let states = Network.run_active_rounds net ~label:"clique" ~init:(fun _ -> 0) ~step 2 in
  (* vertex v receives all ids but its own: sum = 10 - v *)
  Array.iteri (fun v s -> Alcotest.(check int) "sum" (10 - v) s) states;
  Alcotest.(check int) "messages" 20 (Network.messages_sent net);
  Alcotest.(check int) "rounds" 2 (Rounds.total (Network.rounds net))

let test_clique_rejects_self_and_double () =
  let attempt sends =
    expect_congestion (fun () -> vertex0_sends (fresh_net (Gen.complete 3)) sends)
  in
  attempt [ (0, 1) ];
  attempt [ (1, 1); (1, 2) ];
  attempt [ (3, 1) ]

let prop_bfs_depth_eq_distance =
  QCheck.Test.make ~name:"protocol BFS = centralized BFS" ~count:40
    QCheck.(pair (Reference.int_range 2 30) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.15) in
      let net = fresh_net g in
      let tree = Reference.bfs_tree net ~root:(Vertex.local (seed mod n)) in
      tree.Primitives.depth = Metrics.bfs_distances g (seed mod n))

let () =
  Alcotest.run "congest"
    [ ( "ledger",
        [ Alcotest.test_case "rounds ledger" `Quick test_rounds_ledger;
          Alcotest.test_case "by_phase from spans" `Quick test_by_phase_from_spans ] );
      ( "kernel",
        [ Alcotest.test_case "basic exchange" `Quick test_basic_exchange;
          Alcotest.test_case "rejects non-neighbor" `Quick test_rejects_non_neighbor;
          Alcotest.test_case "rejects double send" `Quick test_rejects_double_send;
          Alcotest.test_case "rejects self message" `Quick test_rejects_self_message;
          Alcotest.test_case "run timeout" `Quick test_run_timeout ] );
      ( "primitives",
        [ Alcotest.test_case "bfs tree" `Quick test_bfs_tree_matches_metrics;
          Alcotest.test_case "bfs partial component" `Quick test_bfs_tree_partial_component;
          Alcotest.test_case "leader election" `Quick test_leader_election;
          Alcotest.test_case "subnetwork" `Quick test_subnetwork;
          Alcotest.test_case "subnetwork violation original ids" `Quick
            test_subnetwork_violation_reports_original_id;
          Alcotest.test_case "subnetwork out-of-range id" `Quick
            test_subnetwork_out_of_range_id;
          QCheck_alcotest.to_alcotest prop_bfs_depth_eq_distance ] );
      ( "clique",
        [ Alcotest.test_case "all-to-all exchange" `Quick test_clique_exchange;
          Alcotest.test_case "congestion rejections" `Quick
            test_clique_rejects_self_and_double ] ) ]
