(* Tests for the fault-injection layer and the reliable-delivery
   primitives: fault-schedule determinism (same seed => identical
   trace and identical algorithm output), drop/duplication semantics,
   retry exhaustion, and the honest ledger accounting of lossy runs. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Vertex = Dex_graph.Vertex
module Rounds = Dex_congest.Rounds
module Network = Dex_congest.Network
module Faults = Dex_congest.Faults
module Reliable = Dex_congest.Reliable
module Primitives = Dex_congest.Primitives
module Arena = Dex_congest.Arena
module Rng = Dex_util.Rng

let lossy_net faults g = (Network.create ~faults g (Rounds.create ()), faults)

(* ---------- fault-schedule determinism ---------- *)

let run_lossy_bfs seed =
  let rng = Rng.create 5 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.12) in
  let net, faults = lossy_net (Faults.create ~drop:0.15 ~duplicate:0.05 ~seed) g in
  let log = Reference.fault_log faults in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  (tree.Primitives.depth, log (), Faults.drops faults,
   Rounds.total (Network.rounds net), Network.messages_sent net)

let test_fault_determinism () =
  let d1, t1, n1, r1, m1 = run_lossy_bfs 1234 in
  let d2, t2, n2, r2, m2 = run_lossy_bfs 1234 in
  Alcotest.(check (array int)) "same output" d1 d2;
  Alcotest.(check bool) "same fault trace" true (t1 = t2);
  Alcotest.(check int) "same drop count" n1 n2;
  Alcotest.(check int) "same rounds" r1 r2;
  Alcotest.(check int) "same messages" m1 m2;
  (* a different seed gives a different adversary *)
  let _, t3, _, _, _ = run_lossy_bfs 99 in
  Alcotest.(check bool) "different seed, different trace" false (t1 = t3)

let test_zero_probability_is_fault_free () =
  let rng = Rng.create 6 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:25 ~p:0.15) in
  let plain = Network.create g (Rounds.create ()) in
  let reference = Reference.bfs_tree plain ~root:(Vertex.local 0) in
  let net, faults = lossy_net (Faults.create ~drop:0.0 ~duplicate:0.0 ~seed:7) g in
  let log = Reference.fault_log faults in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  Alcotest.(check (array int)) "depths" reference.Primitives.depth tree.Primitives.depth;
  Alcotest.(check int) "no drops" 0 (Faults.drops faults);
  Alcotest.(check bool) "empty trace" true (log () = [])

(* ---------- reliable primitives under message loss ---------- *)

let test_reliable_bfs_under_drops () =
  let rng = Rng.create 8 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.1) in
  let net, faults = lossy_net (Faults.create ~drop:0.2 ~duplicate:0.1 ~seed:3) g in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  Alcotest.(check (array int)) "depths equal BFS distances"
    (Metrics.bfs_distances g 0) tree.Primitives.depth;
  Alcotest.(check bool) "faults actually fired" true (Faults.drops faults > 0)

let test_reliable_bfs_fault_free_matches () =
  let rng = Rng.create 9 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.12) in
  let net = Network.create g (Rounds.create ()) in
  let tree = Reliable.bfs_tree net ~root:(Vertex.local 3) in
  Alcotest.(check (array int)) "depths" (Metrics.bfs_distances g 3) tree.Primitives.depth;
  Alcotest.(check int) "root parent" 3 tree.Primitives.parent.(3);
  Array.iteri
    (fun v d ->
      if v <> 3 && d <> max_int then
        Alcotest.(check int) "parent one step closer" (d - 1)
          tree.Primitives.depth.(tree.Primitives.parent.(v)))
    tree.Primitives.depth

let test_reliable_leader_under_drops () =
  let rng = Rng.create 10 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:35 ~p:0.1) in
  let net, _ = lossy_net (Faults.create ~drop:0.25 ~duplicate:0.0 ~seed:11) g in
  let leaders = Reliable.elect_leader net in
  Array.iteri (fun v l -> Alcotest.(check int) (Printf.sprintf "leader of %d" v) 0 l) leaders

let test_reliable_rounds_overhead_charged () =
  (* lossy runs must cost more rounds than fault-free ones, and the
     ledger must carry the difference under the protocol label *)
  let rng = Rng.create 12 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.1) in
  let base = Network.create g (Rounds.create ()) in
  let _ = Reliable.bfs_tree base ~root:(Vertex.local 0) in
  let base_rounds = List.assoc "bfs-reliable" (Rounds.by_phase (Network.rounds base)) in
  let net, _ = lossy_net (Faults.create ~drop:0.3 ~duplicate:0.0 ~seed:13) g in
  let _ = Reliable.bfs_tree net ~root:(Vertex.local 0) in
  let lossy_rounds = List.assoc "bfs-reliable" (Rounds.by_phase (Network.rounds net)) in
  Alcotest.(check bool)
    (Printf.sprintf "lossy %d >= fault-free %d" lossy_rounds base_rounds)
    true (lossy_rounds >= base_rounds)

(* ---------- retry exhaustion ---------- *)

(* a schedule that drops everything: vertex 0's first offer to 1 is
   never acknowledged, so it exhausts its budget *)
let test_exhaustion_fails_delivery () =
  let g = Gen.path 3 in
  let faults = Faults.create ~drop:1.0 ~duplicate:0.0 ~seed:1 in
  let net = Network.create ~faults g (Rounds.create ()) in
  let log = Reference.fault_log faults in
  (match Reliable.bfs_tree ~max_retries:5 net ~root:(Vertex.local 0) with
  | exception Reliable.Delivery_failed { vertex; neighbor; attempts; _ } ->
    Alcotest.(check int) "failing vertex" 0 vertex;
    Alcotest.(check int) "unreachable neighbor" 1 neighbor;
    Alcotest.(check int) "attempts = budget" 5 attempts
  | _ -> Alcotest.fail "expected Delivery_failed");
  (* the failed run still charged its rounds *)
  Alcotest.(check bool) "rounds charged" true (Rounds.total (Network.rounds net) > 0);
  (* the trace shows each lost transmission *)
  Alcotest.(check int) "five drops recorded" 5
    (List.length
       (List.filter
          (function Faults.Drop { src = 0; dst = 1; _ } -> true | _ -> false)
          (log ())))

(* ---------- congestion discipline still enforced under faults ---------- *)

let test_validation_precedes_faults () =
  (* even an adversary that drops everything does not excuse a
     congestion violation: validation happens before fault application *)
  let g = Gen.path 3 in
  let faults = Faults.create ~drop:1.0 ~duplicate:0.0 ~seed:2 in
  let net = Network.create ~faults g (Rounds.create ()) in
  (match
     Network.run_active_rounds net ~label:"bad"
       ~init:(fun _ -> ())
       ~step:(fun ~round:_ ~vertex st _ib ob ->
         if Vertex.local_int vertex = 0 then begin
           Arena.Outbox.send1 ob ~dst:(Vertex.local 1) 1;
           Arena.Outbox.send1 ob ~dst:(Vertex.local 1) 2
         end;
         st)
       1
   with
  | exception Network.Congestion_violation _ -> ()
  | _ -> Alcotest.fail "expected Congestion_violation")

let test_drop_everything_counts () =
  let g = Gen.cycle 5 in
  let faults = Faults.create ~drop:1.0 ~duplicate:0.0 ~seed:3 in
  let net = Network.create ~faults g (Rounds.create ()) in
  let step ~round ~vertex st _ib ob =
    let vertex = Vertex.local_int vertex in
    if round = 1 then
      Graph.iter_neighbors g vertex (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) vertex);
    st
  in
  let _ = Network.run_active_rounds net ~label:"flood" ~init:(fun _ -> 0) ~step 2 in
  Alcotest.(check int) "all 10 sends dropped" 10 (Faults.drops faults);
  Alcotest.(check int) "nothing delivered" 0 (Network.messages_sent net)

let test_duplicates_counted () =
  let g = Gen.path 2 in
  let faults = Faults.create ~drop:0.0 ~duplicate:1.0 ~seed:4 in
  let net = Network.create ~faults g (Rounds.create ()) in
  let step ~round ~vertex st _ib ob =
    if round = 1 && Vertex.local_int vertex = 0 then
      Arena.Outbox.send1 ob ~dst:(Vertex.local 1) 7;
    st
  in
  let _ = Network.run_active_rounds net ~label:"dup" ~init:(fun _ -> 0) ~step 2 in
  Alcotest.(check int) "one duplicate" 1 (Faults.duplicates faults);
  Alcotest.(check int) "delivered twice" 2 (Network.messages_sent net)

(* ---------- property: reliable BFS = centralized BFS under loss ---------- *)

let prop_reliable_bfs_under_loss =
  QCheck.Test.make ~name:"reliable BFS = centralized BFS under 15% loss" ~count:25
    QCheck.(pair (Reference.int_range 2 25) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.15) in
      let faults = Faults.create ~drop:0.15 ~duplicate:0.05 ~seed in
      let net = Network.create ~faults g (Rounds.create ()) in
      let tree = Reliable.bfs_tree net ~root:(Vertex.local (seed mod n)) in
      tree.Primitives.depth = Metrics.bfs_distances g (seed mod n))

(* ---------- goldens: Reliable outputs pinned at the list-API kernel ---------- *)

(* One line per run: the tree or leaders, the ledger, the traffic, the
   adversary's counters and a digest of its full trace. Recorded when
   Reliable ran on the list API (every live vertex stepped every
   round), and unchanged by its port to cursors; the two exhaustion
   lines were recorded before the schedule lost its crash-stop and
   link-failure classes. *)
let fault_repr = function
  | Faults.Drop { round; src; dst } -> Printf.sprintf "drop@%d:%d->%d" round src dst
  | Faults.Duplicate { round; src; dst } -> Printf.sprintf "dup@%d:%d->%d" round src dst

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let golden_line ?faults ?max_retries g run =
  let net = Network.create ?faults g (Rounds.create ()) in
  let log = Option.map Reference.fault_log faults in
  let result =
    match run ?max_retries net with
    | `Tree (t : Primitives.tree) ->
      Printf.sprintf "depth=%s parent=%s"
        (ints (Array.map (fun d -> if d = max_int then -1 else d) t.Primitives.depth))
        (ints t.Primitives.parent)
    | `Leaders l -> "leaders=" ^ ints l
    | exception Reliable.Delivery_failed { label; vertex; neighbor; value; attempts } ->
      Printf.sprintf "failed=%s:%d->%d value %d after %d" label vertex neighbor value attempts
  in
  let phases =
    String.concat ","
      (List.map (fun (l, r) -> Printf.sprintf "%s:%d" l r) (Rounds.by_phase (Network.rounds net)))
  in
  let trace = match log with Some log -> List.map fault_repr (log ()) | None -> [] in
  Printf.sprintf "%s rounds=%s msgs=%d words=%d drops=%d dups=%d trace=%d:%s" result phases
    (Network.messages_sent net) (Network.messages_sent net)
    (match faults with Some f -> Faults.drops f | None -> 0)
    (match faults with Some f -> Faults.duplicates f | None -> 0)
    (List.length trace)
    (Digest.to_hex (Digest.string (String.concat ";" trace)))

let bfs root ?max_retries net = `Tree (Reliable.bfs_tree ?max_retries net ~root:(Vertex.local root))
let leader ?max_retries net = `Leaders (Reliable.elect_leader ?max_retries net)

let golden_gnp seed n p =
  let rng = Rng.create seed in
  Gen.connectivize rng (Gen.gnp rng ~n ~p)

let golden_cases =
  [ ("bfs fault-free", fun () -> golden_line (golden_gnp 9 24 0.15) (bfs 3));
    ("leader fault-free", fun () -> golden_line (golden_gnp 9 24 0.15) leader);
    ( "bfs lossy",
      fun () ->
        golden_line ~faults:(Faults.create ~drop:0.15 ~duplicate:0.05 ~seed:21)
          (golden_gnp 21 24 0.15) (bfs 0) );
    ( "leader lossy",
      fun () ->
        golden_line ~faults:(Faults.create ~drop:0.15 ~duplicate:0.05 ~seed:22)
          (golden_gnp 22 24 0.15) leader );
    ( "bfs lossy exhausts",
      fun () ->
        golden_line ~faults:(Faults.create ~drop:0.15 ~duplicate:0.05 ~seed:25) ~max_retries:3
          (golden_gnp 25 20 0.2) (bfs 0) );
    ( "bfs drop-all exhausts",
      fun () ->
        golden_line ~faults:(Faults.create ~drop:1.0 ~duplicate:0.0 ~seed:1) ~max_retries:4
          (Gen.path 3) (bfs 0) );
    ("bfs single vertex", fun () -> golden_line (Graph.of_edges ~n:1 []) (bfs 0));
    ("bfs isolated root", fun () -> golden_line (Graph.of_edges ~n:3 [ (1, 2) ]) (bfs 0));
    ("leader edgeless", fun () -> golden_line (Graph.of_edges ~n:4 []) leader) ]

let goldens =
  [ ("bfs fault-free", "depth=2,3,2,0,4,4,2,2,4,4,7,6,3,4,3,4,1,5,3,4,4,3,4,5 parent=16,2,16,3,21,18,16,16,1,18,11,17,7,21,7,18,3,19,7,21,18,6,18,22 rounds=bfs-reliable:11 msgs=234 words=234 drops=0 dups=0 trace=0:d41d8cd98f00b204e9800998ecf8427e");
    ("leader fault-free", "leaders=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0 rounds=leader-reliable:9 msgs=396 words=396 drops=0 dups=0 trace=0:d41d8cd98f00b204e9800998ecf8427e");
    ("bfs lossy", "depth=0,1,3,1,2,2,1,2,1,1,2,3,1,2,1,2,2,2,3,3,2,2,4,2 parent=0,0,17,0,8,12,0,3,0,0,9,17,0,1,0,8,6,6,16,15,9,6,19,1 rounds=bfs-reliable:12 msgs=284 words=284 drops=48 dups=10 trace=58:1c1d6d3221fe92ae6e28960dc795edb0");
    ("leader lossy", "leaders=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0 rounds=leader-reliable:9 msgs=420 words=420 drops=78 dups=21 trace=99:58187beec4f73a069683d1f49407f047");
    ("bfs lossy exhausts", "failed=bfs-reliable:18->17 value 1 after 3 rounds=bfs-reliable:10 msgs=245 words=245 drops=30 dups=9 trace=39:f051d3ae1756f8c141f3d09263ab1f2c");
    ("bfs drop-all exhausts", "failed=bfs-reliable:0->1 value 0 after 4 rounds=bfs-reliable:5 msgs=0 words=0 drops=4 dups=0 trace=4:55569db44eadeeb70c16ed707bb068e5");
    ("bfs single vertex", "depth=0 parent=0 rounds=bfs-reliable:0 msgs=0 words=0 drops=0 dups=0 trace=0:d41d8cd98f00b204e9800998ecf8427e");
    ("bfs isolated root", "depth=0,-1,-1 parent=0,-1,-1 rounds=bfs-reliable:0 msgs=0 words=0 drops=0 dups=0 trace=0:d41d8cd98f00b204e9800998ecf8427e");
    ("leader edgeless", "leaders=0,1,2,3 rounds=leader-reliable:0 msgs=0 words=0 drops=0 dups=0 trace=0:d41d8cd98f00b204e9800998ecf8427e") ]

let test_goldens () =
  List.iter
    (fun (name, run) -> Alcotest.(check string) name (List.assoc name goldens) (run ()))
    golden_cases

let () =
  Alcotest.run "faults"
    [ ( "schedule",
        [ Alcotest.test_case "deterministic from seed" `Quick test_fault_determinism;
          Alcotest.test_case "p=0 is fault-free" `Quick test_zero_probability_is_fault_free;
          Alcotest.test_case "drop everything" `Quick test_drop_everything_counts;
          Alcotest.test_case "duplicates counted" `Quick test_duplicates_counted ] );
      ( "reliable",
        [ Alcotest.test_case "bfs under drops" `Quick test_reliable_bfs_under_drops;
          Alcotest.test_case "bfs fault-free" `Quick test_reliable_bfs_fault_free_matches;
          Alcotest.test_case "leader under drops" `Quick test_reliable_leader_under_drops;
          Alcotest.test_case "overhead charged" `Quick test_reliable_rounds_overhead_charged;
          Alcotest.test_case "goldens" `Quick test_goldens;
          QCheck_alcotest.to_alcotest prop_reliable_bfs_under_loss ] );
      ( "failures",
        [ Alcotest.test_case "link failure raises" `Quick test_exhaustion_fails_delivery;
          Alcotest.test_case "validation precedes faults" `Quick test_validation_precedes_faults ] ) ]
