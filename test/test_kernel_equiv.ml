(* Cross-kernel equivalence suite: the Legacy, Staged and Parallel
   executors must be observationally identical on the list API —
   same per-round state digests, same round counts, same message/word
   ledgers, same fault traces — and the arena-backed cursor driver
   must agree with itself across executors and with the graph-theoretic
   ground truth. This is the oracle the perf work is certified
   against (ISSUE 5 acceptance: bit-identical Conformance digests). *)

module Graph = Dex_graph.Graph
module Generators = Dex_graph.Generators
module Metrics = Dex_graph.Metrics
module Vertex = Dex_graph.Vertex
module Rng = Dex_util.Rng
module Network = Dex_congest.Network
module Faults = Dex_congest.Faults
module Rounds = Dex_congest.Rounds
module Primitives = Dex_congest.Primitives
module Conformance = Dex_congest.Conformance
module Arena = Dex_congest.Arena
module Invariant = Dex_util.Invariant

let seeds = [ 1; 2; 3 ]

let executors =
  [ ("legacy", Network.Legacy);
    ("staged", Network.Staged);
    ("parallel-2", Network.Parallel 2) ]

(* ---------- observation record ---------- *)

type obs = {
  final_digest : int;
  per_round : (int * int) list; (* (round, state digest) after each round *)
  rounds : int;
  messages : int;
  words : int;
  fault_log : string list;
  drops : int;
  dups : int;
}

let fault_repr = function
  | Faults.Drop { round; src; dst } -> Printf.sprintf "drop@%d:%d->%d" round src dst
  | Faults.Duplicate { round; src; dst } ->
    Printf.sprintf "dup@%d:%d->%d" round src dst
  | Faults.Link_down { round; u; v } -> Printf.sprintf "link@%d:%d-%d" round u v
  | Faults.Crash { round; vertex } -> Printf.sprintf "crash@%d:%d" round vertex

let observe ?spec ~executor g runner =
  let faults = Option.map Faults.create spec in
  (* shard_min 0: let [Parallel _] spawn domains even on these small
     graphs, so the sharded Phase A is what the suite actually checks *)
  let net = Network.create ?faults ~executor ~shard_min:0 g (Rounds.create ()) in
  let per_round = ref [] in
  let on_round round states =
    per_round := (round, Conformance.default_digest states) :: !per_round
  in
  let states, rounds = runner g net on_round in
  { final_digest = Conformance.default_digest states;
    per_round = List.rev !per_round;
    rounds;
    messages = Network.messages_sent net;
    words = Network.words_sent net;
    fault_log =
      (match faults with Some f -> List.map fault_repr (Faults.trace f) | None -> []);
    drops = (match faults with Some f -> Faults.drops f | None -> 0);
    dups = (match faults with Some f -> Faults.duplicates f | None -> 0) }

let check_same name base o =
  Alcotest.(check int) (name ^ " rounds") base.rounds o.rounds;
  Alcotest.(check int) (name ^ " final digest") base.final_digest o.final_digest;
  Alcotest.(check (list (pair int int)))
    (name ^ " per-round digests") base.per_round o.per_round;
  Alcotest.(check int) (name ^ " messages") base.messages o.messages;
  Alcotest.(check int) (name ^ " words") base.words o.words;
  Alcotest.(check (list string)) (name ^ " fault trace") base.fault_log o.fault_log;
  Alcotest.(check int) (name ^ " drops") base.drops o.drops;
  Alcotest.(check int) (name ^ " duplicates") base.dups o.dups

let equivalent ~workload ?spec make_graph runner () =
  List.iter
    (fun seed ->
      let g = make_graph seed in
      let spec = Option.map (fun f -> f seed) spec in
      let base = observe ?spec ~executor:Network.Legacy g runner in
      List.iter
        (fun (ename, e) ->
          let o = observe ?spec ~executor:e g runner in
          check_same (Printf.sprintf "%s seed %d %s" workload seed ename) base o)
        executors)
    seeds

(* ---------- list-API workloads ---------- *)

let bfs_runner g net on_round =
  let init v = if v = 0 then (0, 0, true) else (max_int, -1, false) in
  let step ~round:_ ~vertex st inbox =
    let v = Vertex.local_int vertex in
    let dist, par, pending = st in
    let dist, par, pending =
      if dist = max_int then
        List.fold_left
          (fun (d0, p0, pend) (sender, (msg : int array)) ->
            let d = msg.(0) + 1 in
            if d < d0 then (d, sender, true) else (d0, p0, pend))
          (dist, par, pending) inbox
      else (dist, par, pending)
    in
    if pending then begin
      let out = ref [] in
      Graph.iter_neighbors g v (fun u -> out := (u, [| dist |]) :: !out);
      ((dist, par, false), !out)
    end
    else ((dist, par, false), [])
  in
  let finished states = Array.for_all (fun (_, _, p) -> not p) states in
  Network.run net ~label:"bfs" ~init ~step ~finished ~on_round ()

let leader_runner g net on_round =
  let init v = (v, true) in
  let step ~round:_ ~vertex st inbox =
    let v = Vertex.local_int vertex in
    let best0, fresh = st in
    let best =
      List.fold_left (fun acc (_, (msg : int array)) -> min acc msg.(0)) best0 inbox
    in
    if best < best0 || fresh then begin
      let out = ref [] in
      Graph.iter_neighbors g v (fun u -> out := (u, [| best |]) :: !out);
      ((best, false), !out)
    end
    else ((best, false), [])
  in
  let prev = ref [||] in
  let finished states =
    let snap = Array.map fst states in
    let same = !prev <> [||] && snap = !prev in
    prev := snap;
    same
  in
  Network.run net ~label:"leader" ~init ~step ~finished ~on_round ()

(* constant traffic for ten rounds, so drop/duplicate coins and the
   crash/link schedule all get exercised on every executor *)
let gossip_runner g net on_round =
  let init v = v in
  let step ~round:_ ~vertex st inbox =
    let v = Vertex.local_int vertex in
    let st =
      List.fold_left (fun acc (_, (msg : int array)) -> min acc msg.(0)) st inbox
    in
    let out = ref [] in
    Graph.iter_neighbors g v (fun u -> out := (u, [| st |]) :: !out);
    (st, !out)
  in
  let states = Network.run_rounds net ~label:"gossip" ~init ~step ~on_round 10 in
  (states, 10)

let gnp_graph seed = Generators.gnp (Rng.create seed) ~n:40 ~p:0.12

(* cycles always contain edge (1, 2) and vertex 3, which the fault
   schedule below targets (same shape as test_faults.ml) *)
let cycle_graph seed = Generators.cycle (16 + seed)

let fault_spec seed =
  { (Faults.lossy ~drop:0.15 ~duplicate:0.05 ~seed ()) with
    Faults.link_failures = [ ((1, 2), 1) ];
    Faults.crashes = [ (3, 2) ] }

let test_bfs_equivalent = equivalent ~workload:"bfs" gnp_graph bfs_runner

let test_leader_equivalent = equivalent ~workload:"leader" gnp_graph leader_runner

let test_faulty_gossip_equivalent =
  equivalent ~workload:"gossip" ~spec:fault_spec cycle_graph gossip_runner

(* ---------- cursor API across executors ---------- *)

let bfs_tree_obs ~executor g =
  let net = Network.create ~executor ~shard_min:0 g (Rounds.create ()) in
  let tree = Primitives.bfs_tree net ~root:(Vertex.local 0) in
  let rounds = List.assoc "bfs" (Rounds.by_phase (Network.rounds net)) in
  (tree, rounds, Network.messages_sent net, Network.words_sent net)

let test_cursor_bfs_across_executors () =
  List.iter
    (fun seed ->
      let g = gnp_graph seed in
      let base, rounds, msgs, words = bfs_tree_obs ~executor:Network.Legacy g in
      let truth = Metrics.bfs_distances g 0 in
      Array.iteri
        (fun v d ->
          Alcotest.(check int) (Printf.sprintf "depth %d vs bfs" v) truth.(v) d)
        base.Primitives.depth;
      List.iter
        (fun (ename, e) ->
          let t, r, m, w = bfs_tree_obs ~executor:e g in
          let name what = Printf.sprintf "bfs_tree seed %d %s %s" seed ename what in
          Alcotest.(check (array int)) (name "depths") base.Primitives.depth
            t.Primitives.depth;
          Alcotest.(check (array int)) (name "members") base.Primitives.members
            t.Primitives.members;
          Alcotest.(check int) (name "height") base.Primitives.height t.Primitives.height;
          Alcotest.(check int) (name "rounds") rounds r;
          Alcotest.(check int) (name "messages") msgs m;
          Alcotest.(check int) (name "words") words w)
        executors)
    seeds

let test_cursor_leader_across_executors () =
  List.iter
    (fun seed ->
      let g = gnp_graph seed in
      let run e =
        let net = Network.create ~executor:e ~shard_min:0 g (Rounds.create ()) in
        (Primitives.elect_leader net, Network.messages_sent net)
      in
      let base, base_msgs = run Network.Legacy in
      List.iter
        (fun (ename, e) ->
          let leaders, msgs = run e in
          Alcotest.(check (array int))
            (Printf.sprintf "leaders seed %d %s" seed ename)
            base leaders;
          Alcotest.(check int)
            (Printf.sprintf "leader messages seed %d %s" seed ename)
            base_msgs msgs)
        executors)
    seeds

(* ---------- arena direct coverage ---------- *)

let test_arena_cursor_surface () =
  let g = Generators.cycle 6 in
  let a = Arena.create ~word_size:2 g in
  Alcotest.(check int) "word size" 2 (Arena.word_size a);
  Alcotest.(check int) "one slot per directed edge" (2 * Graph.num_plain_edges g)
    (Arena.slot_count a);
  let net = Network.create ~word_size:2 ~executor:Network.Staged g (Rounds.create ()) in
  (match Network.executor net with
  | Network.Staged -> ()
  | Network.Legacy | Network.Parallel _ -> Alcotest.fail "executor not threaded");
  (* round 1: every vertex sends a two-word message to both cycle
     neighbors and self-wakes; round 2: fold the inbox through every
     cursor accessor so the shim and the zero-alloc path are both
     exercised and must agree *)
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    if round = 1 then begin
      Graph.iter_neighbors g v (fun u ->
          Arena.Outbox.send ob ~dst:(Vertex.local u) [| u; 10 * v |]);
      Arena.Outbox.wake ob;
      st
    end
    else begin
      let count = Arena.Inbox.count ib in
      let shim = Arena.Inbox.to_list ib in
      let sum = ref 0 in
      Arena.Inbox.iter ib (fun src msg ->
          (* senders addressed us by id: msg.(0) = v, msg.(1) = 10*src *)
          sum := !sum + msg.(0) + msg.(1) - (10 * src));
      let empty = Arena.Inbox.is_empty ib in
      st + (1000 * count) + (100 * List.length shim) + !sum
      + (if empty then 1_000_000 else 0)
    end
  in
  let states, rounds =
    Network.run_active net ~label:"surface" ~init:(fun _ -> 0) ~step ()
  in
  Alcotest.(check int) "two rounds to quiescence" 2 rounds;
  Array.iteri
    (fun v st ->
      (* two deliveries, two shim entries, iter sum = 2v *)
      Alcotest.(check int) (Printf.sprintf "vertex %d" v) (2000 + 200 + (2 * v)) st)
    states

let test_wake_keeps_vertex_active () =
  let g = Generators.path 5 in
  let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
  (* nobody ever sends; vertex 0 self-wakes through round 3, so the
     run must execute exactly 4 rounds (the last one finds no wake)
     and step only vertex 0 after round 1 *)
  let step ~round ~vertex st _ib ob =
    if Vertex.local_int vertex = 0 && round <= 3 then begin
      Arena.Outbox.wake ob;
      st + 1
    end
    else st
  in
  let states, rounds =
    Network.run_active net ~label:"wake" ~init:(fun _ -> 0) ~step ()
  in
  Alcotest.(check int) "rounds" 4 rounds;
  Alcotest.(check int) "vertex 0 incremented through round 3" 3 states.(0);
  for v = 1 to 4 do
    Alcotest.(check int) (Printf.sprintf "vertex %d stepped once" v) 0 states.(v)
  done

let test_run_active_round_limit () =
  let g = Generators.cycle 5 in
  let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
  let step ~round:_ ~vertex:_ st _ib ob =
    Arena.Outbox.wake ob;
    st
  in
  match Network.run_active net ~label:"forever" ~init:(fun _ -> 0) ~step ~max_rounds:7 ()
  with
  | exception Network.Round_limit_exceeded { executed; max_rounds; _ } ->
    Alcotest.(check int) "executed" 7 executed;
    Alcotest.(check int) "limit" 7 max_rounds
  | _ -> Alcotest.fail "expected Round_limit_exceeded"

let test_cursor_congestion_violation () =
  let g = Generators.path 4 in
  let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
  (* vertex 0's only neighbor is 1: sending to 3 must raise the same
     exception, with the same wording, as the legacy validator *)
  let step ~round:_ ~vertex st _ib ob =
    if Vertex.local_int vertex = 0 then Arena.Outbox.send1 ob ~dst:(Vertex.local 3) 7;
    st
  in
  match Network.run_active net ~label:"bad" ~init:(fun _ -> 0) ~step () with
  | exception Network.Congestion_violation msg ->
    Alcotest.(check string) "message" "vertex 0: 3 is not a neighbor" msg
  | _ -> Alcotest.fail "expected Congestion_violation"

(* ---------- timed wake-ups and fixed-length runs ---------- *)

(* vertex 2 of a 5-path books round 10 in round 1 and nobody sends:
   rounds 2..9 must step nobody, round 10 exactly vertex 2 *)
let timed_wake_obs ~executor =
  let g = Generators.path 5 in
  let net = Network.create ~executor ~shard_min:0 g (Rounds.create ()) in
  let calls = Atomic.make 0 in
  let step ~round ~vertex seen _ib ob =
    Atomic.incr calls;
    if Vertex.local_int vertex = 2 && round = 1 then Arena.Outbox.wake_at ob 10;
    round :: seen
  in
  let ticks = ref [] in
  let on_round r _ = ticks := r :: !ticks in
  let states, rounds =
    Network.run_active net ~label:"timed" ~init:(fun _ -> []) ~step ~on_round ()
  in
  (states, rounds, Atomic.get calls, List.rev !ticks, Rounds.total (Network.rounds net))

let test_wake_at_fires_on_its_round () =
  let states, rounds, calls, ticks, charged = timed_wake_obs ~executor:Network.Staged in
  Alcotest.(check int) "last stepped round" 10 rounds;
  Alcotest.(check int) "charged" 10 charged;
  Alcotest.(check int) "step calls: all n in round 1, then one" 6 calls;
  Alcotest.(check (list int)) "on_round only on stepped rounds" [ 1; 10 ] ticks;
  Alcotest.(check (list int)) "vertex 2 saw rounds" [ 10; 1 ] states.(2);
  Alcotest.(check (list int)) "vertex 0 saw rounds" [ 1 ] states.(0)

let test_wake_at_rejects_past_rounds () =
  let g = Generators.cycle 4 in
  let attempt ~at ~target =
    let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
    let step ~round ~vertex st _ib ob =
      if Vertex.local_int vertex = 0 then begin
        if round < at then Arena.Outbox.wake ob
        else if round = at then Arena.Outbox.wake_at ob target
      end;
      st
    in
    match Network.run_active net ~label:"past" ~init:(fun _ -> 0) ~step () with
    | exception Invariant.Violation { where; _ } ->
      Alcotest.(check string)
        (Printf.sprintf "round %d wake_at %d" at target)
        "Arena.Outbox.wake_at" where
    | _ -> Alcotest.failf "round %d: wake_at %d accepted" at target
  in
  attempt ~at:1 ~target:1;
  attempt ~at:1 ~target:0;
  attempt ~at:3 ~target:3;
  attempt ~at:3 ~target:2

let test_pending_wake_keeps_run_alive () =
  let g = Generators.cycle 6 in
  let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
  (* round 1: vertex 3 messages vertex 4 and books round 50; round 2
     is the last one with traffic, so the worklist is empty after it
     while the wake is still pending *)
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    if round = 1 && v = 3 then begin
      Arena.Outbox.send1 ob ~dst:(Vertex.local 4) 1;
      Arena.Outbox.wake_at ob 50
    end;
    st + (round * (1 + Arena.Inbox.count ib))
  in
  let states, rounds = Network.run_active net ~label:"alive" ~init:(fun _ -> 0) ~step () in
  Alcotest.(check int) "ran to the pending wake" 50 rounds;
  Alcotest.(check int) "vertex 3 stepped in rounds 1 and 50" 51 states.(3);
  Alcotest.(check int) "vertex 4 stepped in rounds 1 and 2" (1 + 4) states.(4);
  Alcotest.(check int) "charged" 50 (Rounds.total (Network.rounds net))

(* every vertex floods its neighbours every round, forever *)
let flood_step g ~round:_ ~vertex st ib ob =
  let v = Vertex.local_int vertex in
  Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) v);
  st + Arena.Inbox.count ib

let test_run_active_rounds_fixed_length () =
  let g = Generators.cycle 8 in
  let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
  let stepped = ref [] in
  let states =
    Network.run_active_rounds net ~label:"fixed" ~init:(fun _ -> 0) ~step:(flood_step g)
      ~on_round:(fun r _ -> stepped := r :: !stepped)
      7
  in
  Alcotest.(check (list int)) "rounds 1..7" [ 7; 6; 5; 4; 3; 2; 1 ] !stepped;
  Alcotest.(check (list (pair string int)))
    "charged exactly n" [ ("fixed", 7) ]
    (Rounds.by_phase (Network.rounds net));
  (* round 7's sends were delivered (counted) but never read *)
  Alcotest.(check int) "messages" (7 * 16) (Network.messages_sent net);
  Array.iter (fun st -> Alcotest.(check int) "inbox reads" (6 * 2) st) states;
  (* quiescent early, or a wake pending past the end: still exactly n *)
  let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
  let step ~round ~vertex:_ st _ib ob =
    if round = 1 then Arena.Outbox.wake_at ob 100;
    st + 1
  in
  let states = Network.run_active_rounds net ~label:"short" ~init:(fun _ -> 0) ~step 20 in
  Alcotest.(check int) "pending wake: charged n" 20 (Rounds.total (Network.rounds net));
  Array.iter (fun st -> Alcotest.(check int) "stepped once" 1 st) states;
  let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
  ignore
    (Network.run_active_rounds net ~label:"idle" ~init:(fun _ -> 0)
       ~step:(fun ~round:_ ~vertex:_ st _ _ -> st)
       20);
  Alcotest.(check int) "quiescent: charged n" 20 (Rounds.total (Network.rounds net))

let test_timed_wakes_across_executors () =
  let base = timed_wake_obs ~executor:Network.Legacy in
  List.iter
    (fun (ename, executor) ->
      let states, rounds, calls, ticks, charged = timed_wake_obs ~executor in
      let bs, br, bc, bt, bch = base in
      Alcotest.(check (array (list int))) (ename ^ " states") bs states;
      Alcotest.(check int) (ename ^ " rounds") br rounds;
      Alcotest.(check int) (ename ^ " calls") bc calls;
      Alcotest.(check (list int)) (ename ^ " ticks") bt ticks;
      Alcotest.(check int) (ename ^ " charged") bch charged)
    executors;
  (* fixed-length flood: same states and ledger on every executor *)
  let flood executor =
    let g = gnp_graph 4 in
    let net = Network.create ~executor ~shard_min:0 g (Rounds.create ()) in
    let states =
      Network.run_active_rounds net ~label:"fixed" ~init:(fun _ -> 0) ~step:(flood_step g) 5
    in
    (states, Network.messages_sent net, Rounds.total (Network.rounds net))
  in
  let bs, bm, br = flood Network.Legacy in
  List.iter
    (fun (ename, executor) ->
      let s, m, r = flood executor in
      Alcotest.(check (array int)) (ename ^ " flood states") bs s;
      Alcotest.(check int) (ename ^ " flood messages") bm m;
      Alcotest.(check int) (ename ^ " flood charged") br r)
    executors

(* a run whose only remaining work is a wake booked past [max_rounds]
   is not quiescent: it raises like any other over-long run, charging
   the max_rounds rounds that elapsed (stepped or idle) *)
let test_wake_beyond_max_rounds () =
  let g = Generators.path 3 in
  let net = Network.create ~executor:Network.Staged g (Rounds.create ()) in
  let step ~round ~vertex st _ib ob =
    if round = 1 && Vertex.local_int vertex = 1 then Arena.Outbox.wake_at ob 10;
    st + round
  in
  (match Network.run_active net ~label:"late" ~init:(fun _ -> 0) ~step ~max_rounds:7 () with
  | exception Network.Round_limit_exceeded { executed; max_rounds; states = Packed _; _ } ->
    Alcotest.(check int) "executed" 7 executed;
    Alcotest.(check int) "limit" 7 max_rounds
  | _ -> Alcotest.fail "expected Round_limit_exceeded");
  Alcotest.(check int) "charged max_rounds" 7 (Rounds.total (Network.rounds net));
  (* with the limit at the wake's round, the run completes there *)
  let states, rounds =
    Network.run_active net ~label:"late" ~init:(fun _ -> 0) ~step ~max_rounds:10 ()
  in
  Alcotest.(check int) "completes at the wake" 10 rounds;
  Alcotest.(check int) "vertex 1 stepped in rounds 1 and 10" 11 states.(1)

let () =
  Alcotest.run "kernel-equiv"
    [ ( "list-api",
        [ Alcotest.test_case "bfs" `Quick test_bfs_equivalent;
          Alcotest.test_case "leader" `Quick test_leader_equivalent;
          Alcotest.test_case "faulty gossip" `Quick test_faulty_gossip_equivalent ] );
      ( "cursor-api",
        [ Alcotest.test_case "bfs tree" `Quick test_cursor_bfs_across_executors;
          Alcotest.test_case "leader" `Quick test_cursor_leader_across_executors ] );
      ( "arena",
        [ Alcotest.test_case "cursor surface" `Quick test_arena_cursor_surface;
          Alcotest.test_case "wake" `Quick test_wake_keeps_vertex_active;
          Alcotest.test_case "round limit" `Quick test_run_active_round_limit;
          Alcotest.test_case "violation" `Quick test_cursor_congestion_violation;
          Alcotest.test_case "wake_at round" `Quick test_wake_at_fires_on_its_round;
          Alcotest.test_case "wake_at past" `Quick test_wake_at_rejects_past_rounds;
          Alcotest.test_case "pending wake" `Quick test_pending_wake_keeps_run_alive;
          Alcotest.test_case "fixed length" `Quick test_run_active_rounds_fixed_length;
          Alcotest.test_case "timed executors" `Quick test_timed_wakes_across_executors;
          Alcotest.test_case "wake past limit" `Quick test_wake_beyond_max_rounds ] ) ]
