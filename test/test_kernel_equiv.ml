(* Kernel-vs-reference suite. [Network] has one round loop, the arena
   cursor driver. This suite runs cursor protocols on it and their list
   forms on [Reference] — the seed's interleaved step-and-deliver
   interpreter, kept as the oracle — and requires the same states, round
   counts, message/word ledgers, fault traces and, per round, the same
   state digests. It also pins the arena's cursor, wake and calendar
   behaviour directly. *)

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

(* A workload in both forms over one state type, so the digests of the
   two runs are comparable: [cursor] runs on the kernel, [list] on the
   reference. Each returns the final states and the round count. *)
type 's workload = {
  cursor : Network.t -> on_round:(int -> 's array -> unit) -> 's array * int;
  list : Reference.t -> on_round:(int -> 's array -> unit) -> 's array * int;
}

(* the structural digest Conformance.check uses by default *)
let digest states = Hashtbl.hash_param 256 256 states

(* deliveries in the cursor's inbox this round *)
let inbox_count ib =
  let c = ref 0 in
  Arena.Inbox.iter1 ib (fun _ _ -> incr c);
  !c

let observe ?faults ~kernel g w =
  let log = Option.map Reference.fault_log faults in
  let per_round = ref [] in
  let on_round round states =
    per_round := (round, digest states) :: !per_round
  in
  let (states, rounds), messages, words =
    match kernel with
    | `Cursor ->
      let net = Network.create ?faults g (Rounds.create ()) in
      let result = w.cursor net ~on_round in
      (* one word per message *)
      (result, Network.messages_sent net, Network.messages_sent net)
    | `Reference ->
      let r = Reference.create ?faults g in
      let result = w.list r ~on_round in
      (result, r.Reference.messages, r.Reference.words)
  in
  { final_digest = digest states;
    per_round = List.rev !per_round;
    rounds;
    messages;
    words;
    fault_log =
      (match log with Some log -> List.map fault_repr (log ()) | None -> []);
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

(* [faults seed] builds a fresh schedule, one for each run *)
let equivalent ~workload ?faults make_graph w () =
  List.iter
    (fun seed ->
      let g = make_graph seed in
      let faults () = Option.map (fun f -> f seed) faults in
      let name = Printf.sprintf "%s seed %d" workload seed in
      check_same name
        (observe ?faults:(faults ()) ~kernel:`Reference g (w g))
        (observe ?faults:(faults ()) ~kernel:`Cursor g (w g)))
    seeds

(* ---------- workloads ---------- *)

let flood_list g v out_word =
  let out = ref [] in
  Graph.iter_neighbors g v (fun u -> out := (u, out_word) :: !out);
  !out

(* [Primitives.bfs] from vertex 0, and its list form *)
let bfs g =
  let p = Primitives.bfs g ~root:(Vertex.local 0) in
  let step ~round:_ ~vertex (st : Primitives.bfs_state) inbox =
    let v = Vertex.local_int vertex in
    let st =
      if st.dist = max_int then
        List.fold_left
          (fun (acc : Primitives.bfs_state) (sender, w) ->
            let d = w + 1 in
            if d < acc.dist || (d = acc.dist && sender < acc.par) then
              { dist = d; par = sender; pending = true }
            else acc)
          st inbox
      else st
    in
    if st.pending then ({ st with pending = false }, flood_list g v st.dist) else (st, [])
  in
  { cursor =
      (fun net ~on_round ->
        Network.run_active net ~label:"run" ~init:p.init ~step:p.step ~on_round ());
    list =
      (fun r ~on_round ->
        Reference.run r ~init:p.init ~step
          ~finished:(Array.for_all (fun (st : Primitives.bfs_state) -> not st.pending))
          ~on_round) }

(* [Primitives.leader], and its list form *)
let leader g =
  let p = Primitives.leader g in
  let step ~round:_ ~vertex (st : Primitives.leader_state) inbox =
    let v = Vertex.local_int vertex in
    let best =
      List.fold_left (fun acc (_, w) -> min acc w) st.best inbox
    in
    let st' = { Primitives.best; fresh = false } in
    if best < st.best || st.fresh then (st', flood_list g v best) else (st', [])
  in
  { cursor =
      (fun net ~on_round ->
        Network.run_active net ~label:"run" ~init:p.init ~step:p.step ~on_round ());
    list =
      (fun r ~on_round ->
        Reference.run r ~init:p.init ~step
          ~finished:(Array.for_all (fun (st : Primitives.leader_state) -> not st.fresh))
          ~on_round) }

(* constant traffic for ten rounds, so the drop and duplicate coins
   all get exercised; the cursor form wakes every round, so every
   vertex steps every round in both forms *)
let gossip g =
  let cursor_step ~round:_ ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    let st = ref st in
    Arena.Inbox.iter1 ib (fun _ w -> st := min !st w);
    Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) !st);
    Arena.Outbox.wake ob;
    !st
  in
  let step ~round:_ ~vertex st inbox =
    let v = Vertex.local_int vertex in
    let st = List.fold_left (fun acc (_, w) -> min acc w) st inbox in
    (st, flood_list g v st)
  in
  { cursor =
      (fun net ~on_round ->
        (Network.run_active_rounds net ~label:"run" ~init:Fun.id ~step:cursor_step ~on_round 10, 10));
    list = (fun r ~on_round -> (Reference.run_rounds r ~init:Fun.id ~step ~on_round 10, 10)) }

let gnp_graph seed = Generators.gnp (Rng.create seed) ~n:40 ~p:0.12

let cycle_graph seed = Generators.cycle (16 + seed)

let lossy seed = Faults.create ~drop:0.15 ~duplicate:0.05 ~seed

let test_bfs_equivalent = equivalent ~workload:"bfs" gnp_graph bfs

let test_leader_equivalent = equivalent ~workload:"leader" gnp_graph leader

let test_faulty_gossip_equivalent =
  equivalent ~workload:"gossip" ~faults:lossy cycle_graph gossip

(* ---------- the public entry points against the reference ---------- *)

(* [Reference.bfs_tree] runs the protocol above ([Primitives.bfs]) on
   the kernel, so its ledger must match the reference's; a second run
   on the same network reuses the arena and must reproduce the first *)
let test_cursor_bfs_tree () =
  List.iter
    (fun seed ->
      let g = gnp_graph seed in
      let name what = Printf.sprintf "bfs_tree seed %d %s" seed what in
      let reference = observe ~kernel:`Reference g (bfs g) in
      let net = Network.create g (Rounds.create ()) in
      let tree = Reference.bfs_tree net ~root:(Vertex.local 0) in
      Alcotest.(check (array int)) (name "depths") (Metrics.bfs_distances g 0)
        tree.Primitives.depth;
      Alcotest.(check int) (name "messages") reference.messages (Network.messages_sent net);
      Alcotest.(check int) (name "words") reference.words (Network.messages_sent net);
      let first_rounds = Rounds.total (Network.rounds net) in
      Alcotest.(check int) (name "rounds") reference.rounds first_rounds;
      let again = Reference.bfs_tree net ~root:(Vertex.local 0) in
      Alcotest.(check (array int)) (name "rerun depths") tree.Primitives.depth
        again.Primitives.depth;
      Alcotest.(check (array int)) (name "rerun parents") tree.Primitives.parent
        again.Primitives.parent;
      Alcotest.(check (array int)) (name "rerun members") tree.Primitives.members
        again.Primitives.members;
      Alcotest.(check int) (name "rerun messages") (2 * reference.messages)
        (Network.messages_sent net);
      Alcotest.(check int) (name "rerun rounds") (2 * first_rounds)
        (Rounds.total (Network.rounds net)))
    seeds

let test_cursor_leader () =
  List.iter
    (fun seed ->
      let g = gnp_graph seed in
      let r = Reference.create g in
      let want, _ = (leader g).list r ~on_round:(fun _ _ -> ()) in
      let net = Network.create g (Rounds.create ()) in
      let leaders = Reference.elect_leader net in
      Alcotest.(check (array int))
        (Printf.sprintf "leaders seed %d" seed)
        (Array.map (fun (st : Primitives.leader_state) -> st.best) want)
        leaders;
      Alcotest.(check int)
        (Printf.sprintf "leader messages seed %d" seed)
        r.Reference.messages (Network.messages_sent net))
    seeds

(* ---------- arena direct coverage ---------- *)

let test_arena_cursor_surface () =
  let g = Generators.cycle 6 in
  let a = Arena.create g in
  Alcotest.(check int) "one slot per directed edge" (2 * Graph.num_plain_edges g)
    (Arena.slot_count a);
  let net = Network.create g (Rounds.create ()) in
  (* round 1: every vertex sends the word 10·v to both cycle
     neighbours and self-wakes; round 2: iter1 must list both senders,
     each with its own word *)
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    if round = 1 then begin
      Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) (10 * v));
      Arena.Outbox.wake ob;
      st
    end
    else begin
      let calls = ref 0 and senders = ref 0 and mismatched = ref 0 in
      Arena.Inbox.iter1 ib (fun src w ->
          incr calls;
          senders := !senders + src;
          if w <> 10 * src then incr mismatched);
      st + (1000 * !calls) + (100 * !mismatched) + !senders
    end
  in
  let states, rounds =
    Network.run_active net ~label:"surface" ~init:(fun _ -> 0) ~step ()
  in
  Alcotest.(check int) "two rounds to quiescence" 2 rounds;
  Array.iteri
    (fun v st ->
      (* two deliveries, no word from the wrong sender, senders v±1 *)
      let expected = 2000 + ((v + 5) mod 6) + ((v + 1) mod 6) in
      Alcotest.(check int) (Printf.sprintf "vertex %d" v) expected st)
    states

let test_wake_keeps_vertex_active () =
  let g = Generators.path 5 in
  let net = Network.create g (Rounds.create ()) in
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
  let net = Network.create g (Rounds.create ()) in
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
  let net = Network.create g (Rounds.create ()) in
  (* vertex 0's only neighbor is 1: sending to 3 must raise a
     violation naming both ids *)
  let step ~round:_ ~vertex st _ib ob =
    if Vertex.local_int vertex = 0 then Arena.Outbox.send1 ob ~dst:(Vertex.local 3) 7;
    st
  in
  match Network.run_active net ~label:"bad" ~init:(fun _ -> 0) ~step () with
  | exception Network.Congestion_violation { round; violation } ->
    Alcotest.(check int) "round" 1 round;
    Alcotest.(check string) "message" "vertex 0: 3 is not a neighbor"
      (Arena.describe violation)
  | _ -> Alcotest.fail "expected Congestion_violation"

(* a self-send is no edge of the network even where the vertex has a
   self-loop: both kernels reject vertex 0's message to itself *)
let test_self_send_rejected () =
  let g = Graph.of_edges ~n:2 [ (0, 1); (0, 0) ] in
  let expect kernel run =
    match run () with
    | exception Arena.Congestion_violation { round; violation } ->
      Alcotest.(check int) (kernel ^ " round") 1 round;
      Alcotest.(check bool) (kernel ^ " not a neighbor") true
        (violation = Arena.Not_a_neighbor { vertex = 0; dst = 0 })
    | _ -> Alcotest.fail (kernel ^ ": expected Congestion_violation")
  in
  expect "cursor" (fun () ->
      let net = Network.create g (Rounds.create ()) in
      let step ~round:_ ~vertex st _ib ob =
        if Vertex.local_int vertex = 0 then Arena.Outbox.send1 ob ~dst:(Vertex.local 0) 7;
        st
      in
      ignore (Network.run_active net ~label:"self" ~init:(fun _ -> 0) ~step ()));
  expect "reference" (fun () ->
      let step ~round:_ ~vertex st _inbox =
        (st, if Vertex.local_int vertex = 0 then [ (0, 7) ] else [])
      in
      ignore
        (Reference.run_rounds (Reference.create g) ~init:(fun _ -> 0) ~step
           ~on_round:(fun _ _ -> ()) 1))

(* ---------- timed wake-ups and fixed-length runs ---------- *)

(* vertex 2 of a 5-path books round 10 in round 1 and nobody sends:
   rounds 2..9 must step nobody, round 10 exactly vertex 2 *)
let test_wake_at_fires_on_its_round () =
  let g = Generators.path 5 in
  let net = Network.create g (Rounds.create ()) in
  let calls = ref 0 in
  let step ~round ~vertex seen _ib ob =
    incr calls;
    if Vertex.local_int vertex = 2 && round = 1 then Arena.Outbox.wake_at ob 10;
    round :: seen
  in
  let ticks = ref [] in
  let on_round r _ = ticks := r :: !ticks in
  let states, rounds =
    Network.run_active net ~label:"timed" ~init:(fun _ -> []) ~step ~on_round ()
  in
  Alcotest.(check int) "last stepped round" 10 rounds;
  Alcotest.(check int) "charged" 10 (Rounds.total (Network.rounds net));
  Alcotest.(check int) "step calls: all n in round 1, then one" 6 !calls;
  Alcotest.(check (list int)) "on_round only on stepped rounds" [ 1; 10 ] (List.rev !ticks);
  Alcotest.(check (list int)) "vertex 2 saw rounds" [ 10; 1 ] states.(2);
  Alcotest.(check (list int)) "vertex 0 saw rounds" [ 1 ] states.(0)

let test_wake_at_rejects_past_rounds () =
  let g = Generators.cycle 4 in
  let attempt ~at ~target =
    let net = Network.create g (Rounds.create ()) in
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
  let net = Network.create g (Rounds.create ()) in
  (* round 1: vertex 3 messages vertex 4 and books round 50; round 2
     is the last one with traffic, so the worklist is empty after it
     while the wake is still pending *)
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    if round = 1 && v = 3 then begin
      Arena.Outbox.send1 ob ~dst:(Vertex.local 4) 1;
      Arena.Outbox.wake_at ob 50
    end;
    st + (round * (1 + inbox_count ib))
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
  st + inbox_count ib

let test_run_active_rounds_fixed_length () =
  let g = Generators.cycle 8 in
  let net = Network.create g (Rounds.create ()) in
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
  let net = Network.create g (Rounds.create ()) in
  let step ~round ~vertex:_ st _ib ob =
    if round = 1 then Arena.Outbox.wake_at ob 100;
    st + 1
  in
  let states = Network.run_active_rounds net ~label:"short" ~init:(fun _ -> 0) ~step 20 in
  Alcotest.(check int) "pending wake: charged n" 20 (Rounds.total (Network.rounds net));
  Array.iter (fun st -> Alcotest.(check int) "stepped once" 1 st) states;
  let net = Network.create g (Rounds.create ()) in
  ignore
    (Network.run_active_rounds net ~label:"idle" ~init:(fun _ -> 0)
       ~step:(fun ~round:_ ~vertex:_ st _ _ -> st)
       20);
  Alcotest.(check int) "quiescent: charged n" 20 (Rounds.total (Network.rounds net))

(* the fixed-length cursor flood, and the same flood as a list-API
   protocol on the reference: the same inbox reads, messages and
   charge *)
let test_fixed_flood_vs_reference () =
  let g = gnp_graph 4 in
  let net = Network.create g (Rounds.create ()) in
  let cursor =
    Network.run_active_rounds net ~label:"fixed" ~init:(fun _ -> 0) ~step:(flood_step g) 5
  in
  let list_step ~round:_ ~vertex st inbox =
    (st + List.length inbox, flood_list g (Vertex.local_int vertex) (Vertex.local_int vertex))
  in
  let r = Reference.create g in
  let reference =
    Reference.run_rounds r ~init:(fun _ -> 0) ~step:list_step ~on_round:(fun _ _ -> ()) 5
  in
  Alcotest.(check (array int)) "cursor states" reference cursor;
  Alcotest.(check int) "cursor messages" r.Reference.messages (Network.messages_sent net);
  Alcotest.(check int) "cursor charged" 5 (Rounds.total (Network.rounds net))

(* a run whose only remaining work is a wake booked past [max_rounds]
   is not quiescent: it raises like any other over-long run, charging
   the max_rounds rounds that elapsed (stepped or idle) *)
let test_wake_beyond_max_rounds () =
  let g = Generators.path 3 in
  let net = Network.create g (Rounds.create ()) in
  let step ~round ~vertex st _ib ob =
    if round = 1 && Vertex.local_int vertex = 1 then Arena.Outbox.wake_at ob 10;
    st + round
  in
  (match Network.run_active net ~label:"late" ~init:(fun _ -> 0) ~step ~max_rounds:7 () with
  | exception Network.Round_limit_exceeded { executed; max_rounds; _ } ->
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

(* the mirror pass's per-vertex cursors against a binary search per
   slot, on multigraphs: parallel edges share their leftmost slot, and
   self-loops own no slot *)
let prop_mirrors_match_search =
  QCheck.Test.make ~name:"mirrors = binary-search reference" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 40 in
      let edges =
        List.init (Rng.int rng (4 * n)) (fun _ ->
            let u = Rng.int rng n in
            match Rng.int rng 8 with 0 -> (u, u) | _ -> (u, Rng.int rng n))
      in
      let g = Graph.of_edges ~n (edges @ List.filteri (fun i _ -> i mod 3 = 0) edges) in
      let a = Arena.create g in
      Array.init (Arena.slot_count a) (Arena.mirror a) = Reference.mirrors_by_search g)

let () =
  Alcotest.run "kernel-equiv"
    [ ( "list-api",
        [ Alcotest.test_case "bfs" `Quick test_bfs_equivalent;
          Alcotest.test_case "leader" `Quick test_leader_equivalent;
          Alcotest.test_case "faulty gossip" `Quick test_faulty_gossip_equivalent ] );
      ( "cursor-api",
        [ Alcotest.test_case "bfs tree" `Quick test_cursor_bfs_tree;
          Alcotest.test_case "leader" `Quick test_cursor_leader ] );
      ( "arena",
        [ Alcotest.test_case "cursor surface" `Quick test_arena_cursor_surface;
          Alcotest.test_case "wake" `Quick test_wake_keeps_vertex_active;
          Alcotest.test_case "round limit" `Quick test_run_active_round_limit;
          Alcotest.test_case "violation" `Quick test_cursor_congestion_violation;
          Alcotest.test_case "self send" `Quick test_self_send_rejected;
          Alcotest.test_case "wake_at round" `Quick test_wake_at_fires_on_its_round;
          Alcotest.test_case "wake_at past" `Quick test_wake_at_rejects_past_rounds;
          Alcotest.test_case "pending wake" `Quick test_pending_wake_keeps_run_alive;
          Alcotest.test_case "fixed length" `Quick test_run_active_rounds_fixed_length;
          Alcotest.test_case "fixed flood vs reference" `Quick test_fixed_flood_vs_reference;
          Alcotest.test_case "wake past limit" `Quick test_wake_beyond_max_rounds;
          QCheck_alcotest.to_alcotest prop_mirrors_match_search ] ) ]
