(* Kernel-vs-reference suite. [Network] has one round loop, the arena
   cursor driver; its list API is an adapter over it. This suite runs
   list-API protocols through both the adapter and [Reference] — the
   seed's interleaved step-and-deliver interpreter, kept here as the
   oracle — and requires the same per-round state digests, round
   counts, message/word ledgers and fault traces. It also pins the
   adapter's edge cases and the arena's cursor, wake and calendar
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

(* ---------- the reference interpreter ---------- *)

(* One pass over all vertices per round: step [v] against the previous
   round's inboxes, validate its outbox (budget, then neighbour, then
   duplicate), apply the fault schedule and deliver, then step [v + 1].
   [order] picks how one sender's outbox is walked: [`Ascending]
   destination order, which is the kernel's, or the protocol's own
   [`Outbox] list order, which is how the seed kernel recorded its
   fault events. *)
module Reference = struct
  type t = {
    g : Graph.t;
    faults : Faults.t option;
    order : [ `Ascending | `Outbox ];
    mutable messages : int;
    mutable words : int;
  }

  let create ?faults ?(order = `Ascending) g = { g; faults; order; messages = 0; words = 0 }

  (* every network in this suite has the default one-word budget *)
  let validate t v outbox =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (u, (msg : int array)) ->
        if Array.length msg > 1 then raise (Network.Congestion_violation "budget");
        if not (Graph.mem_edge t.g v u) then
          raise (Network.Congestion_violation "not a neighbor");
        if Hashtbl.mem seen u then raise (Network.Congestion_violation "duplicate");
        Hashtbl.add seen u ())
      outbox

  let exec_round t ~round states inboxes step =
    let next = Array.make (Graph.num_vertices t.g) [] in
    let deliver src dst msg =
      t.messages <- t.messages + 1;
      t.words <- t.words + Array.length msg;
      (* dex-lint: allow C002 relays messages [validate] already checked against the budget *)
      next.(dst) <- (src, msg) :: next.(dst)
    in
    Array.iteri
      (fun v inbox ->
        let crashed =
          match t.faults with
          | Some f -> Faults.crashed f ~round ~vertex:(Vertex.local v)
          | None -> false
        in
        if not crashed then begin
          let st, outbox = step ~round ~vertex:(Vertex.local v) states.(v) inbox in
          states.(v) <- st;
          validate t v outbox;
          let outbox =
            match t.order with
            | `Ascending -> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) outbox
            | `Outbox -> outbox
          in
          List.iter
            (fun (u, msg) ->
              match t.faults with
              | None -> deliver v u msg
              | Some f ->
                (match
                   Faults.verdict f ~round ~src:(Vertex.local v) ~dst:(Vertex.local u)
                 with
                | `Deliver -> deliver v u msg
                | `Drop -> ()
                | `Duplicate ->
                  deliver v u msg;
                  deliver v u msg))
            outbox
        end)
      inboxes;
    next

  let run t ~init ~step ~finished ~on_round =
    let states = Array.init (Graph.num_vertices t.g) init in
    let inboxes = ref (Array.make (Graph.num_vertices t.g) []) in
    let executed = ref 0 in
    let in_flight () = Array.exists (fun inbox -> inbox <> []) !inboxes in
    while not (finished states && not (in_flight ())) do
      incr executed;
      inboxes := exec_round t ~round:!executed states !inboxes step;
      on_round !executed states
    done;
    (states, !executed)

  let run_rounds t ~init ~step ~on_round k =
    let states = Array.init (Graph.num_vertices t.g) init in
    let inboxes = ref (Array.make (Graph.num_vertices t.g) []) in
    for round = 1 to k do
      inboxes := exec_round t ~round states !inboxes step;
      on_round round states
    done;
    states
end

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

(* a list-API protocol, run either through the adapter or through the
   reference: the state type is the workload's own *)
type driver = {
  run :
    's.
    init:(int -> 's) ->
    step:'s Network.step ->
    finished:('s array -> bool) ->
    ('s array -> unit) ->
    's array * int;
  run_rounds : 's. init:(int -> 's) -> step:'s Network.step -> int -> 's array;
}

let observe ?spec ~kernel g workload =
  let faults = Option.map Faults.create spec in
  let per_round = ref [] in
  let digest round states =
    per_round := (round, Conformance.default_digest states) :: !per_round
  in
  let driver, messages, words =
    match kernel with
    | `Adapter ->
      let net = Network.create ?faults g (Rounds.create ()) in
      ( { run =
            (fun ~init ~step ~finished final ->
              let states, rounds =
                Network.run net ~label:"run" ~init ~step ~finished ~on_round:digest ()
              in
              final states;
              (states, rounds));
          run_rounds =
            (fun ~init ~step k ->
              Network.run_rounds net ~label:"run" ~init ~step ~on_round:digest k) },
        (fun () -> Network.messages_sent net),
        fun () -> Network.words_sent net )
    | (`Ascending | `Outbox) as order ->
      let r = Reference.create ?faults ~order g in
      ( { run =
            (fun ~init ~step ~finished final ->
              let states, rounds =
                Reference.run r ~init ~step ~finished ~on_round:digest
              in
              final states;
              (states, rounds));
          run_rounds =
            (fun ~init ~step k -> Reference.run_rounds r ~init ~step ~on_round:digest k) },
        (fun () -> r.Reference.messages),
        fun () -> r.Reference.words )
  in
  let final_digest, rounds = workload g driver in
  { final_digest;
    per_round = List.rev !per_round;
    rounds;
    messages = messages ();
    words = words ();
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

(* the adapter equals the reference in ascending destination order
   exactly, and the seed's outbox-order log up to permutation *)
let equivalent ~workload ?spec make_graph run () =
  List.iter
    (fun seed ->
      let g = make_graph seed in
      let spec = Option.map (fun f -> f seed) spec in
      let name = Printf.sprintf "%s seed %d" workload seed in
      let got = observe ?spec ~kernel:`Adapter g run in
      check_same name (observe ?spec ~kernel:`Ascending g run) got;
      let seed_order = observe ?spec ~kernel:`Outbox g run in
      check_same (name ^ " (outbox order, log sorted)")
        { seed_order with fault_log = List.sort String.compare seed_order.fault_log }
        { got with fault_log = List.sort String.compare got.fault_log })
    seeds

(* ---------- list-API workloads ---------- *)

let bfs_run g d =
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
  let states, rounds = d.run ~init ~step ~finished ignore in
  (Conformance.default_digest states, rounds)

let leader_run ?(final = ignore) g d =
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
  (* stateful predicate: holds once the leaders stop changing *)
  let prev = ref [||] in
  let finished states =
    let snap = Array.map fst states in
    let same = !prev <> [||] && snap = !prev in
    prev := snap;
    same
  in
  let states, rounds = d.run ~init ~step ~finished (fun s -> final (Array.map fst s)) in
  (Conformance.default_digest states, rounds)

(* constant traffic for ten rounds, so drop/duplicate coins and the
   crash/link schedule all get exercised *)
let gossip_run g d =
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
  (Conformance.default_digest (d.run_rounds ~init ~step 10), 10)

let gnp_graph seed = Generators.gnp (Rng.create seed) ~n:40 ~p:0.12

(* cycles always contain edge (1, 2) and vertex 3, which the fault
   schedule below targets (same shape as test_faults.ml) *)
let cycle_graph seed = Generators.cycle (16 + seed)

let fault_spec seed =
  { (Faults.lossy ~drop:0.15 ~duplicate:0.05 ~seed ()) with
    Faults.link_failures = [ ((1, 2), 1) ];
    Faults.crashes = [ (3, 2) ] }

let test_bfs_equivalent = equivalent ~workload:"bfs" gnp_graph bfs_run

let test_leader_equivalent = equivalent ~workload:"leader" gnp_graph (leader_run ?final:None)

let test_faulty_gossip_equivalent =
  equivalent ~workload:"gossip" ~spec:fault_spec cycle_graph gossip_run

(* ---------- cursor protocols against the reference ---------- *)

(* [Primitives.bfs_tree] sends what the list BFS above sends, so its
   ledger must match the reference's; a second run on the same network
   reuses the arena and must reproduce the first *)
let test_cursor_bfs_tree () =
  List.iter
    (fun seed ->
      let g = gnp_graph seed in
      let name what = Printf.sprintf "bfs_tree seed %d %s" seed what in
      let reference = observe ~kernel:`Ascending g bfs_run in
      let net = Network.create g (Rounds.create ()) in
      let tree = Primitives.bfs_tree net ~root:(Vertex.local 0) in
      Alcotest.(check (array int)) (name "depths") (Metrics.bfs_distances g 0)
        tree.Primitives.depth;
      Alcotest.(check int) (name "messages") reference.messages (Network.messages_sent net);
      Alcotest.(check int) (name "words") reference.words (Network.words_sent net);
      let first_rounds = Rounds.total (Network.rounds net) in
      let again = Primitives.bfs_tree net ~root:(Vertex.local 0) in
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
      let want = ref [||] in
      let reference = observe ~kernel:`Ascending g (leader_run ~final:(( := ) want)) in
      let net = Network.create g (Rounds.create ()) in
      let leaders = Primitives.elect_leader net in
      Alcotest.(check (array int)) (Printf.sprintf "leaders seed %d" seed) !want leaders;
      Alcotest.(check int)
        (Printf.sprintf "leader messages seed %d" seed)
        reference.messages (Network.messages_sent net))
    seeds

(* ---------- adapter edge cases ---------- *)

let silent ~round:_ ~vertex:_ st _ = (st + 1, [])

let test_finished_at_start () =
  let net = Network.create (Generators.cycle 5) (Rounds.create ()) in
  let states, rounds =
    Network.run net ~label:"done" ~init:(fun _ -> 0)
      ~step:(fun ~round:_ ~vertex:_ _ _ -> Alcotest.fail "stepped")
      ~finished:(fun _ -> true) ()
  in
  Alcotest.(check int) "rounds" 0 rounds;
  Alcotest.(check (array int)) "states" (Array.make 5 0) states;
  Alcotest.(check int) "charged" 0 (Rounds.total (Network.rounds net))

let test_all_crashed () =
  let g = Generators.path 4 in
  let spec = { Faults.none with Faults.crashes = List.init 4 (fun v -> (v, 2)) } in
  let net = Network.create ~faults:(Faults.create spec) g (Rounds.create ()) in
  match
    Network.run net ~label:"crashed" ~init:(fun _ -> 0) ~step:silent
      ~finished:(fun _ -> false) ~max_rounds:25 ()
  with
  | exception Network.Round_limit_exceeded { executed; max_rounds; states = Packed _; _ } ->
    Alcotest.(check int) "executed" 25 executed;
    Alcotest.(check int) "limit" 25 max_rounds;
    Alcotest.(check int) "charged" 25 (Rounds.total (Network.rounds net))
  | _ -> Alcotest.fail "expected Round_limit_exceeded"

let test_on_round_every_round () =
  let net = Network.create (Generators.path 4) (Rounds.create ()) in
  let ticks = ref [] in
  let states, rounds =
    Network.run net ~label:"quiet" ~init:(fun _ -> 0) ~step:silent
      ~finished:(fun states -> states.(0) >= 6)
      ~on_round:(fun r states ->
        Alcotest.(check int) (Printf.sprintf "states after round %d" r) r states.(3);
        ticks := r :: !ticks)
      ()
  in
  Alcotest.(check int) "rounds" 6 rounds;
  Alcotest.(check (list int)) "on_round" [ 6; 5; 4; 3; 2; 1 ] !ticks;
  Alcotest.(check (array int)) "every vertex stepped every round" (Array.make 4 6) states;
  let ticks = ref 0 in
  ignore
    (Network.run_rounds net ~label:"quiet" ~init:(fun _ -> 0) ~step:silent
       ~on_round:(fun _ _ -> incr ticks)
       9);
  Alcotest.(check int) "run_rounds on_round" 9 !ticks

(* ---------- arena direct coverage ---------- *)

let test_arena_cursor_surface () =
  let g = Generators.cycle 6 in
  let a = Arena.create ~word_size:2 g in
  Alcotest.(check int) "word size" 2 (Arena.word_size a);
  Alcotest.(check int) "one slot per directed edge" (2 * Graph.num_plain_edges g)
    (Arena.slot_count a);
  let net = Network.create ~word_size:2 g (Rounds.create ()) in
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
  | exception Network.Congestion_violation msg ->
    Alcotest.(check string) "message" "vertex 0: 3 is not a neighbor" msg
  | _ -> Alcotest.fail "expected Congestion_violation"

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
   protocol through the adapter and the reference: the same inbox
   reads, messages and charge *)
let test_fixed_flood_vs_reference () =
  let g = gnp_graph 4 in
  let net = Network.create g (Rounds.create ()) in
  let cursor =
    Network.run_active_rounds net ~label:"fixed" ~init:(fun _ -> 0) ~step:(flood_step g) 5
  in
  let list_step ~round:_ ~vertex st inbox =
    let v = Vertex.local_int vertex in
    let out = ref [] in
    Graph.iter_neighbors g v (fun u -> out := (u, [| v |]) :: !out);
    (st + List.length inbox, !out)
  in
  let adapter_net = Network.create g (Rounds.create ()) in
  let adapter =
    Network.run_rounds adapter_net ~label:"fixed" ~init:(fun _ -> 0) ~step:list_step 5
  in
  let r = Reference.create g in
  let reference =
    Reference.run_rounds r ~init:(fun _ -> 0) ~step:list_step ~on_round:(fun _ _ -> ()) 5
  in
  Alcotest.(check (array int)) "cursor states" reference cursor;
  Alcotest.(check (array int)) "adapter states" reference adapter;
  Alcotest.(check int) "cursor messages" r.Reference.messages (Network.messages_sent net);
  Alcotest.(check int) "adapter messages" r.Reference.messages
    (Network.messages_sent adapter_net);
  Alcotest.(check int) "cursor charged" 5 (Rounds.total (Network.rounds net));
  Alcotest.(check int) "adapter charged" 5 (Rounds.total (Network.rounds adapter_net))

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
        [ Alcotest.test_case "bfs tree" `Quick test_cursor_bfs_tree;
          Alcotest.test_case "leader" `Quick test_cursor_leader ] );
      ( "adapter",
        [ Alcotest.test_case "finished at start" `Quick test_finished_at_start;
          Alcotest.test_case "all crashed" `Quick test_all_crashed;
          Alcotest.test_case "on_round every round" `Quick test_on_round_every_round ] );
      ( "arena",
        [ Alcotest.test_case "cursor surface" `Quick test_arena_cursor_surface;
          Alcotest.test_case "wake" `Quick test_wake_keeps_vertex_active;
          Alcotest.test_case "round limit" `Quick test_run_active_round_limit;
          Alcotest.test_case "violation" `Quick test_cursor_congestion_violation;
          Alcotest.test_case "wake_at round" `Quick test_wake_at_fires_on_its_round;
          Alcotest.test_case "wake_at past" `Quick test_wake_at_rejects_past_rounds;
          Alcotest.test_case "pending wake" `Quick test_pending_wake_keeps_run_alive;
          Alcotest.test_case "fixed length" `Quick test_run_active_rounds_fixed_length;
          Alcotest.test_case "fixed flood vs reference" `Quick test_fixed_flood_vs_reference;
          Alcotest.test_case "wake past limit" `Quick test_wake_beyond_max_rounds ] ) ]
