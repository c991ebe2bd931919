module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Trace = Dex_obs.Trace
module Invariant = Dex_util.Invariant

exception Congestion_violation = Arena.Congestion_violation

type packed_states = Packed : 'a array -> packed_states

exception
  Round_limit_exceeded of {
    label : string;
    max_rounds : int;
    executed : int;
    states : packed_states;
  }

type message = int array

type executor = Legacy | Staged | Parallel of int

(* process-global default so experiment drivers can flip every network
   they create onto one executor without threading a parameter through
   each call site *)
let default_executor = ref Staged
let set_default_executor e = default_executor := e

(* per-executor duplicate-send scratch: [seen.(u) = epoch] marks one
   message already bound for [u] this validation. Epoch stamping makes
   the array reusable without clearing; each domain of the parallel
   executor owns its own scratch. *)
type vscratch = { seen : int array; mutable epoch : int }

type t = {
  graph : Graph.t;
  ledger : Rounds.t;
  word_size : int;
  faults : Faults.t option;
  vertex_map : Vertex.Map.t option; (* local -> original-graph vertex ids *)
  trace : Trace.t option; (* cached from the ledger at creation *)
  executor : executor;
  shard_min : int; (* smallest active set worth spawning domains for *)
  scratches : vscratch array; (* one per domain; index 0 = sequential *)
  mutable outbox_buf : (int * message) list array; (* staged Phase A results *)
  mutable arena : Arena.t option; (* built on first run_active *)
  mutable messages : int;
  mutable words : int;
}

type 's step =
  round:int ->
  vertex:Vertex.local ->
  's ->
  (int * message) list ->
  's * (int * message) list

type 's active_step =
  round:int -> vertex:Vertex.local -> 's -> Arena.inbox -> Arena.outbox -> 's

let create ?(word_size = 1) ?faults ?vertex_map ?executor ?(shard_min = 512) graph
    ledger =
  Invariant.require (word_size >= 1) ~where:"Network.create" "word_size must be >= 1";
  (match vertex_map with
  | Some map when Vertex.Map.length map <> Graph.num_vertices graph ->
    Invariant.fail ~where:"Network.create" "vertex_map length must equal the vertex count"
  | _ -> ());
  let executor = match executor with Some e -> e | None -> !default_executor in
  (match executor with
  | Parallel k when k < 1 ->
    Invariant.fail ~where:"Network.create" "Parallel executor needs at least 1 domain"
  | _ -> ());
  let trace = Rounds.trace ledger in
  let map v =
    match vertex_map with Some m -> Vertex.orig_int (Vertex.Map.get m v) | None -> v
  in
  (match (faults, trace) with
  | Some f, Some tr ->
    (* bridge every fault decision into the structured trace, in
       original-graph coordinates *)
    Faults.set_observer f
      (Some
         (fun fault ->
           let kind, round, src, dst =
             match fault with
             | Faults.Drop { round; src; dst } -> ("drop", round, map src, map dst)
             | Faults.Duplicate { round; src; dst } ->
               ("duplicate", round, map src, map dst)
             | Faults.Link_down { round; u; v } -> ("link-down", round, map u, map v)
             | Faults.Crash { round; vertex } -> ("crash", round, map vertex, -1)
           in
           Trace.fault tr ~kind ~round ~src ~dst))
  | _ -> ());
  let n = Graph.num_vertices graph in
  let domains = match executor with Parallel k -> max k 1 | _ -> 1 in
  { graph;
    ledger;
    word_size;
    faults;
    vertex_map;
    trace;
    executor;
    shard_min;
    scratches =
      Array.init domains (fun _ -> { seen = Array.make n 0; epoch = 0 });
    outbox_buf = [||];
    arena = None;
    messages = 0;
    words = 0 }

let graph t = t.graph
let messages_sent t = t.messages
let words_sent t = t.words
let rounds t = t.ledger
let faults t = t.faults
let vertex_map t = t.vertex_map
let executor t = t.executor
let charge t ~label k = Rounds.charge t.ledger ~label k

let top_edges t k = match t.trace with Some tr -> Trace.top_edges tr k | None -> []

(* [orig t v] reports [v] in original-graph coordinates: violation
   messages raised from deep inside a recursive decomposition must name
   the vertex of the instance the caller actually built. *)
let orig t v =
  match t.vertex_map with Some m -> Vertex.orig_int (Vertex.Map.get m v) | None -> v

let validate_outbox t sc v outbox =
  (* one message per incident edge: with simple graphs this is one per
     distinct neighbor; detect duplicates and non-neighbors. The
     epoch-stamped scratch plus a binary neighbor-rank probe replaces
     the old per-vertex-per-round Hashtbl + mem_edge pair: zero
     allocation and one cache-resident array. Check order (budget,
     then neighbor, then duplicate) matches the legacy validator, so
     [sc.seen] is only ever indexed by an in-range neighbor id. *)
  sc.epoch <- sc.epoch + 1;
  let ep = sc.epoch in
  List.iter
    (fun (u, (msg : message)) ->
      if Array.length msg > t.word_size then
        raise
          (Congestion_violation
             (Printf.sprintf "vertex %d: message of %d words exceeds budget %d" (orig t v)
                (Array.length msg) t.word_size));
      if u = v || Graph.neighbor_rank t.graph v u < 0 then
        raise
          (Congestion_violation
             (Printf.sprintf "vertex %d: %d is not a neighbor" (orig t v) (orig t u)));
      if sc.seen.(u) = ep then
        raise
          (Congestion_violation
             (Printf.sprintf "vertex %d: two messages on edge to %d in one round" (orig t v)
                (orig t u)));
      sc.seen.(u) <- ep)
    outbox

(* per-round tracing accumulators; allocated only when a trace is
   attached, so disabled tracing costs one match per delivery *)
type round_stats = {
  tr : Trace.t;
  loads : (int * int, int) Hashtbl.t; (* local undirected edge -> deliveries *)
  touched : bool array;
}

let make_stats t =
  match t.trace with
  | None -> None
  | Some tr ->
    Some
      { tr;
        loads = Hashtbl.create 64;
        touched = Array.make (Graph.num_vertices t.graph) false }

let emit_stats t ~round ~messages_before ~words_before = function
  | Some { tr; loads; touched } ->
    let map v = orig t v in
    let max_load = ref 0 in
    Dex_util.Table.iter_sorted
      (fun (u, v) c ->
        if c > !max_load then max_load := c;
        Trace.count_edge tr (map u) (map v) ~by:c)
      loads;
    let active = ref 0 in
    Array.iter (fun b -> if b then incr active) touched;
    Trace.round_tick tr ~round
      ~messages:(t.messages - messages_before)
      ~words:(t.words - words_before)
      ~max_edge_load:!max_load ~active:!active
  | None -> ()

(* ---------------- legacy executor: interleaved step + delivery ----- *)

let exec_round t ~round states inboxes step =
  let n = Graph.num_vertices t.graph in
  let next_inboxes = Array.make n [] in
  let stats = make_stats t in
  let messages_before = t.messages and words_before = t.words in
  let deliver src dst msg =
    t.messages <- t.messages + 1;
    t.words <- t.words + Array.length msg;
    (match stats with
    | Some { loads; touched; _ } ->
      touched.(src) <- true;
      touched.(dst) <- true;
      let e = (min src dst, max src dst) in
      let prev = try Hashtbl.find loads e with Not_found -> 0 in
      Hashtbl.replace loads e (prev + 1)
    | None -> ());
    (* dex-lint: allow C002 relays messages validate_outbox already checked against the budget *)
    next_inboxes.(dst) <- (src, msg) :: next_inboxes.(dst)
  in
  for v = 0 to n - 1 do
    let crashed =
      match t.faults with
      | Some f -> Faults.crashed f ~round ~vertex:(Vertex.local v)
      | None -> false
    in
    (* a crashed vertex executes no step, sends nothing and its inbox
       is lost (crash-stop) *)
    if not crashed then begin
      let state', outbox = step ~round ~vertex:(Vertex.local v) states.(v) inboxes.(v) in
      states.(v) <- state';
      validate_outbox t t.scratches.(0) v outbox;
      List.iter
        (fun (u, msg) ->
          match t.faults with
          | None -> deliver v u msg
          | Some f ->
            (match Faults.verdict f ~round ~src:(Vertex.local v) ~dst:(Vertex.local u) with
            | `Deliver -> deliver v u msg
            | `Drop -> ()
            | `Duplicate ->
              deliver v u msg;
              deliver v u msg))
        outbox
    end
  done;
  emit_stats t stats ~round ~messages_before ~words_before;
  next_inboxes

(* ---------------- staged executors: Phase A step, Phase B deliver -- *)

(* Phase A steps every vertex against the immutable previous-round
   inboxes and parks the validated outboxes in [t.outbox_buf]; only
   reads of the fault schedule happen here ([Faults.is_crashed]), so
   the phase may be sharded across domains: each vertex writes
   states.(v) and outbox_buf.(v) for its own v only. Phase B then
   walks vertices in ascending order doing everything stateful —
   crash recording, fault verdicts, delivery counters, trace stats —
   reproducing the legacy executor's event order exactly. *)

let outbox_buf t =
  let n = Graph.num_vertices t.graph in
  if Array.length t.outbox_buf <> n then t.outbox_buf <- Array.make n [];
  t.outbox_buf

let chunk_bounds ~chunks ~extent i =
  (i * extent / chunks, (i + 1) * extent / chunks)

(* run [work lo hi domain_index] over [0, extent) sharded across
   [domains] chunks. Each chunk reports its first exception; the
   lowest chunk's exception is re-raised, which is the lowest erroring
   vertex since chunks are contiguous and ascending — the same
   exception the sequential executor would have raised. *)
let run_sharded ~domains ~extent work =
  if domains <= 1 || extent < 2 then
    match work 0 extent 0 with Some e -> raise e | None -> ()
  else begin
    let chunks = min domains extent in
    let spawned =
      Array.init (chunks - 1) (fun j ->
          let lo, hi = chunk_bounds ~chunks ~extent (j + 1) in
          Domain.spawn (fun () -> work lo hi (j + 1)))
    in
    let lo, hi = chunk_bounds ~chunks ~extent 0 in
    let first = work lo hi 0 in
    let results = Array.map Domain.join spawned in
    (match first with Some e -> raise e | None -> ());
    Array.iter (function Some e -> raise e | None -> ()) results
  end

(* Domain.spawn costs milliseconds; sharding a narrow round can never
   repay it, so the parallel executor falls back to the sequential
   Phase A below [shard_min] stepped vertices. The decision only picks
   who executes Phase A — results are bit-identical either way. *)
let effective_domains t ~active =
  match t.executor with
  | Parallel k when active >= t.shard_min -> k
  | Parallel _ | Legacy | Staged -> 1

let exec_round_staged t ~round ~domains states inboxes step =
  let n = Graph.num_vertices t.graph in
  let buf = outbox_buf t in
  let work lo hi ci =
    try
      for v = lo to hi - 1 do
        let crashed =
          match t.faults with
          | Some f -> Faults.is_crashed f ~round ~vertex:(Vertex.local v)
          | None -> false
        in
        if crashed then buf.(v) <- []
        else begin
          let state', outbox =
            step ~round ~vertex:(Vertex.local v) states.(v) inboxes.(v)
          in
          states.(v) <- state';
          validate_outbox t t.scratches.(ci) v outbox;
          buf.(v) <- outbox
        end
      done;
      None
    with e -> Some e
  in
  run_sharded ~domains ~extent:n work;
  (* Phase B: sequential, ascending vertex order *)
  let next_inboxes = Array.make n [] in
  let stats = make_stats t in
  let messages_before = t.messages and words_before = t.words in
  let deliver src dst msg =
    t.messages <- t.messages + 1;
    t.words <- t.words + Array.length msg;
    (match stats with
    | Some { loads; touched; _ } ->
      touched.(src) <- true;
      touched.(dst) <- true;
      let e = (min src dst, max src dst) in
      let prev = try Hashtbl.find loads e with Not_found -> 0 in
      Hashtbl.replace loads e (prev + 1)
    | None -> ());
    (* dex-lint: allow C002 relays messages validate_outbox already checked against the budget *)
    next_inboxes.(dst) <- (src, msg) :: next_inboxes.(dst)
  in
  for v = 0 to n - 1 do
    let crashed =
      match t.faults with
      | Some f -> Faults.crashed f ~round ~vertex:(Vertex.local v)
      | None -> false
    in
    if not crashed then
      List.iter
        (fun (u, msg) ->
          match t.faults with
          | None -> deliver v u msg
          | Some f ->
            (match Faults.verdict f ~round ~src:(Vertex.local v) ~dst:(Vertex.local u) with
            | `Deliver -> deliver v u msg
            | `Drop -> ()
            | `Duplicate ->
              deliver v u msg;
              deliver v u msg))
        buf.(v);
    buf.(v) <- []
  done;
  emit_stats t stats ~round ~messages_before ~words_before;
  (next_inboxes, t.messages - messages_before)

(* ---------------- list-API drivers ---------------- *)

let notify on_round round states =
  match on_round with Some f -> f round states | None -> ()

let run t ~label ~init ~step ~finished ?(max_rounds = 1_000_000) ?on_round () =
  let n = Graph.num_vertices t.graph in
  let states = Array.init n init in
  let inboxes = ref (Array.make n []) in
  let executed = ref 0 in
  (* a protocol is complete only when its predicate holds AND no
     message is still in flight — otherwise the wave it just sent
     would be lost *)
  (match t.executor with
  | Legacy ->
    let in_flight () = Array.exists (fun inbox -> inbox <> []) !inboxes in
    while (not (finished states && not (in_flight ()))) && !executed < max_rounds do
      incr executed;
      inboxes := exec_round t ~round:!executed states !inboxes step;
      notify on_round !executed states
    done
  | Staged | Parallel _ ->
    let domains = effective_domains t ~active:n in
    (* incremental in-flight: the staged executor already counted this
       round's deliveries, so no O(n) rescan of the inboxes *)
    let in_flight = ref false in
    while (not (finished states && not !in_flight)) && !executed < max_rounds do
      incr executed;
      let next, delivered =
        exec_round_staged t ~round:!executed ~domains states !inboxes step
      in
      inboxes := next;
      in_flight := delivered > 0;
      notify on_round !executed states
    done);
  if not (finished states) then begin
    (* the rounds were really executed: charge them before raising so
       the ledger stays truthful on failure *)
    Rounds.charge t.ledger ~label !executed;
    raise
      (Round_limit_exceeded
         { label; max_rounds; executed = !executed; states = Packed states })
  end;
  Rounds.charge t.ledger ~label !executed;
  (states, !executed)

let run_rounds t ~label ~init ~step ?on_round n_rounds =
  let n = Graph.num_vertices t.graph in
  let states = Array.init n init in
  let inboxes = ref (Array.make n []) in
  (match t.executor with
  | Legacy ->
    for round = 1 to n_rounds do
      inboxes := exec_round t ~round states !inboxes step;
      notify on_round round states
    done
  | Staged | Parallel _ ->
    let domains = effective_domains t ~active:n in
    for round = 1 to n_rounds do
      let next, _ = exec_round_staged t ~round ~domains states !inboxes step in
      inboxes := next;
      notify on_round round states
    done);
  Rounds.charge t.ledger ~label n_rounds;
  states

(* ---------------- cursor API: arena-backed active-set driver ------- *)

let arena_of t =
  match t.arena with
  | Some a -> a
  | None ->
    let a = Arena.create ~word_size:t.word_size ~to_orig:(fun v -> orig t v) t.graph in
    t.arena <- Some a;
    a

(* The one Phase A/B loop behind both cursor drivers. It steps each
   round's worklist until the worklist empties or the next round to
   step is past [last]. The round number comes from the arena, which
   skips idle rounds, so a step sees its true protocol round. Returns
   the states, the last stepped round (0 if none) and whether the run
   reached quiescence. *)
let drive_active t ~init ~step ~on_round ~last =
  let n = Graph.num_vertices t.graph in
  let a = arena_of t in
  Arena.begin_run a;
  let states = Array.init n init in
  let max_domains = match t.executor with Parallel k -> k | Legacy | Staged -> 1 in
  let ibs = Array.init (max max_domains 1) (fun _ -> Arena.make_inbox a) in
  let obs = Array.init (max max_domains 1) (fun _ -> Arena.make_outbox a) in
  let stepped = ref 0 in
  while Arena.active_count a > 0 && Arena.round a <= last do
    let round = Arena.round a in
    let active = Arena.active_count a in
    (* Phase A: step active vertices through reusable cursors *)
    let work lo hi ci =
      try
        let ib = ibs.(ci) and ob = obs.(ci) in
        for i = lo to hi - 1 do
          let v = Arena.active_get a i in
          let crashed =
            match t.faults with
            | Some f -> Faults.is_crashed f ~round ~vertex:(Vertex.local v)
            | None -> false
          in
          if not crashed then begin
            Arena.set_inbox ib v;
            Arena.set_outbox ob v;
            states.(v) <- step ~round ~vertex:(Vertex.local v) states.(v) ib ob
          end
        done;
        None
      with e -> Some e
    in
    run_sharded ~domains:(effective_domains t ~active) ~extent:active work;
    Array.iter Arena.schedule_wakes obs;
    (* Phase B: sequential merge in canonical (ascending vertex, then
       ascending destination) order *)
    let stats = make_stats t in
    let messages_before = t.messages and words_before = t.words in
    let record src dst words times =
      t.messages <- t.messages + times;
      t.words <- t.words + (times * words);
      match stats with
      | Some { loads; touched; _ } ->
        touched.(src) <- true;
        touched.(dst) <- true;
        let e = (min src dst, max src dst) in
        let prev = try Hashtbl.find loads e with Not_found -> 0 in
        Hashtbl.replace loads e (prev + times)
      | None -> ()
    in
    for i = 0 to active - 1 do
      let v = Arena.active_get a i in
      let crashed =
        match t.faults with
        | Some f -> Faults.crashed f ~round ~vertex:(Vertex.local v)
        | None -> false
      in
      if not crashed then begin
        Arena.deliver_staged a v (fun dst words ->
            match t.faults with
            | None ->
              record v dst words 1;
              `Deliver
            | Some f ->
              (match
                 Faults.verdict f ~round ~src:(Vertex.local v) ~dst:(Vertex.local dst)
               with
              | `Deliver ->
                record v dst words 1;
                `Deliver
              | `Drop -> `Drop
              | `Duplicate ->
                record v dst words 2;
                `Duplicate));
        if Arena.woke a v then Arena.push_active a v
      end
    done;
    emit_stats t stats ~round ~messages_before ~words_before;
    Arena.finish_round a;
    stepped := round;
    notify on_round round states
  done;
  (states, !stepped, Arena.active_count a = 0)

let run_active t ~label ~init ~step ?(max_rounds = 1_000_000) ?on_round () =
  let states, stepped, quiescent = drive_active t ~init ~step ~on_round ~last:max_rounds in
  if not quiescent then begin
    (* rounds 1..max_rounds all elapsed, stepped or idle: charge them
       before raising so the ledger stays truthful on failure *)
    Rounds.charge t.ledger ~label max_rounds;
    raise
      (Round_limit_exceeded
         { label; max_rounds; executed = max_rounds; states = Packed states })
  end;
  Rounds.charge t.ledger ~label stepped;
  (states, stepped)

let run_active_rounds t ~label ~init ~step ?on_round n_rounds =
  let states, _, _ = drive_active t ~init ~step ~on_round ~last:n_rounds in
  Rounds.charge t.ledger ~label n_rounds;
  states
