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

(* one constructor and nothing to set: the cursor kernel is the only
   round loop. Kept so callers written against the former executor
   switch still compile. *)
type executor = Staged

let set_default_executor Staged = ()

type t = {
  graph : Graph.t;
  ledger : Rounds.t;
  word_size : int;
  faults : Faults.t option;
  vertex_map : Vertex.Map.t option; (* local -> original-graph vertex ids *)
  trace : Trace.t option; (* cached from the ledger at creation *)
  mutable arena : Arena.t option; (* built on first run *)
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

let create ?(word_size = 1) ?faults ?vertex_map graph ledger =
  Invariant.require (word_size >= 1) ~where:"Network.create" "word_size must be >= 1";
  (match vertex_map with
  | Some map when Vertex.Map.length map <> Graph.num_vertices graph ->
    Invariant.fail ~where:"Network.create" "vertex_map length must equal the vertex count"
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
  { graph; ledger; word_size; faults; vertex_map; trace; arena = None; messages = 0; words = 0 }

let graph t = t.graph
let messages_sent t = t.messages
let words_sent t = t.words
let rounds t = t.ledger
let faults t = t.faults
let vertex_map t = t.vertex_map
let charge t ~label k = Rounds.charge t.ledger ~label k

let top_edges t k = match t.trace with Some tr -> Trace.top_edges tr k | None -> []

(* [orig t v] reports [v] in original-graph coordinates: violation
   messages raised from deep inside a recursive decomposition must name
   the vertex of the instance the caller actually built. *)
let orig t v =
  match t.vertex_map with Some m -> Vertex.orig_int (Vertex.Map.get m v) | None -> v

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
      ~compare:(fun (a, b) (c, d) -> match Int.compare a c with 0 -> Int.compare b d | k -> k)
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

let arena_of t =
  match t.arena with
  | Some a -> a
  | None ->
    let a = Arena.create ~word_size:t.word_size ~to_orig:(fun v -> orig t v) t.graph in
    t.arena <- Some a;
    a

let notify on_round round states =
  match on_round with Some f -> f round states | None -> ()

(* The round loop: every driver below runs on it. It steps each
   round's worklist until the worklist empties, the next round to step
   is past [last], or — when [finished] is given — [finished states]
   holds at a round boundary with nothing delivered in the round
   before (tested before round 1 too). The round number comes from the
   arena, which skips idle rounds, so a step sees its true protocol
   round. Returns the states, the last stepped round (0 if none) and
   why the loop ended. *)
let drive_active t ~init ~step ~on_round ~last ~finished =
  let n = Graph.num_vertices t.graph in
  let a = arena_of t in
  Arena.begin_run a;
  let states = Array.init n init in
  let ib = Arena.make_inbox a and ob = Arena.make_outbox a in
  let stepped = ref 0 and in_flight = ref false and stopped = ref false in
  let stop () =
    match finished with
    | Some f ->
      stopped := f states && not !in_flight;
      !stopped
    | None -> false
  in
  while (not (stop ())) && Arena.active_count a > 0 && Arena.round a <= last do
    let round = Arena.round a in
    let active = Arena.active_count a in
    (* Phase A: step active vertices through the reusable cursors *)
    for i = 0 to active - 1 do
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
    (* Phase B: deliver in canonical (ascending vertex, then ascending
       destination) order; all fault and counter recording lives here *)
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
    let verdict src dst words =
      match t.faults with
      | None ->
        record src dst words 1;
        `Deliver
      | Some f ->
        (match Faults.verdict f ~round ~src:(Vertex.local src) ~dst:(Vertex.local dst) with
        | `Deliver ->
          record src dst words 1;
          `Deliver
        | `Drop -> `Drop
        | `Duplicate ->
          record src dst words 2;
          `Duplicate)
    in
    for i = 0 to active - 1 do
      let v = Arena.active_get a i in
      let crashed =
        match t.faults with
        | Some f -> Faults.crashed f ~round ~vertex:(Vertex.local v)
        | None -> false
      in
      if not crashed then begin
        Arena.deliver_staged a v verdict
      end
    done;
    emit_stats t stats ~round ~messages_before ~words_before;
    in_flight := t.messages > messages_before;
    Arena.finish_round a;
    stepped := round;
    notify on_round round states
  done;
  let ended =
    if !stopped then `Stopped else if Arena.active_count a = 0 then `Quiescent else `Cut
  in
  (states, !stepped, ended)

(* ---------------- list API: an adapter over the round loop -------- *)

(* each live vertex reads its inbox as a list, sends its outbox through
   the arena (which validates it) and wakes, so it is stepped every
   round whether or not it received anything *)
let rec send_all ob = function
  | [] -> ()
  | (u, msg) :: rest ->
    Arena.Outbox.send ob ~dst:(Vertex.local u) msg;
    send_all ob rest

let list_step step ~round ~vertex st ib ob =
  let st, outbox = step ~round ~vertex st (Arena.Inbox.to_list ib) in
  send_all ob outbox;
  Arena.Outbox.wake ob;
  st

let run t ~label ~init ~step ~finished ?(max_rounds = 1_000_000) ?on_round () =
  let states, stepped, ended =
    drive_active t ~init ~step:(list_step step) ~on_round ~last:max_rounds
      ~finished:(Some finished)
  in
  (* a run that never met its stop test used up all max_rounds rounds,
     stepped or (every vertex crashed) not *)
  let executed = match ended with `Stopped -> stepped | `Quiescent | `Cut -> max_rounds in
  (* the rounds really elapsed: charge them before raising so the
     ledger stays truthful on failure *)
  Rounds.charge t.ledger ~label executed;
  if not (finished states) then
    raise (Round_limit_exceeded { label; max_rounds; executed; states = Packed states });
  (states, executed)

let run_rounds t ~label ~init ~step ?on_round n_rounds =
  let states, _, _ =
    drive_active t ~init ~step:(list_step step) ~on_round ~last:n_rounds ~finished:None
  in
  Rounds.charge t.ledger ~label n_rounds;
  states

(* ---------------- cursor API ---------------- *)

let run_active t ~label ~init ~step ?(max_rounds = 1_000_000) ?on_round () =
  let states, stepped, ended =
    drive_active t ~init ~step ~on_round ~last:max_rounds ~finished:None
  in
  if ended = `Cut then begin
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
  let states, _, _ =
    drive_active t ~init ~step ~on_round ~last:n_rounds ~finished:None
  in
  Rounds.charge t.ledger ~label n_rounds;
  states
