module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Trace = Dex_obs.Trace
module Invariant = Dex_util.Invariant
module Rng = Dex_util.Rng

exception Congestion_violation = Arena.Congestion_violation

exception
  Round_limit_exceeded of {
    label : string;
    max_rounds : int;
    executed : int;
  }

(* one constructor and nothing to set: the cursor kernel is the only
   round loop. Kept so callers written against the former executor
   switch still compile. *)
type executor = Staged

let set_default_executor Staged = ()

(* Per-round trace counters on the arena's slot indices, allocated
   with the arena and only when a trace is attached. An undirected edge
   counts at the slot of its smaller endpoint; round stamps mark which
   slots and vertices the current round touched, so a traced round
   allocates nothing and clears nothing. *)
type tracer = {
  tr : Trace.t;
  load : int array; (* per slot: deliveries this round *)
  load_at : int array; (* per slot: stamp of the round [load] counts *)
  seen_at : int array; (* per vertex: stamp of the last round touching it *)
  mutable stamp : int; (* the current round's; stale marks never match it *)
  mutable active : int;
  mutable max_load : int;
}

type t = {
  graph : Graph.t;
  ledger : Rounds.t;
  faults : Faults.t option;
  vertex_map : Vertex.Map.t option; (* local -> original-graph vertex ids *)
  trace : Trace.t option; (* cached from the ledger at creation *)
  mutable arena : Arena.t option; (* built on first run *)
  mutable tracer : tracer option; (* built with the arena, if traced *)
  mutable messages : int;
}

type 's active_step =
  round:int -> vertex:Vertex.local -> 's -> Arena.inbox -> Arena.outbox -> 's

(* [to_orig map v] reports [v] in original-graph coordinates: violations
   raised from deep inside a recursive decomposition must name the
   vertex of the instance the caller actually built. *)
let to_orig vertex_map v =
  match vertex_map with Some m -> Vertex.orig_int (Vertex.Map.get m v) | None -> v

let create ?faults ?vertex_map graph ledger =
  (match vertex_map with
  | Some map when Vertex.Map.length map <> Graph.num_vertices graph ->
    Invariant.fail ~where:"Network.create" "vertex_map length must equal the vertex count"
  | _ -> ());
  let trace = Rounds.trace ledger in
  let map = to_orig vertex_map in
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
           in
           Trace.fault tr ~kind ~round ~src ~dst))
  | _ -> ());
  { graph;
    ledger;
    faults;
    vertex_map;
    trace;
    arena = None;
    tracer = None;
    messages = 0 }

let graph t = t.graph
let messages_sent t = t.messages
let rounds t = t.ledger
let charge t ~label k = Rounds.charge t.ledger ~label k

let touch s v =
  if s.seen_at.(v) <> s.stamp then begin
    s.seen_at.(v) <- s.stamp;
    s.active <- s.active + 1
  end

let count_delivery t s a ~src ~dst ~slot times =
  let e = if src < dst then slot else Arena.mirror a slot in
  if s.load_at.(e) <> s.stamp then begin
    s.load_at.(e) <- s.stamp;
    s.load.(e) <- 0
  end;
  s.load.(e) <- s.load.(e) + times;
  s.max_load <- Int.max s.max_load s.load.(e);
  Trace.count_edge s.tr (to_orig t.vertex_map src) (to_orig t.vertex_map dst) ~by:times;
  touch s src;
  touch s dst

let arena_of t =
  match t.arena with
  | Some a -> a
  | None ->
    let a = Arena.create ~to_orig:(to_orig t.vertex_map) t.graph in
    t.arena <- Some a;
    t.tracer <-
      Option.map
        (fun tr ->
          let slots = Arena.slot_count a in
          { tr;
            load = Array.make slots 0;
            load_at = Array.make slots 0;
            seen_at = Array.make (Graph.num_vertices t.graph) 0;
            stamp = 1;
            active = 0;
            max_load = 0 })
        t.trace;
    a

(* The round loop: it steps each round's worklist until the worklist
   empties or the next round to step is past [last]. The round number
   comes from the arena, which skips idle rounds, so a step sees its
   true protocol round. With [shuffle], each round's steps run in a
   fresh random order and each inbox lists its deliveries in one;
   delivery (Phase B) is ascending either way. Returns the states, the
   last stepped round (0 if none) and whether the run quiesced. *)
let drive_active ?shuffle t ~init ~step ~on_round ~last =
  let n = Graph.num_vertices t.graph in
  let a = arena_of t in
  Arena.begin_run a;
  let states = Array.init n init in
  let ib = Arena.make_inbox a and ob = Arena.make_outbox a in
  let order = match shuffle with Some _ -> Array.make n 0 | None -> [||] in
  let tracer = t.tracer in
  let stepped = ref 0 in
  (* [verdict] reads the round from the arena, so one closure serves
     the whole run *)
  let verdict src dst slot =
    let fate =
      match t.faults with
      | None -> `Deliver
      | Some f ->
        Faults.verdict f ~round:(Arena.round a) ~src:(Vertex.local src) ~dst:(Vertex.local dst)
    in
    let times = match fate with `Deliver -> 1 | `Duplicate -> 2 | `Drop -> 0 in
    if times > 0 then begin
      t.messages <- t.messages + times;
      match tracer with Some s -> count_delivery t s a ~src ~dst ~slot times | None -> ()
    end;
    fate
  in
  while Arena.active_count a > 0 && Arena.round a <= last do
    let round = Arena.round a in
    let active = Arena.active_count a in
    (match shuffle with
    | Some rng ->
      for i = 0 to active - 1 do
        order.(i) <- Arena.active_get a i
      done;
      Rng.shuffle ~len:active rng order
    | None -> ());
    (* Phase A: step active vertices through the reusable cursors *)
    for i = 0 to active - 1 do
      let v = match shuffle with None -> Arena.active_get a i | Some _ -> order.(i) in
      Arena.set_inbox ?shuffle ib v;
      Arena.set_outbox ob v;
      states.(v) <- step ~round ~vertex:(Vertex.local v) states.(v) ib ob
    done;
    (* Phase B: deliver in canonical (ascending vertex, then ascending
       destination) order; all fault and counter recording lives here *)
    let messages_before = t.messages in
    for i = 0 to active - 1 do
      Arena.deliver_staged a (Arena.active_get a i) verdict
    done;
    (match tracer with
    | Some s ->
      Trace.round_tick s.tr ~round ~messages:(t.messages - messages_before)
        ~max_edge_load:s.max_load ~active:s.active;
      s.stamp <- s.stamp + 1;
      s.active <- 0;
      s.max_load <- 0
    | None -> ());
    Arena.finish_round a;
    stepped := round;
    match on_round with Some f -> f round states | None -> ()
  done;
  (states, !stepped, Arena.active_count a = 0)

let run_active ?shuffle t ~label ~init ~step ?(max_rounds = 1_000_000) ?on_round () =
  let states, stepped, quiescent =
    drive_active ?shuffle t ~init ~step ~on_round ~last:max_rounds
  in
  if not quiescent then begin
    (* rounds 1..max_rounds all elapsed, stepped or idle: charge them
       before raising so the ledger stays truthful on failure *)
    Rounds.charge t.ledger ~label max_rounds;
    raise (Round_limit_exceeded { label; max_rounds; executed = max_rounds })
  end;
  Rounds.charge t.ledger ~label stepped;
  (states, stepped)

let run_active_rounds t ~label ~init ~step ?on_round n_rounds =
  let states, _, _ = drive_active t ~init ~step ~on_round ~last:n_rounds in
  Rounds.charge t.ledger ~label n_rounds;
  states
