(** Synchronous message-passing simulation of the CONGEST model.

    A network wraps a communication graph. A protocol is a per-vertex
    state machine: in every round each vertex reads its inbox (the
    messages its neighbors sent in the previous round), updates its
    state and emits at most one message per incident edge. The kernel
    enforces the CONGEST discipline:

    - a message may only be sent to a neighbor;
    - at most one message per (vertex, incident edge) per round;
    - each message is one machine word, standing for O(log n) bits.

    Violations raise {!Congestion_violation} — this is how tests do
    failure injection. Rounds and message words are charged to a
    {!Rounds.t} ledger so protocol compositions have one cost ledger.

    A network may additionally carry a {!Faults.t} schedule: message
    drops and duplications are then applied inside every executed
    round, with each fault event reported to the schedule's observer.
    Congestion validation happens {e before} fault application — a
    protocol may not excuse a forbidden send by hoping the adversary
    drops it.

    When the ledger has a {!Dex_obs.Trace.t} attached
    ({!Rounds.attach_trace}, before the network is created), every
    executed round additionally emits a structured round tick (messages
    delivered, max per-edge congestion, active vertices), edge
    delivery counts accumulate into the trace's per-edge load histogram,
    and fault events are bridged into the trace. Networks over induced
    subgraphs carry a [vertex_map] so those metrics are reported in
    original-graph coordinates. Without an attached trace the kernel
    skips all of this — tracing off costs one pointer test per round. *)

(** {!Arena.Congestion_violation}, re-exported: raised by the first
    send that breaks the discipline, with the round and a structured
    {!Arena.violation} in original-graph ids ({!Arena.describe}
    renders it). *)
exception Congestion_violation of { round : int; violation : Arena.violation }

(** There is one round loop, so there is nothing to choose: the single
    constructor survives only for callers written against the former
    executor switch. *)
type executor = Staged

(** [set_default_executor Staged] does nothing. *)
val set_default_executor : executor -> unit

(** Raised by {!run_active} when the next round to step lies beyond
    [max_rounds]. The [max_rounds] rounds have already been charged to
    the ledger when this is raised. *)
exception
  Round_limit_exceeded of {
    label : string;
    max_rounds : int;
    executed : int;
  }

type t

(** [create ?faults ?vertex_map graph rounds] wraps [graph]. When
    [faults] is given, every executed round applies the schedule to
    its deliveries. [vertex_map] translates local vertex ids to
    original-graph ids for trace and error reporting (it must
    have exactly one entry per vertex); [Decomposition] passes it when
    it hands an induced subgraph to LDD. The trace handle, if any, is
    read from the ledger at creation time — attach it first. *)
val create :
  ?faults:Faults.t ->
  ?vertex_map:Dex_graph.Vertex.Map.t ->
  Dex_graph.Graph.t ->
  Rounds.t ->
  t

(** [graph t] is the underlying communication graph. *)
val graph : t -> Dex_graph.Graph.t

(** [messages_sent t] is the cumulative number of messages delivered:
    under a fault schedule, dropped messages are excluded and
    duplicated ones count twice. Every message is one machine word,
    so this is also the word count. *)
val messages_sent : t -> int

(** {1 Running a protocol}

    A protocol is an {!active_step} per vertex. Inboxes and outboxes are
    {!Arena} cursors over preallocated per-edge slots, and only
    {e active} vertices — those with a non-empty inbox or a wake — are
    stepped each round. *)

(** Per-round behaviour of one vertex, cursor form. Read the inbox
    with [Arena.Inbox.iter1], send with [Arena.Outbox.send1]; the
    cursors are only valid for the duration of the call. *)
type 's active_step =
  round:int ->
  vertex:Dex_graph.Vertex.local ->
  's ->
  Arena.inbox ->
  Arena.outbox ->
  's

(** [run_active ?shuffle t ~label ~init ~step ?max_rounds ?on_round ()]
    drives an {!active_step} protocol to quiescence: round 1 steps every
    vertex; afterwards only vertices that received a message, woke
    themselves ([Arena.Outbox.wake]) or reached a timed wake
    ([Arena.Outbox.wake_at]) are stepped. The protocol terminates when
    nothing is in flight and no wake is pending — so termination costs
    O(active), not O(n), and a protocol that needs stepping without
    traffic must wake. A pending timed wake keeps the run alive even
    when a round's worklist is empty.

    Rounds in which no vertex would be stepped are skipped, not
    executed: the step's [~round] is the true protocol round, which
    may jump by more than one. [on_round] and the trace's round ticks
    fire only on stepped rounds.

    Returns the final states and the index of the last stepped round,
    which is also what the ledger is charged under [label]. When the
    next round to step lies beyond [max_rounds] (default 1_000_000) —
    be it for traffic or for a pending timed wake —
    {!Round_limit_exceeded} is raised with [executed = max_rounds],
    after charging [max_rounds] rounds. The arena is built lazily on
    first use and reused across runs on the same network.

    The model leaves the order of a round's steps and of an inbox's
    deliveries unspecified. By default the kernel fixes one canonical
    order: ascending vertex, ascending sender. With [shuffle], every
    round steps its worklist in a fresh random order drawn from it, and
    every inbox cursor lists its deliveries in a fresh random order;
    delivery, counters and faults stay in ascending order. A protocol
    that computes the same thing either way is free of schedule races —
    {!Conformance.check} runs it both ways. *)
val run_active :
  ?shuffle:Dex_util.Rng.t ->
  t ->
  label:string ->
  init:(int -> 's) ->
  step:'s active_step ->
  ?max_rounds:int ->
  ?on_round:(int -> 's array -> unit) ->
  unit ->
  's array * int

(** [run_active_rounds t ~label ~init ~step ?on_round n] runs the
    {!active_step} protocol for the fixed length of [n] rounds and
    returns the final states.
    It shares {!run_active}'s loop, so only active vertices are
    stepped and idle rounds are skipped. It stops after round [n] even
    if messages are still in flight or wakes are pending (both are
    discarded); a protocol that quiesces earlier simply steps nothing
    more. Either way it charges exactly [n] rounds under [label] and
    never raises {!Round_limit_exceeded}. [on_round] fires only on
    stepped rounds. *)
val run_active_rounds :
  t ->
  label:string ->
  init:(int -> 's) ->
  step:'s active_step ->
  ?on_round:(int -> 's array -> unit) ->
  int ->
  's array

(** [charge t ~label k] charges [k] rounds for an accounted (not
    message-level executed) protocol phase. *)
val charge : t -> label:string -> int -> unit

(** [rounds t] is the ledger. *)
val rounds : t -> Rounds.t
