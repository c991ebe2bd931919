(** Synchronous message-passing simulation of the CONGEST model.

    A network wraps a communication graph. A protocol is a per-vertex
    state machine: in every round each vertex reads its inbox (the
    messages its neighbors sent in the previous round), updates its
    state and emits at most one message per incident edge. The kernel
    enforces the CONGEST discipline:

    - a message may only be sent to a neighbor;
    - at most one message per (vertex, incident edge) per round;
    - each message carries at most [word_size] machine words, a word
      standing for O(log n) bits.

    Violations raise {!Congestion_violation} — this is how tests do
    failure injection. Rounds and message words are charged to a
    {!Rounds.t} ledger so protocol compositions have one cost ledger.

    A network may additionally carry a {!Faults.t} schedule: message
    drops/duplications, permanent link failures and crash-stop vertex
    faults are then applied inside every executed round, with each
    fault event recorded in the schedule's trace. Congestion validation
    happens {e before} fault application — a protocol may not excuse an
    oversized message by hoping the adversary drops it.

    When the ledger has a {!Dex_obs.Trace.t} attached
    ({!Rounds.attach_trace}, before the network is created), every
    executed round additionally emits a structured round tick (messages
    delivered, words, max per-edge congestion, active vertices), edge
    delivery counts accumulate into the trace's per-edge load histogram,
    and fault events are bridged into the trace. Networks over induced
    subgraphs carry a [vertex_map] so those metrics are reported in
    original-graph coordinates. Without an attached trace the kernel
    skips all of this — tracing off costs one pointer test per round. *)

(** Same exception as {!Arena.Congestion_violation} (re-exported):
    handlers written against either name catch violations raised by
    either API, list-based or cursor-based. *)
exception Congestion_violation of string

(** There is one round loop, so there is nothing to choose: the single
    constructor survives only for callers written against the former
    executor switch. *)
type executor = Staged

(** [set_default_executor Staged] does nothing. *)
val set_default_executor : executor -> unit

(** Final states of a protocol that hit its round limit, with the
    element type hidden (protocol state types differ per caller). *)
type packed_states = Packed : 'a array -> packed_states

(** Raised by {!run} when [max_rounds] is exhausted before the
    [finished] predicate holds. The executed rounds have already been
    charged to the ledger when this is raised. *)
exception
  Round_limit_exceeded of {
    label : string;
    max_rounds : int;
    executed : int;
    states : packed_states;
  }

type t

(** [create ?word_size ?faults ?vertex_map graph rounds] wraps [graph];
    [word_size] (default 1) is the per-message word budget. When
    [faults] is given, every executed round applies the schedule to
    deliveries and step execution. [vertex_map] translates local vertex
    ids to original-graph ids for trace and error reporting (it must
    have exactly one entry per vertex); {!Primitives.subnetwork}
    threads it automatically. The trace handle, if any, is read from
    the ledger at creation time — attach it first. *)
val create :
  ?word_size:int ->
  ?faults:Faults.t ->
  ?vertex_map:Dex_graph.Vertex.Map.t ->
  Dex_graph.Graph.t ->
  Rounds.t ->
  t

(** [graph t] is the underlying communication graph. *)
val graph : t -> Dex_graph.Graph.t

(** [messages_sent t] is the cumulative number of messages delivered:
    under a fault schedule, dropped messages are excluded and
    duplicated ones count twice. *)
val messages_sent : t -> int

(** [words_sent t] is the cumulative number of machine words delivered,
    fault-aware in the same way as {!messages_sent}: dropped messages
    contribute nothing, duplicated ones contribute twice. *)
val words_sent : t -> int

(** [faults t] is the fault schedule, if any. *)
val faults : t -> Faults.t option

(** [vertex_map t] is the local-to-original vertex translation, if this
    network simulates an induced subgraph of a larger instance. *)
val vertex_map : t -> Dex_graph.Vertex.Map.t option

(** [top_edges t k] is the [k] most-loaded edges (original-graph
    coordinates, cumulative deliveries, descending) from the attached
    trace's histogram; [[]] when no trace is attached. Note the
    histogram belongs to the trace, so it aggregates across every
    network sharing it — which is exactly what hot-edge reporting over
    a recursive decomposition wants. *)
val top_edges : t -> int -> ((int * int) * int) list

(** A message is an int array of at most [word_size] words. *)
type message = int array

(** Per-round behaviour of one vertex. Receives the current round
    number (starting at 1), the vertex id (phantom-typed: it lives in
    {e this} network's coordinate space — see {!Dex_graph.Vertex}), its
    state and its inbox [(sender, message) list]; returns the new state
    and the outbox [(neighbor, message) list]. *)
type 's step =
  round:int ->
  vertex:Dex_graph.Vertex.local ->
  's ->
  (int * message) list ->
  's * (int * message) list

(** {1 List API}

    An adapter over the cursor driver below, for protocols that find
    lists easier to write: each vertex's inbox is handed over as
    [Arena.Inbox.to_list] (senders descending, a duplicated message
    twice in adjacent positions), its outbox is sent through
    [Arena.Outbox.send] in list order — so validation checks budget,
    then neighbour, then duplicate, before any fault applies — and
    every live vertex is stepped every round, received or not.

    Under a fault schedule, the fault events one sender causes in one
    round are recorded in ascending destination order, whatever the
    order of its outbox list. *)

(** [run t ~label ~init ~step ~finished ?max_rounds ?on_round ()]
    executes the protocol synchronously until [finished state_array]
    holds at a round boundary with no message delivered in the round
    before (tested before round 1 too), or [max_rounds] (default
    1_000_000) is exhausted — raising {!Round_limit_exceeded} in the
    latter case with [executed = max_rounds], after charging those
    rounds to the ledger. Returns the final states and the number of
    rounds executed; the rounds are also charged to the ledger under
    [label]. [on_round] is called after every executed round with the
    round number and the (mutable) state array — the kernel test suite
    uses it to digest per-round states. Once every vertex has crashed
    and nothing is in flight, no round is stepped any more: the run
    raises {!Round_limit_exceeded} (unless [finished] holds) without
    calling [on_round] for the rounds it charges but skips. *)
val run :
  t ->
  label:string ->
  init:(int -> 's) ->
  step:'s step ->
  finished:('s array -> bool) ->
  ?max_rounds:int ->
  ?on_round:(int -> 's array -> unit) ->
  unit ->
  's array * int

(** [run_rounds t ~label ~init ~step n] runs exactly [n] rounds. *)
val run_rounds :
  t ->
  label:string ->
  init:(int -> 's) ->
  step:'s step ->
  ?on_round:(int -> 's array -> unit) ->
  int ->
  's array

(** {1 Cursor API}

    The zero-allocation face of the kernel: inboxes and outboxes are
    {!Arena} cursors over preallocated per-edge slots instead of
    lists, and only {e active} vertices — those with a non-empty inbox
    or an explicit [Arena.Outbox.wake] — are stepped each round. *)

(** Per-round behaviour of one vertex, cursor form. Read the inbox
    with [Arena.Inbox.iter1]/[iter], send with [Arena.Outbox.send1]/
    [send]; the cursors are only valid for the duration of the call. *)
type 's active_step =
  round:int ->
  vertex:Dex_graph.Vertex.local ->
  's ->
  Arena.inbox ->
  Arena.outbox ->
  's

(** [run_active t ~label ~init ~step ?max_rounds ?on_round ()] drives
    an {!active_step} protocol to quiescence: round 1 steps every
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
    first use and reused across runs on the same network. *)
val run_active :
  t ->
  label:string ->
  init:(int -> 's) ->
  step:'s active_step ->
  ?max_rounds:int ->
  ?on_round:(int -> 's array -> unit) ->
  unit ->
  's array * int

(** [run_active_rounds t ~label ~init ~step ?on_round n] is the cursor
    counterpart of {!run_rounds}: it runs the {!active_step} protocol
    for the fixed length of [n] rounds and returns the final states.
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
