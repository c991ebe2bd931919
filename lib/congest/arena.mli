(** CSR slot-addressed message arena — the zero-allocation data plane
    behind {!Network}'s round loop.

    Every directed edge [(v, i)] of the graph owns one preallocated
    message slot at the dense CSR index [off(v) + i] (see
    {!Dex_graph.Graph.csr_offsets}). Slots live on two flat planes —
    a src-side staging plane written during the step phase and a
    dst-side inbox plane written during delivery — and occupancy is
    tracked by monotonic tick stamps, so steady-state rounds neither
    allocate nor clear.

    The module also owns the active-set worklist: vertices with a
    stamped inbox slot, an explicit self-wake or a due timed wake, kept
    deduplicated and ascending so vertices are activated in one
    canonical order.

    {b Rounds and the calendar.} The arena tracks the protocol round
    ({!round}): 1 after {!begin_run}, advanced by {!finish_round}.
    Timed wakes ({!Outbox.wake_at}) wait in a calendar until their
    round. A round in which nothing was delivered and nobody woke
    would step no vertex, so {!finish_round} skips it: the round
    number jumps straight to the calendar's next entry. Idle rounds
    therefore cost nothing, but they still count as protocol rounds.

    Protocols normally go through {!Network}; this interface is what
    its round loop and the throughput benchmarks program against. *)

(** A send the CONGEST discipline forbids. Vertex ids are in the
    coordinates of the arena's [to_orig] (original-graph ids for a
    subnetwork); a destination outside the graph is reported as
    given. *)
type violation =
  | Not_a_neighbor of { vertex : int; dst : int }  (** self-sends included *)
  | Duplicate_edge of { vertex : int; dst : int }
      (** a second message on one directed edge in one round *)

(** Raised by a send that fails validation, in protocol round [round].
    [Network] re-exports this very exception. *)
exception Congestion_violation of { round : int; violation : violation }

(** [describe v] is a one-line rendering, e.g.
    ["vertex 0: 3 is not a neighbor"]. *)
val describe : violation -> string

type t

(** [create ?to_orig g] allocates all planes for [g] (O(m) ints,
    once). [to_orig] translates local vertex ids into the coordinates
    violation messages should use (subnetworks report original ids). *)
val create : ?to_orig:(int -> int) -> Dex_graph.Graph.t -> t

(** [slot_count a] is the number of directed-edge slots (twice the
    plain edge count). *)
val slot_count : t -> int

(** [mirror a s] is the slot of the directed edge opposite to slot [s]:
    for [s] on [(v, u)], the slot on [(u, v)]. *)
val mirror : t -> int -> int

(** [round a] is the protocol round of the current worklist: the
    [~round] its steps see. It starts at 1 and only grows within a
    run, by more than one when {!finish_round} skips idle rounds. *)
val round : t -> int

(** {1 Cursors}

    A cursor is a reusable window onto one vertex's slots. The round
    loop allocates one inbox/outbox pair per run and re-aims it with
    {!set_inbox}/{!set_outbox} for every step — the step callback
    itself allocates nothing. *)

type inbox
type outbox

val make_inbox : t -> inbox
val make_outbox : t -> outbox

(** [set_inbox ?shuffle ib v] aims the cursor at vertex [v]'s dst-side
    slots. With [shuffle], {!Inbox.iter1} visits them in an order drawn
    from it, fresh for this aim; without, in ascending sender order. *)
val set_inbox : ?shuffle:Dex_util.Rng.t -> inbox -> int -> unit

(** [set_outbox ob v] aims the cursor at vertex [v]'s src-side slots;
    subsequent sends are validated and staged as coming from [v]. *)
val set_outbox : outbox -> int -> unit

module Inbox : sig
  (** [iter1 ib f] calls [f src word] per delivery, in ascending
      sender order unless the cursor was aimed with a shuffle
      (duplicates are adjacent either way). *)
  val iter1 : inbox -> (int -> int -> unit) -> unit
end

module Outbox : sig
  (** [send1 ob ~dst w] stages the one-word message [w] to [dst].
      Raises {!Congestion_violation} on the first failed check:
      non-neighbor (an out-of-range id included), then duplicate edge
      use. *)
  val send1 : outbox -> dst:Dex_graph.Vertex.local -> int -> unit

  (** [wake ob] self-wakes the cursor's vertex: it stays on the next
      round's worklist even if it receives nothing. *)
  val wake : outbox -> unit

  (** [wake_at ob r] schedules the cursor's vertex for round [r]: it is
      on round [r]'s worklist even if it receives nothing, and the
      rounds in between need not step it. [wake_at ob (round + 1)] is
      {!wake}. A vertex may hold several pending wakes; two for the
      same round step it once. The wake goes straight into the
      calendar. Raises [Dex_util.Invariant.Violation] unless [r] is
      later than the current round ({!round}). *)
  val wake_at : outbox -> int -> unit
end

(** {1 Round lifecycle}

    Driven by [Network]'s round loop. A round is: read the sorted
    worklist ([active_count]/[active_get]), step each active vertex
    through its cursors, then apply {!deliver_staged} to each vertex in
    ascending order, and {!finish_round}. *)

(** [begin_run a] puts every vertex on the worklist, sets the round to
    1 and empties the calendar — round 1 steps all vertices. *)
val begin_run : t -> unit

(** Number of vertices on the current round's worklist. *)
val active_count : t -> int

(** [active_get a i] — the [i]-th active vertex, ascending in [i]. *)
val active_get : t -> int -> int

(** [deliver_staged a src verdict] walks [src]'s staged sends in slot
    (= ascending destination) order; [verdict src dst slot] decides
    each message's fate, exactly like [Faults.verdict] (its [slot]
    argument is the src-side slot of the message), and delivered
    messages land in the destination's inbox slots for the next round,
    putting each receiver on the next worklist. [src] joins it too if
    it called [Outbox.wake] this round. The caller's verdict callback
    is where message/word counters and fault recording happen, so
    calling this for each source in ascending order records events in
    (source, destination) order. *)
val deliver_staged :
  t -> int -> (int -> int -> int -> [ `Deliver | `Drop | `Duplicate ]) -> unit

(** [finish_round a] advances the tick (retiring all current-round
    slots at once), adds the calendar's wakes due next round, and
    swaps in the next worklist, sorted ascending
    ({!Dex_util.Stamped.sort}). When that worklist would be empty but
    the calendar is not, the round jumps to the calendar's earliest
    round and its wakes form the worklist. The worklist is empty only
    when the run is quiescent: nothing in flight and no wake pending. *)
val finish_round : t -> unit
