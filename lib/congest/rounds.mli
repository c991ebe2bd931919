(** Round-cost ledger with hierarchical spans.

    Every simulated CONGEST computation charges its rounds here, under
    a phase label, so that benchmark tables can report both the total
    round count and its breakdown (e.g. how many rounds Phase 1 of the
    expander decomposition spent in low-diameter decomposition versus
    sparse-cut computation). Executed message-passing protocols charge
    their actual round loop; accounted phases charge the measured cost
    of the primitive they stand for (see DESIGN.md §2).

    The ledger stores one thing, a span tree: components may wrap work
    in {!span}, and every charge is attributed to a node named by
    its label under the innermost open span, so the nested
    Phase-1/Phase-2 structure of a decomposition becomes visible
    ({!tree}). Leaf round totals always sum to {!total} by
    construction. The flat per-label view ({!by_phase}) is derived
    from the tree's charge nodes.

    Spans also self-profile the simulator: each span accumulates the
    wall-clock nanoseconds spent inside its body, and when a
    {!Dex_obs.Trace.t} is attached ({!attach_trace}) each span
    open/close is mirrored as a structured trace event. *)

type t

(** [create ()] is an empty ledger with no trace attached. *)
val create : unit -> t

(** [attach_trace t trace] mirrors span open/close events to [trace];
    networks created over this ledger also emit per-round ticks there.
    Attach before creating networks — {!Network.create} caches the
    handle. [None] detaches. *)
val attach_trace : t -> Dex_obs.Trace.t option -> unit

(** [trace t] is the attached trace, if any. *)
val trace : t -> Dex_obs.Trace.t option

(** [charge t ~label k] adds [k] rounds to the charge node [label]
    under the innermost open span. Raises
    [Dex_util.Invariant.Violation] on negative [k]. *)
val charge : t -> label:string -> int -> unit

(** [total t] is the number of rounds charged so far. *)
val total : t -> int

(** [by_phase t] sums each label's charge nodes over the whole tree,
    descending by cost; equal costs are ordered by label, so the
    listing is deterministic. A label charged only 0 rounds is listed
    with 0. *)
val by_phase : t -> (string * int) list

(** One node of the span tree: [rounds] = [self] + sum of children's
    [rounds]; [self] is non-zero only on charge leaves (or on nodes
    whose name was used both as a span and as a charge label);
    [wall_ns] is the simulator wall-clock accumulated by {!span}.
    Children appear in first-creation order. *)
type tree = { span : string; rounds : int; self : int; wall_ns : int; children : tree list }

(** [tree t] is the hierarchical view of every charge, rooted at a
    synthetic ["total"] node with [rounds = total t]. *)
val tree : t -> tree

(** [span t name f] with [t = Some l] runs [f ()] inside a span [name]
    of [l], nested under the innermost open span. Re-entering the same
    name under the same parent accumulates into one node (the tree
    stays compact and deterministic). The span records the rounds
    charged and the wall-clock spent during [f]; the span is closed
    even if [f] raises. Without a ledger it is plain [f ()]. *)
val span : t option -> string -> (unit -> 'a) -> 'a

(** The outcome of {!las_vegas}: the accepted (on [Error], the kept)
    attempt, the attempts performed and the rounds summed over all. *)
type 'a verified = { value : 'a; attempts : int; rounds_total : int }

(** [las_vegas ?ledger ~label ~where ~attempts ~rounds ~accept ?better f]
    is the one Las Vegas retry loop, behind [Las_vegas.decompose],
    [Partition.run_verified] and [Expander_enum.run_verified]. It runs
    [f i] for [i = 1, 2, ...] until [accept] holds of its value, at
    most [attempts] times; [f i] must draw fresh randomness from [i].
    Attempt [i] runs in an ["attempt-<i>"] span, adds [rounds v] to
    [rounds_total] and, with a trace attached, emits
    [Trace.retry ~label ~attempt:i ~certified:(accept v)]. [Ok] carries
    the first accepted attempt; [Error] the last one or, with [better],
    the first attempt no later one is [better] than. Raises
    [Dex_util.Invariant.Violation] with [where] when [attempts < 1],
    before any attempt runs. *)
val las_vegas :
  ?ledger:t -> label:string -> where:string -> attempts:int -> rounds:('a -> int) ->
  accept:('a -> bool) -> ?better:('a -> 'a -> bool) -> (int -> 'a) ->
  ('a verified, 'a verified) result
