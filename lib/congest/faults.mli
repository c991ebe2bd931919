(** Deterministic fault injection for the CONGEST kernel.

    A fault schedule is a pure function of a seed and the message
    coordinates [(round, src, dst)]: the same schedule replayed against
    the same protocol produces bit-identical fault decisions, so lossy
    runs stay reproducible from a single integer seed. The schedule
    models:

    - per-message loss: each delivery is dropped with probability
      [drop];
    - per-message duplication: each surviving delivery is delivered
      twice with probability [duplicate] (retransmission artifacts).

    Every decision is counted ({!drops}, {!duplicates}) and reported,
    as it is made, to the schedule's observer ({!set_observer}), so a
    trace or a test can log exactly what the adversary did without the
    schedule keeping the events. *)

(** One recorded fault event: each lost or duplicated message emits
    its own. *)
type fault =
  | Drop of { round : int; src : int; dst : int }
  | Duplicate of { round : int; src : int; dst : int }

type t

(** [create ~drop ~duplicate ~seed] is a schedule with no observer that
    loses each delivery with probability [drop] and delivers each
    surviving one twice with probability [duplicate]; [seed] drives
    every decision.
    Raises [Dex_util.Invariant.Violation] if a probability is outside [0, 1]. *)
val create : drop:float -> duplicate:float -> seed:int -> t

(** [drops t] counts lost deliveries. *)
val drops : t -> int

(** [duplicates t] counts duplicated deliveries. *)
val duplicates : t -> int

(** [set_observer t obs] installs a callback invoked on every fault
    event, in the order the kernel encounters them; the schedule keeps
    no event itself. The structured-tracing bridge uses this: {!Network.create} registers an observer that
    mirrors each event into the attached {!Dex_obs.Trace.t} (replacing
    any previous observer — a schedule shared between networks reports
    to the network created last). [None] uninstalls. *)
val set_observer : t -> (fault -> unit) option -> unit

(** [verdict t ~round ~src ~dst] decides the fate of the message sent
    from [src] to [dst] in [round], recording the corresponding event.
    The CONGEST discipline guarantees at most one message per
    [(round, src, dst)], so the decision is well-defined and depends
    only on the seed and those coordinates. *)
val verdict :
  t ->
  round:int ->
  src:Dex_graph.Vertex.local ->
  dst:Dex_graph.Vertex.local ->
  [ `Deliver | `Drop | `Duplicate ]
