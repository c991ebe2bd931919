(** Deterministic fault injection for the CONGEST kernel.

    A fault schedule is a pure function of a seed and the message
    coordinates [(round, src, dst)]: the same spec replayed against the
    same protocol produces bit-identical fault decisions, so lossy runs
    stay reproducible from a single integer seed. The schedule models:

    - per-message loss: each delivery is dropped with probability
      [drop];
    - per-message duplication: each surviving delivery is delivered
      twice with probability [duplicate] (retransmission artifacts);
    - permanent link failures: an edge dies at a given round and stays
      dead — every later message on it is lost;
    - crash-stop vertex faults: from its crash round on, a vertex
      executes no steps, sends nothing and loses its inbox.

    Every decision is counted ({!drops}, {!duplicates}) and reported,
    as it is made, to the schedule's observer ({!set_observer}), so a
    trace or a test can log exactly what the adversary did without the
    schedule keeping the events. *)

(** One recorded fault event. [Link_down] and [Crash] are emitted once,
    when the failure first takes effect; each lost or duplicated
    message additionally emits its own event. *)
type fault =
  | Drop of { round : int; src : int; dst : int }
  | Duplicate of { round : int; src : int; dst : int }
  | Link_down of { round : int; u : int; v : int }
  | Crash of { round : int; vertex : int }

(** The fault schedule description. Probabilities are per message. *)
type spec = {
  drop : float; (** P[a delivery is lost] *)
  duplicate : float; (** P[a surviving delivery arrives twice] *)
  link_failures : ((int * int) * int) list;
      (** [((u, v), r)]: the edge dies permanently at round [r] *)
  crashes : (int * int) list; (** [(v, r)]: vertex [v] crash-stops at round [r] *)
  seed : int; (** drives every probabilistic decision *)
}

(** [lossy ?duplicate ?seed ~drop ()] is a pure message-loss schedule.
    Defaults: [duplicate = 0.], [seed = 0]. *)
val lossy : ?duplicate:float -> ?seed:int -> drop:float -> unit -> spec

type t

(** [create spec] instantiates a schedule with no observer.
    Raises [Dex_util.Invariant.Violation] if a probability is outside [0, 1]. *)
val create : spec -> t

(** [drops t] counts lost deliveries (including losses caused by dead
    links and crashed destinations). *)
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

(** [crashed t ~round ~vertex] is [true] when [vertex] has crash-stopped
    by [round]. Records the [Crash] event on first observation. The
    vertex is phantom-typed: it must be an id of the network this
    schedule is attached to ({!Dex_graph.Vertex.local}). *)
val crashed : t -> round:int -> vertex:Dex_graph.Vertex.local -> bool

(** [is_crashed t ~round ~vertex] is {!crashed} without the recording
    side effect: a pure read of the crash schedule. The kernel's step
    phase uses it; its delivery phase makes the recording {!crashed}
    calls, so a crash event lands among the delivery events in
    ascending vertex order. *)
val is_crashed : t -> round:int -> vertex:Dex_graph.Vertex.local -> bool

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
