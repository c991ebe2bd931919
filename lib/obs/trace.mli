(** Structured tracing for the CONGEST kernel.

    A trace is a stream of typed events — hierarchical span open/close,
    per-round ticks (messages, max per-edge congestion, active
    vertices), fault events bridged from the fault schedule, and Las
    Vegas retry attempts — kept in a bounded in-memory ring and
    optionally mirrored as JSON-Lines (one compact JSON object per
    event) to a sink channel.

    The trace also aggregates cross-cutting metrics as events flow
    through it: a cumulative message count, a per-edge load
    histogram (in the vertex ids of the {e original} graph when the
    emitting network carries a vertex map — subgraph simulations then
    account onto real edges), and fault/retry counters.

    Tracing is opt-in: components accept a trace handle (usually via
    {!val:Dex_congest.Rounds.attach_trace}) and skip all accounting when
    none is attached, so the disabled path costs one pointer test per
    round. *)

type event =
  | Span_open of { id : int; parent : int; name : string; rounds_before : int }
      (** A hierarchical span opened. [parent] is the enclosing span id,
          [-1] at top level; [rounds_before] the ledger total when it
          opened. *)
  | Span_close of { id : int; name : string; rounds : int; wall_ns : int }
      (** The span closed after charging [rounds] simulated rounds and
          spending [wall_ns] wall-clock nanoseconds of simulator time. *)
  | Round_tick of { round : int; messages : int; max_edge_load : int; active : int }
      (** One executed network round: the messages delivered (one word
          each), the
          maximum number of messages any single undirected edge carried
          (≥ 2 only under duplication faults or bidirectional traffic),
          and the number of vertices that sent or received anything. *)
  | Fault of { kind : string; round : int; src : int; dst : int }
      (** A fault event bridged from the schedule; [kind] is
          ["drop"] or ["duplicate"]. *)
  | Retry of { label : string; attempt : int; certified : bool }
      (** A Las Vegas attempt finished: [certified] says whether the
          self-check accepted the output. *)

type t

(** [create ?capacity ?sink ()] is an empty trace. The ring retains the
    last [capacity] events (default 65536); when [sink] is given every
    event is also written immediately as one JSON line (see "JSON
    lines" below). The channel belongs to the caller. *)
val create : ?capacity:int -> ?sink:out_channel -> unit -> t

(** [events t] is the retained events, oldest first. *)
val events : t -> event list

(** [emitted t] counts every event ever emitted; [dropped t] how many
    of those the ring has already evicted. *)
val emitted : t -> int

val dropped : t -> int

(** {2 Span stack}

    Spans nest: [span_open] pushes, [span_close] pops. Components
    normally drive these through [Rounds.span] rather than directly. *)

(** [span_open t ~name ~rounds_before] opens a span and returns its id
    (parented to the innermost open span). *)
val span_open : t -> name:string -> rounds_before:int -> int

(** [span_close t ~id ~name ~rounds ~wall_ns] closes span [id]. *)
val span_close : t -> id:int -> name:string -> rounds:int -> wall_ns:int -> unit

(** {2 Emitters}

    Each appends one event to the ring (evicting the oldest when full),
    updates the aggregate counters and writes the JSON line to the
    sink, if any. *)

val round_tick : t -> round:int -> messages:int -> max_edge_load:int -> active:int -> unit

val fault : t -> kind:string -> round:int -> src:int -> dst:int -> unit
val retry : t -> label:string -> attempt:int -> certified:bool -> unit

(** {2 Aggregate metrics} *)

(** [count_edge t u v ~by] adds [by] deliveries to the load of the
    undirected edge [(u, v)]. Called by the kernel with original-graph
    vertex ids. *)
val count_edge : t -> int -> int -> by:int -> unit

(** [top_edges t k] is the [k] most loaded edges, descending by load,
    ties broken by edge (so the listing is deterministic). *)
val top_edges : t -> int -> ((int * int) * int) list

(** Cumulative counters aggregated from the emitted events: messages
    summed over [Round_tick]s, fault and retry event counts. *)

val messages : t -> int
val faults : t -> int
val retries : t -> int

(** {2 JSON lines}

    A sink receives every event as a single-line JSON object whose
    first field ["ev"] discriminates the variant; the remaining keys
    appear in the fixed order documented in DESIGN.md §8, e.g.
    [{"ev":"retry","label":"las-vegas","attempt":0,"certified":true}]. *)
