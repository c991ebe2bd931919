(** Schedule-permutation race detector and CONGEST-conformance auditor.

    The synchronous CONGEST model gives a protocol no control over the
    order in which vertices are activated within a round or the order
    in which an inbox lists its messages. A protocol whose outcome
    depends on either order has a schedule race: it computes something
    the model does not define. This module detects such races
    dynamically, complementing the static rules of [dex_lint]
    (D001/D002 forbid the two most common in-process sources of
    schedule sensitivity — hash-order iteration and ambient
    randomness).

    {!check} executes the protocol twice on the same graph: once under
    the canonical schedule (vertices activated in id order, inboxes
    sorted by sender) and once under a seeded adversarial schedule
    that re-permutes both orders every round. After each round it
    digests every vertex state; any digest mismatch at any (round,
    vertex) is reported as a {!State_divergence}. Both executions are
    additionally audited against the CONGEST kernel invariants that
    {!Network} enforces: at most [word_size] words per message, at
    most one message per directed edge per round, and neighbors only.

    The protocol is supplied as a thunk so each replay rebuilds its
    closures — any mutable state or RNG captured by [init]/[step]/
    [finished] must be created inside the thunk, otherwise the second
    replay starts warm and the comparison is meaningless. *)

type run_tag = Canonical | Permuted

type violation =
  | Word_budget_exceeded of {
      run : run_tag;
      round : int;
      vertex : int;
      dst : int;
      words : int;
      budget : int;
    }
  | Duplicate_message of { run : run_tag; round : int; vertex : int; dst : int }
      (** more than one message on a directed edge in one round *)
  | Not_a_neighbor of { run : run_tag; round : int; vertex : int; dst : int }
      (** includes self-sends *)
  | Round_limit of { run : run_tag; executed : int }
      (** the protocol did not quiesce within [max_rounds] *)
  | State_divergence of {
      round : int;
      vertex : int;
      digest_canonical : int;
      digest_permuted : int;
    }  (** the schedule race itself: same round, same vertex, different state *)
  | Round_divergence of { rounds_canonical : int; rounds_permuted : int }

(** One-line human rendering of a violation. *)
val describe : violation -> string

(** A protocol restated as pure data against the same [step] signature
    as {!Network.run}; [finished] is the quiescence predicate (the
    engine also waits for in-flight messages, like [Network.run]). *)
type 's protocol = {
  init : int -> 's;
  step : 's Network.step;
  finished : 's array -> bool;
}

type report = {
  rounds_canonical : int;
  rounds_permuted : int;
  messages_canonical : int;
  messages_permuted : int;
  violations : violation list;  (** capped at 32 entries; empty iff conformant *)
}

(** [ok report] is [true] iff no violation was recorded. *)
val ok : report -> bool

(** [default_digest s] is the structural digest {!check} uses when no
    [?digest] is supplied ([Hashtbl.hash_param 256 256]). Exported so
    the kernel-vs-reference suite can hash per-round state
    arrays with the exact same function the conformance engine uses. *)
val default_digest : 's -> int

(** [check ?word_size ?max_rounds ?seed ?digest g ~protocol ()] replays
    [protocol ()] under the canonical and the seeded-permuted schedule
    and compares them. [digest] (default [Hashtbl.hash_param 256 256])
    must be a total function of the state — if the state contains
    caches or closures, supply a digest over the meaningful fields. *)
val check :
  ?word_size:int ->
  ?max_rounds:int ->
  ?seed:int ->
  ?digest:('s -> int) ->
  Dex_graph.Graph.t ->
  protocol:(unit -> 's protocol) ->
  unit ->
  report

(** {2 Reference protocols}

    Conformant restatements of the {!Primitives} protocols, usable as
    smoke workloads for {!check} (see the [conformance] CLI command). *)

type bfs_state = { dist : int; par : int; pending : bool }

(** BFS flood from [root] (default vertex 0): min-adoption over the
    inbox, ties broken toward the smaller sender id —
    order-insensitive. *)
val bfs : ?root:Dex_graph.Vertex.local -> Dex_graph.Graph.t -> unit -> bfs_state protocol

type leader_state = { best : int; fresh : bool }

(** Minimum-id flooding leader election; requires a connected graph. *)
val leader : Dex_graph.Graph.t -> unit -> leader_state protocol
