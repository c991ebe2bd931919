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

    {!check} runs the protocol twice on the real kernel
    ({!Network.run_active}), each time on a fresh network over the same
    graph: once in the kernel's canonical order (vertices stepped in id
    order, inboxes in sender order) and once with [~shuffle], which
    re-permutes both orders every round from a seeded generator. After
    every stepped round it digests every vertex state; any digest
    mismatch at any (round, vertex) is reported as a
    {!State_divergence}. The kernel's own validation audits both runs
    against the CONGEST invariants — at most one message per directed
    edge per round,
    neighbours only — and a run ends at its first violation, so each
    run reports at most one {!Kernel} violation. A run that does not quiesce within
    100,000 rounds reports {!Round_limit}.

    The protocol is supplied as a thunk so each run rebuilds its
    closures — any mutable state or RNG captured by [init]/[step] must
    be created inside the thunk, otherwise the second run starts warm
    and the comparison is meaningless. *)

type run_tag = Canonical | Permuted

type violation =
  | Kernel of { run : run_tag; round : int; violation : Arena.violation }
      (** the kernel's validation ended the run at this send *)
  | Round_limit of { run : run_tag; executed : int }
      (** the protocol did not quiesce within 100,000 rounds *)
  | State_divergence of {
      round : int;
      vertex : int;
      digest_canonical : int;
      digest_permuted : int;
    }  (** the schedule race itself: same round, same vertex, different state *)
  | Round_divergence of { rounds_canonical : int; rounds_permuted : int }

(** One-line human rendering of a violation; a [Kernel] one is
    {!Arena.describe} prefixed by its run and round. *)
val describe : violation -> string

(** A protocol as the kernel runs it: the initial state of each vertex
    and its cursor step. Quiescence is the kernel's: no message in
    flight and no wake pending. {!Primitives.bfs} and
    {!Primitives.leader} are the protocols [Primitives] itself runs. *)
type 's protocol = { init : int -> 's; step : 's Network.active_step }

type report = {
  rounds_canonical : int;
  rounds_permuted : int;
  messages_canonical : int;
  messages_permuted : int;
  violations : violation list;
      (** at most one kernel violation per run, then at most 32
          divergences; empty iff conformant *)
}

(** [ok report] is [true] iff no violation was recorded. *)
val ok : report -> bool

(** [check ?seed g ~protocol ()] runs [protocol ()] in the canonical
    and in the seeded shuffled order and compares them. A state's
    digest is [Hashtbl.hash_param 256 256] of the whole state, so a
    state must be plain data — no caches or closures. *)
val check :
  ?seed:int ->
  Dex_graph.Graph.t ->
  protocol:(unit -> 's protocol) ->
  unit ->
  report
