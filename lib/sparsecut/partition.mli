(** Partition — the nearly most balanced sparse cut (Theorem 3,
    Appendix A.4).

    Runs ParallelNibble on the remaining graph G{W_{i-1}} for up to s
    iterations, peeling each returned cut off, and stops as soon as
    the peeled volume reaches (1/48)·Vol(V) (i.e. Vol(W_i) ≤
    (47/48)·Vol(V)). Theorem 3 guarantees, w.h.p., that when
    Φ(G) ≤ φ the union C has bal(C) ≥ min{b/2, 1/48} — b the balance
    of a most balanced φ-conductance cut — and
    Φ(C) = O(φ^{1/3}·log^{5/3} n); when Φ(G) > φ the output is ∅ or
    still O(φ^{1/3}·log^{5/3} n)-sparse.

    With the [Practical] preset the loop additionally stops after
    [idle_limit] consecutive empty ParallelNibble results (a
    Monte-Carlo shortcut; see DESIGN.md §2), long before the s of
    practical constants (at least 10¹²) could bind. *)

type t = {
  cut : int array; (** C, sorted; may be empty *)
  conductance : float; (** Φ(C) in the input graph; infinity if empty *)
  balance : float; (** bal(C) *)
  rounds : int; (** total simulated rounds (Lemma 11 accounting) *)
  iterations : int; (** ParallelNibble calls performed *)
  aborted_copies : int; (** ParallelNibble calls that hit the w-cap *)
}

(** [run ?ledger params g rng] executes Partition(G, φ, p) at the
    failure probability p = 1/n² (1/4 below n = 2) that drives the
    iteration count.
    When [ledger] is given the body runs inside a ["partition"] span
    and the accounted ParallelNibble costs are charged to it (labels
    ["nibble-generate"/"nibble-execute"/"nibble-select"]). *)
val run :
  ?ledger:Dex_congest.Rounds.t ->
  Params.t -> Dex_graph.Graph.t -> Dex_util.Rng.t -> t

(** [certified_no_sparse_cut t] is [true] when Partition returned ∅ —
    the caller treats the graph as a φ-expander (Theorem 3, case 2). *)
val certified_no_sparse_cut : t -> bool

(** [run_verified ?attempts ?ledger ~bound params g rng] re-runs
    Partition through {!Dex_congest.Rounds.las_vegas}, attempt [i] on
    the stream [Rng.split rng i], until the result is acceptable — the
    graph was certified a φ-expander (empty cut) or the returned cut's
    measured conductance meets [bound] (the caller's h(φ)) — up to
    [attempts] times (default 3). [Error] carries the attempt of least
    conductance (the first, on ties). With a [ledger], each attempt
    runs in an ["attempt-<i>"] span and, when a trace is attached,
    emits a retry event labeled ["sparse-cut"]. Raises
    [Dex_util.Invariant.Violation] when [attempts < 1]. *)
val run_verified :
  ?attempts:int ->
  ?ledger:Dex_congest.Rounds.t ->
  bound:float ->
  Params.t ->
  Dex_graph.Graph.t ->
  Dex_util.Rng.t ->
  (t Dex_congest.Rounds.verified, t Dex_congest.Rounds.verified) result
