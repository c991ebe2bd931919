(** RandomNibble and ParallelNibble (Appendix A.3–A.4).

    RandomNibble draws the start vertex from the degree distribution
    ψ_V and the scale b with Pr[b = i] ∝ 2^{-i}, then runs
    ApproximateNibble.

    ParallelNibble executes k = [Params.parallel_copies] RandomNibbles
    "simultaneously"; if any edge participates in more than
    w = 10⌈ln Vol(V)⌉ of them the whole call aborts with ∅ (the
    congestion failsafe of Lemma 7 — the event B), otherwise it
    returns the union U_{i*} of the first i* cuts, i* maximal with
    Vol(U_{i*}) ≤ (23/24)·Vol(V). *)

type t = {
  cut : int array; (** the returned set C (possibly empty), sorted *)
  rounds : int; (** measured simulated rounds (Lemma 10 accounting) *)
  copies : int; (** k *)
  aborted : bool; (** true iff the w-overlap cap was hit *)
  max_overlap : int; (** max per-edge participation observed *)
  nibbles : Nibble.outcome list; (** the underlying runs, in order *)
}

(** [random_nibble ws params view rng] is one RandomNibble run on
    [view.graph], in the first lane of [ws]; the view's float degrees
    are ψ_V's weights. *)
val random_nibble :
  Nibble.workspace -> Params.t -> Dex_spectral.View.t -> Dex_util.Rng.t -> Nibble.outcome

(** The state of {!run} that outlives a call: a {!Nibble.workspace}
    with one lane per copy, {!Nibble.masks} for as many copies, and a
    vertex mask for the prefix union, cleared after each use.
    Partition builds one per call, sized to its input graph with the
    copy count of that graph's volume; it serves every G{W}, whose
    vertex count and copy count are no larger. It is mutable and
    single-owner. *)
type workspace

(** [workspace ~copies g] is a fresh workspace with [copies] lanes,
    sized to [g]. Raises [Invalid_argument] when [copies < 1]. *)
val workspace : copies:int -> Dex_graph.Graph.t -> workspace

(** [run ?k ?ledger ?workspace params view rng] is ParallelNibble(G, φ)
    on [view.graph]; [k] overrides the number of copies (tests use this
    to force overlap). The view's float degrees are ψ_V's weights, and
    every lane's walks and sweeps share it: Partition builds one per
    G{W}. [run] draws every copy's (start, scale) pair first, in copy
    order, then runs the copies in lockstep through
    {!Nibble.approximate_copies}, in [workspace] when it is given (a
    fresh one sized to [k] copies otherwise); a workspace with fewer
    lanes than [k] runs them a lane-full at a time. The outcomes are
    those of running the copies one after another, and [max_overlap]
    is their {!Nibble.max_overlap}. When [ledger] is given the
    accounted cost is also charged there, split into its Lemma 10
    components under the labels ["nibble-generate"],
    ["nibble-execute"] and ["nibble-select"]. Raises [Invalid_argument]
    when [k < 1], or when [workspace] is smaller than the graph. *)
val run :
  ?k:int -> ?ledger:Dex_congest.Rounds.t -> ?workspace:workspace ->
  Params.t -> Dex_spectral.View.t -> Dex_util.Rng.t -> t
