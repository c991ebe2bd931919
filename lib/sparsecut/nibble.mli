(** The paper's ApproximateNibble (Appendix A.1–A.2), the variant of
    Spielman–Teng's Nibble that admits the CONGEST implementation of
    Lemma 9.

    Nibble runs the truncated lazy random walk from a start vertex and
    looks for a sweep prefix π̃_t(1..j) satisfying

    - (C.1) Φ(π̃_t(1..j)) ≤ φ,
    - (C.2) ρ̃_t(π̃_t(j)) ≥ γ / Vol(π̃_t(1..j)),
    - (C.3) (5/6)·Vol(V) ≥ Vol(π̃_t(1..j)) ≥ (5/7)·2^{b-1}.

    ApproximateNibble only inspects the O(φ⁻¹·log Vol) geometric
    j-sequence (j_x) per step, testing (C.1)–(C.3) on sequence-dense
    indices and the relaxed starred conditions C.1-star..C.3-star
    otherwise. *)

(** A cut found by a nibble, in ambient-graph vertex ids. *)
type cut = {
  vertices : int array; (** the prefix π̃_t(1..j), sorted *)
  volume : int;
  cut_edges : int;
  conductance : float;
  found_t : int; (** walk step at which the prefix passed *)
  found_j : int; (** prefix length *)
}

(** Execution record: result plus the measured quantities that drive
    round accounting (Lemma 9) and overlap accounting (Definition 2). *)
type outcome = {
  result : cut option;
  src : int;
  b : int;
  steps_executed : int; (** walk steps actually run (≤ t₀) *)
  candidates_tested : int; (** (t, j) pairs examined *)
  rounds : int; (** simulated CONGEST rounds per the Lemma 9 cost model *)
  participants : int array;
  (** vertices u with p̃_t(u) > 0 for some t; these define the
      participating edge set P-star of Definition 2 *)
}

(** Nibble scratch: one lane per copy that runs at a time — a
    {!Dex_spectral.Walk.walker}, a participant mask and a
    {!Dex_spectral.Sweep.t}, each with one cell per vertex. A lane's
    sweep is its copy's own: each checked step re-sorts from the order
    of that copy's previous one. A run leaves the workspace ready for
    the next, so one workspace serves every run over graphs with no
    more vertices — Partition builds one per call. It is mutable and
    single-owner. *)
type workspace

(** [workspace ?copies g] is a fresh workspace with [copies] lanes
    (default 1), sized to [num_vertices g]. Raises [Invalid_argument]
    when [copies < 1]. *)
val workspace : ?copies:int -> Dex_graph.Graph.t -> workspace

(** [approximate ?workspace params g ~src ~b] is ApproximateNibble,
    computed in the first lane of [workspace] (a fresh one when
    absent). The outcome shares no buffer with the workspace. *)
val approximate :
  ?workspace:workspace -> Params.t -> Dex_graph.Graph.t -> src:int -> b:int -> outcome

(** [approximate_copies ws params view draws] is [approximate] from every
    [(src, b)] of [draws], with the outcomes in draw order. The copies
    run in lockstep, as many at a time as [ws] has lanes: each step
    advances every live copy, two walks that both cover every vertex
    in one pass over the adjacency, and each copy's sweep checkpoints,
    stop rules and final sweep are its own. The outcomes are the ones
    [approximate] gives each draw alone. Every draw is checked before
    any copy starts. The copies run on [view.graph]; the view is built
    once by the caller and shared by every lane's walks and sweeps
    ({!approximate} builds one per call). *)
val approximate_copies :
  workspace -> Params.t -> Dex_spectral.View.t -> (int * int) array -> outcome list

(** Copy masks: ⌈k/62⌉ words per vertex for k copies, one bit per
    copy the vertex participates in. Mutable and single-owner. *)
type masks

(** [masks ~copies g] is zeroed masks for [copies] copies over the
    vertices of [g], or of any graph with no more. *)
val masks : copies:int -> Dex_graph.Graph.t -> masks

(** [max_overlap masks g outcomes] is the most [outcomes] whose P-star
    holds one edge of [g] (Definition 2), 0 when none has an edge:
    the largest popcount(mask u ∨ mask v) over the non-loop edges
    (u, v), since an edge lies in a P-star exactly when an endpoint
    participates. One pass, which stops at an edge every outcome
    shares; in masks of its own when [masks] are too short. *)
val max_overlap : masks -> Dex_graph.Graph.t -> outcome list -> int
