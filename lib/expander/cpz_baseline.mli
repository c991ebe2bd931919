(** The Chang–Pettie–Zhang SODA'19 style decomposition the paper
    improves on: it may dump part of the graph into an extra
    low-arboricity leftover.

    The CPZ algorithm keeps the minimum degree above n^δ by repeatedly
    peeling low-degree vertices into the leftover set R (whose induced
    subgraph then has degeneracy — hence arboricity — at most n^δ),
    and alternates the peeling with sparse-cut recursion on the dense
    remainder. Any φ-sparse cut of a min-degree-n^δ simple graph has
    Ω(n^δ) vertices, which caps the recursion depth at O(n^{1-δ}).

    This module reproduces that structure (with the same Partition
    primitive for cut finding) so benches can compare: fraction of
    edges stranded in the leftover, measured arboricity of the
    leftover, rounds, and the quality of the expander parts. *)

(** Raised when the cut/peel worklist exceeds the [4·n] component
    budget — the degree-threshold argument bounding the recursion has
    been violated (numerical pathology), with the guard counter and
    the still-pending component count as context. *)
exception
  Runaway_recursion of {
    n : int;
    guard : int;
    pending_components : int;
  }

type result = {
  parts : int array list; (** expander components of the dense remainder *)
  leftover : int array; (** the extra part R *)
  leftover_arboricity : int; (** degeneracy of G\[R\] (arboricity ≤ this) *)
  leftover_edge_fraction : float; (** \|E(R)\| / \|E\| *)
  removed_edge_fraction : float; (** inter-part removed edges / \|E\| *)
  rounds : int;
  delta : float;
}

(** [run ~delta ~epsilon g rng] runs the baseline with degree
    threshold n^delta and the same ε-driven cut acceptance as the
    main decomposition, on the [Practical] schedule. *)
val run :
  delta:float -> epsilon:float ->
  Dex_graph.Graph.t -> Dex_util.Rng.t -> result
