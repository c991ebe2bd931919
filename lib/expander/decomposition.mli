(** The (ε, φ)-expander decomposition — Theorem 1, Section 2.

    Phase 1 recursively (depth ≤ d) applies low-diameter decomposition
    (removing inter-cluster edges: Remove-1) and the nearly most
    balanced sparse cut at parameter φ₀ to every component:
    an empty cut finishes the component; a small cut
    (Vol(C) ≤ (ε/12)·Vol(U)) sends it to Phase 2 {e without removing
    the cut edges}; otherwise the cut edges are removed (Remove-2) and
    both sides recurse.

    Phase 2 trims a component through levels L = 1..k with the
    φ_L ladder: a cut of volume ≤ m_L/(2τ) advances the level,
    a larger one is carved out entirely — every edge incident to it
    removed (Remove-3), its vertices becoming singleton parts.

    Components at the same recursion depth run concurrently in
    CONGEST, so the measured round cost of a depth is the {e maximum}
    over its components, and depths accumulate. *)

type removal_ledger = {
  remove1 : int; (** inter-cluster LDD edges *)
  remove2 : int; (** Phase-1 sparse-cut edges *)
  remove3 : int; (** Phase-2 trimmed edges *)
}

type stats = {
  removals : removal_ledger;
  rounds : int; (** simulated CONGEST rounds, parallel-depth accounted *)
  messages : int;
      (** messages delivered by the executed (message-level) protocols
          inside the decomposition — i.e. the LDD clusterings; accounted
          phases move no messages *)
  words : int; (** machine words delivered: [messages], one word each *)
  phase1_depth : int; (** recursion depth reached *)
  phase2_components : int; (** components that entered Phase 2 *)
  phase2_max_iterations : int;
  partition_calls : int;
  discarded_cuts : int; (** cuts failing the h(φ) acceptance bound *)
}

type result = {
  parts : int array list; (** the decomposition V = V₁ ∪ … ∪ V_x *)
  part_of : int array; (** part index per vertex *)
  removed_edges : (int * int) list; (** all inter-part edges removed *)
  edge_fraction_removed : float; (** measured ε *)
  phi_target : float; (** φ_k: the certification parameter *)
  schedule : Schedule.t;
  stats : stats;
}

(** [run ?ledger ~epsilon ~k g rng] decomposes [g] on the
    [Practical] schedule and Nibble parameters. When
    [ledger] is given the run is structured into spans —
    ["decompose"] containing ["phase1"] (with one ["level-<d>"] span
    per recursion depth) and ["phase2"] (one ["component-<i>"] span
    per trimmed component) — and every executed or accounted round is
    charged there. Note the ledger then accumulates the {e sequential
    sum} of all component costs, while [stats.rounds] remains the
    parallel makespan (concurrent components counted at their max). *)
val run :
  ?ledger:Dex_congest.Rounds.t ->
  epsilon:float -> k:int ->
  Dex_graph.Graph.t -> Dex_util.Rng.t -> result
