(** LowDiamDecomposition(β) — Theorem 4.

    1. Build the partition V = V_D ∪ V_S ({!Refine}).
    2. Run MPX {!Clustering} with parameter β.
    3. Cut only the inter-cluster edges with at least one endpoint in
       V_S; the output parts are the connected components left.

    W.h.p. every part has diameter O(log²n/β²) and at most 3β·|E|
    edges are cut — a high-probability version of the
    expectation-only guarantee of plain MPX, obtained because the cut
    events of V_S-incident edges have bounded dependence
    (Lemma 13 / Pemmaraju's Chernoff bound). *)

type t = {
  parts : int array list; (** the partition, each part sorted *)
  cut_edges : (int * int) list; (** removed edges, normalized u ≤ v *)
  rounds : int; (** total CONGEST rounds *)
  messages : int;
      (** messages delivered by the executed clustering, one machine
          word each *)
  beta : float;
}

(** [run_graph ?ledger ?vertex_map g ~beta rng] executes the
    decomposition on a fresh single-use network over [g]; rounds are
    charged to [ledger] when given (so a caller's span structure and
    attached trace see this run), to a private throwaway ledger
    otherwise, and reported in the result. The refinement runs at the
    paper's radius constants ka = kb = 5 (see {!Refine.run}).
    [vertex_map] translates [g]'s
    vertex ids to original-graph ids for trace reporting — pass the
    mapping from the induced subgraph when decomposing a component. *)
val run_graph :
  ?ledger:Dex_congest.Rounds.t -> ?vertex_map:Dex_graph.Vertex.Map.t ->
  Dex_graph.Graph.t -> beta:float -> Dex_util.Rng.t -> t

(** [max_part_diameter g t] is the largest part diameter. *)
val max_part_diameter : Dex_graph.Graph.t -> t -> int

(** [diameter_bound ~n ~beta] is the certified Θ(log²n/β²) bound of
    Lemma 13 (2(d₁+1) + d₂ with the invariant-H constants at
    ka = kb = 5), the value tests and benches verify measured
    diameters against. *)
val diameter_bound : n:int -> beta:float -> int

(** [failure_probability ~m ~beta ~k_ln] is Lemma 13's bound on the
    probability that more than 3β·m edges are cut: the bounded-dependence
    Chernoff tail min(1, d·e^{−δ²μ/(3d)}) with μ = 2βm, δ = 1/2 and
    dependence d = max(1, βm/k_ln), where [k_ln] is K·ln n. Raises
    [Invalid_argument] unless m ≥ 1, β ∈ (0, 1) and k_ln > 0. *)
val failure_probability : m:int -> beta:float -> k_ln:float -> float
