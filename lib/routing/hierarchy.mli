(** The Ghaffari–Kuhn–Su hierarchical routing structure, as the
    distributed data structure of Section 3:

    - parameter k: the depth of the hierarchy; β = m^{1/k};
    - preprocessing: building the hierarchy costs
      O(kβ)·(log n)^{O(k)}·τ_mix rounds (GKS Lemma 3.2) plus portals
      O(kβ²·log n)·τ_mix (GKS Lemma 3.3);
    - each query (a routing task where every vertex sends/receives
      O(deg(v)) messages) costs (log n)^{O(k)}·τ_mix rounds
      (GKS Lemma 3.4).

    The structure here is a cost-faithful simulation: the mixing time
    τ_mix is measured on the actual component, the trade-off formulas
    are evaluated with the measured values. Queries are charged by
    these formulas, not executed. *)

type t = {
  k : int;
  beta : float; (** m^{1/k} *)
  tau_mix : int; (** measured mixing time of the component *)
  preprocess_rounds : int;
  query_rounds : int;
  n : int;
  m : int;
}

(** [build g rng ~k] measures τ_mix of [g] and instantiates the
    trade-off at depth [k] with the polylog base log₂ n (at least 1).
    Raises [Dex_util.Invariant.Violation] if [k < 1] or [g] is
    empty. *)
val build : Dex_graph.Graph.t -> Dex_util.Rng.t -> k:int -> t

(** [total_rounds t ~queries] = preprocessing + queries·query_rounds. *)
val total_rounds : t -> queries:int -> int

(** [best_k_for g rng ~queries ~k_max] picks the k ∈ [1, k_max]
    minimizing [total_rounds] for the given query load — the
    balancing act behind Theorem 2's "choose k a large enough
    constant". Candidate k is what [build g rng ~k] gives when
    [build] ran for 1 .. k−1 first on the same stream; one
    [Mixing.mixing_times] call measures all k_max τ_mix. Raises
    [Dex_util.Invariant.Violation] if [k_max < 1] or [g] is empty. *)
val best_k_for : Dex_graph.Graph.t -> Dex_util.Rng.t -> queries:int -> k_max:int -> t
