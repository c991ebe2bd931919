(** Parameter schedule of Theorem 1 (Section 2).

    Given ε and the level count k, the decomposition runs the nearly
    most balanced sparse cut with a decreasing ladder of conductance
    parameters φ₀ > φ₁ > … > φ_k:

    - φ₀ is chosen so every non-empty sparse-cut output has
      Φ(C) ≤ h(φ₀) = ε / (6·log(n²)) — the Remove-2 charging bound;
    - φ_i = h⁻¹(φ_{i-1}) — so cuts found at level i of Phase 2 have
      conductance at most φ_{i-1};
    - d is the Phase-1 recursion depth bound: the smallest integer
      with (1-ε/12)^d·2·(n choose 2) < 1;
    - β = (ε/3)/d drives the low-diameter decomposition.

    The [Theory] ladder uses h(θ) = θ^{1/3}·log^{5/3} n exactly; its
    φ_i collapse doubly-exponentially (that is the (ε/log n)^{2^{O(k)}}
    of the theorem) and are far below what a simulation can run. The
    [Practical] ladder keeps the same structure with a gentle
    contraction h⁻¹(θ) = θ/4, so Phase 2's level mechanics are
    exercised at runnable conductances; quality is then *measured*
    rather than certified a priori (see DESIGN.md §2). *)

type t = {
  epsilon : float;
  k : int; (** Phase-2 level count *)
  n : int;
  m : int;
  phi : float array; (** φ₀ … φ_k (length k+1) *)
  d : int; (** Phase-1 recursion depth bound *)
  beta : float; (** LDD parameter *)
}

(** [make ?preset ~epsilon ~k g] derives the schedule for graph [g].
    [epsilon] in (0, 1), [k ≥ 1]. *)
val make :
  ?preset:Dex_sparsecut.Params.preset ->
  epsilon:float -> k:int -> Dex_graph.Graph.t -> t

(** [phi_final t] = φ_k, the conductance certified for the output
    components. *)
val phi_final : t -> float

(** [h_of ~preset ~n theta] is the acceptance bound h(θ) on the
    conductance of a cut returned by a Partition run with parameter
    θ: the paper's θ^{1/3}·log^{5/3}n under [Theory], 3θ under
    [Practical]. The driver discards sparser-than-claimed cuts. *)
val h_of : preset:Dex_sparsecut.Params.preset -> n:int -> float -> float

(** [params_for ~phi ~m] builds the [Practical] Nibble parameter
    block used at conductance [phi] (clamped into (0, 1/12]) on a
    subgraph with volume scale [m]. *)
val params_for : phi:float -> m:int -> Dex_sparsecut.Params.t
