(** Parameters of the Nibble family (the paper's Appendix A
    "Terminology"), derived from the target conductance φ and the
    ambient edge count m:

    {v
      ℓ     = ⌈log m⌉
      t₀    = c_t0 · ln(m·e²) / φ²
      f(φ)  = φ³ / (144 ln²(m·e⁴))
      γ     = 5φ / (7·7·8·ln(m·e⁴))
      ε_b   = φ / (7·8·ln(m·e⁴)·t₀·2^b)
    v}

    Two presets share the formulas and differ only in leading
    constants and iteration caps (see DESIGN.md §2): [theory] is
    paper-exact (c_t0 = 49, uncapped iteration counts — usable on tiny
    graphs only), [practical] shrinks c_t0 and caps the Partition /
    ParallelNibble repetition counts so benches terminate, preserving
    the asymptotic shapes. *)

type preset = Theory | Practical

type t = {
  preset : preset;
  phi : float; (** target conductance φ *)
  m : int; (** ambient edge count (volume/2 scale) *)
  ell : int; (** ℓ = ⌈log₂ m⌉: number of b-scales *)
  t0 : int; (** walk length *)
  gamma : float; (** γ: the ρ lower-bound scale of condition (C.2) *)
  f_phi : float; (** f(φ): conductance threshold for the target set S *)
  parallel_cap : int; (** upper cap on ParallelNibble copies *)
  partition_cap : int; (** upper cap on Partition iterations *)
  idle_limit : int; (** Partition stops after this many consecutive empty cuts *)
  sweep_stride : int;
  (** sweep-cut checks run at every step t ≤ 16 and then every
      [sweep_stride]-th step; 1 = the paper's every-step schedule *)
  c1_relaxed_factor : float;
  (** the multiplier of the relaxed conductance condition C.1-star:
      the paper's 12 under [Theory]; 3 under [Practical], where φ is
      large enough that 12φ would admit near-vacuous cuts *)
}

(** [should_sweep t step] decides whether the sweep-cut search runs at
    walk step [step] under [t]'s stride schedule. *)
val should_sweep : t -> int -> bool

(** [next_j t volumes ~length cur] is the index after [cur] in the
    geometric j-sequence (j_x) of Appendix A.2, over a sweep whose
    prefix volumes Vol(π(1..j)), j = 1..[length], are
    [volumes.(j-1)] and never decrease: the largest j ≤ [length] with
    Vol(1..j) ≤ (1+φ)·Vol(1..cur), and at least [cur + 1]. It reads
    the volumes forward from [cur] up to the first one over the budget,
    so the whole sequence from j₁ = 1 costs O(length) reads. *)
val next_j : t -> int array -> length:int -> int -> int

(** [make ?preset ~phi ~m ()] derives all parameters; [phi] must be in
    (0, 1/12] (the precondition of Lemma 5 onward) and [m ≥ 1]. *)
val make : ?preset:preset -> phi:float -> m:int -> unit -> t

(** [ceil_log2 k] = ⌈log₂ max(2, k)⌉: [ell] for [m = k], and the
    depth of a binary search or tree aggregation over [k] items. *)
val ceil_log2 : int -> int

(** [eps_b t b] = ε_b, the truncation threshold at scale [b ∈ 1..ℓ]. *)
val eps_b : t -> int -> float

(** [parallel_copies t ~volume] is the paper's k:
    ⌈Vol(V) / (56·ℓ·(t₀+1)·t₀·ln(m·e⁴)·φ⁻¹)⌉, clamped to
    [1, parallel_cap]. *)
val parallel_copies : t -> volume:int -> int

(** [overlap_bound t ~volume] is w = 10·⌈ln Vol(V)⌉: the per-edge
    participation cap in ParallelNibble. *)
val overlap_bound : t -> volume:int -> int

(** [partition_iterations t ~volume ~p] is the paper's
    s = 4·g(φ,Vol)·⌈log_{7/4}(1/p)⌉, clamped to partition_cap. *)
val partition_iterations : t -> volume:int -> p:float -> int

(** [h phi] = Θ(φ^{1/3}·log^{5/3} n) — the conductance the sparse-cut
    algorithm guarantees on non-empty output (Theorem 3), with the
    Θ-constant taken as 1; [h_inverse] is its inverse
    Θ(θ³/log⁵ n). These drive the φ_i schedule of Theorem 1. *)
val h : n:int -> float -> float

val h_inverse : n:int -> float -> float
