(** Mixing time and spectral gap estimation.

    Section 1 of the paper uses the Jerrum–Sinclair relation
    Θ(1/Φ) ≤ τ_mix ≤ Θ(log n / Φ²). The routing layer needs a
    concrete τ_mix for its cost model; we measure it by running the
    lazy walk until the relative ∞-distance to stationarity drops
    below a threshold, and we estimate the spectral gap by power
    iteration on the normalized lazy walk matrix. *)

(** [mixing_times ?max_steps g rng ~runs] measures [runs] mixing
    times. One run's τ is the number of lazy-walk steps after which,
    for each of 3 random start vertices (degree-weighted), every
    vertex satisfies [|p_t(u) - π(u)| ≤ π(u)/4]: [max_steps]
    (default 4·n) if never reached — e.g. on disconnected or edgeless
    graphs — and 0 when n ≤ 1. The runs are those of measuring one
    after another on [rng], and [rng] is left where they leave it: it
    draws all [runs]·3 starts first, in their order, then walks each
    distinct start once, two walkers at a time. n ≤ 1 and an edgeless
    graph draw nothing. Raises [Invalid_argument] if [runs < 0]. *)
val mixing_times :
  ?max_steps:int -> Dex_graph.Graph.t -> Dex_util.Rng.t -> runs:int -> int array

(** [spectral_gap ?iters g rng] estimates 1 - λ₂ of the lazy walk
    matrix via power iteration with deflation of the stationary
    direction; the Cheeger bounds give gap/1 ≤ Φ ≤ √(2·gap) for the
    normalized gap 2·(lazy gap). Also returns the (approximate)
    second eigenvector, usable for a sweep-cut baseline. *)
val spectral_gap :
  ?iters:int -> Dex_graph.Graph.t -> Dex_util.Rng.t -> float * float array
