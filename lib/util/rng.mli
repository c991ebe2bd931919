(** Deterministic, splittable pseudo-random number generation.

    Every randomized algorithm in this project threads an explicit
    [Rng.t] so that runs are reproducible from a single integer seed.
    Splitting derives an independent stream, which lets "each vertex
    generates unlimited local random bits" (the CONGEST assumption) be
    simulated without the streams interfering. *)

type t

(** [create seed] makes a generator from an integer seed. *)
val create : int -> t

(** [split t i] derives an independent generator from [t]'s current
    stream state and the index [i], advancing [t] by a discarded draw
    and the draw the child is hashed from: two successive [split t i]
    calls give different streams, and the order of splits matters. Used to hand each simulated vertex its own local
    randomness. *)
val split : t -> int -> t

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument]
    if [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [bernoulli t p] is [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [exponential t ~rate] samples Exponential(rate): mean [1/rate].
    Used by the Miller–Peng–Xu clustering shifts. *)
val exponential : t -> rate:float -> float

(** [geometric t p] is the number of failures before the first success
    of a Bernoulli(p); [p] must be in (0, 1]. *)
val geometric : t -> float -> int

(** [shuffle ?len t a] permutes the first [len] elements of [a]
    (default: all of them) in place (Fisher–Yates). *)
val shuffle : ?len:int -> t -> 'a array -> unit

(** [choose t a] is a uniformly random element of [a].
    Raises [Invalid_argument] on an empty array. *)
val choose : t -> 'a array -> 'a

(** [weighted_index t w] samples index [i] with probability
    [w.(i) / sum w]; weights must be non-negative with positive sum. *)
val weighted_index : t -> float array -> int
