(** Prior sparse-cut algorithms the paper compares against in prose.

    Neither has the nearly-most-balanced guarantee of Theorem 3 — the
    benchmark table E3 measures exactly that failure (balance of the
    returned cut versus the planted balance). *)

type cut = {
  vertices : int array;
  conductance : float;
  balance : float;
  rounds : int; (** simulated rounds under the cited cost model *)
}

(** [spectral g rng] sweeps the (approximate) second eigenvector of
    the lazy walk matrix over the vertices of positive degree, in
    eigenvector order — the classical centralized baseline; its round
    cost model is power-iteration steps, each one round of neighbor
    exchange. Returns the best prefix cut. *)
val spectral : Dex_graph.Graph.t -> Dex_util.Rng.t -> cut option

(** [dsmp g rng] is the Das Sarma–Molla–Pandurangan-style distributed
    sparse cut: a single (un-truncated) random-walk distribution from
    one degree-sampled start vertex, run for ⌈16·ln²n⌉ steps and swept
    after each for the best-conductance prefix. Rounds = walk length
    (each step is a communication round). *)
val dsmp : Dex_graph.Graph.t -> Dex_util.Rng.t -> cut option
