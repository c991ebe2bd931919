(** Sweep cuts: order vertices by normalized walk mass ρ(v) = p(v)/deg(v)
    and scan prefixes π(1..j), maintaining the cut size incrementally.
    This is the π̃_t machinery of the paper's Appendix A.1. *)

(** Measurements of one prefix π(1..j) of a sweep order. *)
type prefix = {
  len : int; (** j: number of vertices in the prefix *)
  volume : int; (** Vol(π(1..j)) in the ambient graph *)
  cut : int; (** \|∂(π(1..j))\| *)
  conductance : float; (** Φ as defined for the ambient graph *)
  last_rho : float; (** ρ of the j-th (last) vertex of the prefix *)
}

(** A completed sweep: the order and the stats of all its prefixes
    ([prefixes.(j-1)] describes π(1..j)). *)
type t = { ordered : int array; prefixes : prefix array }

(** [take sweep j] materializes π(1..j) as a vertex array. *)
val take : t -> int -> int array

(** [order g p] is the support of [p] sorted by decreasing ρ (ties by
    vertex id — the paper breaks ties by ID); degree-0 vertices are
    left out. *)
val order : Dex_graph.Graph.t -> Walk.sparse -> int array

(** [scan g p] measures every prefix of the sweep order of [p];
    O(\|support\|·avg-deg + sort). *)
val scan : Dex_graph.Graph.t -> Walk.sparse -> t

(** [best_cut g p] is [(sweep, j)] minimizing prefix conductance with
    both sides of positive volume, if any. *)
val best_cut : Dex_graph.Graph.t -> Walk.sparse -> (t * int) option

(** [scan_vector g x] sweeps an arbitrary dense vector over all
    vertices in decreasing [x] order (spectral baseline). *)
val scan_vector : Dex_graph.Graph.t -> float array -> t
