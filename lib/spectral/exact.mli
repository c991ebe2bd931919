(** Exact cut computations by subset enumeration — ground truth for
    testing the approximation guarantees on small graphs (n ≤ ~20). *)

(** [min_conductance g] is Φ_G = min over non-degenerate cuts S of
    Φ(S), together with a witness S. Raises [Invalid_argument] when
    [n > 24] (2^n enumeration) or when no non-degenerate cut exists. *)
val min_conductance : Dex_graph.Graph.t -> float * int array
