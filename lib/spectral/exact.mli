(** Exact cut computations by subset enumeration — ground truth for
    testing the approximation guarantees on small graphs (n ≤ ~20). *)

(** [min_conductance g] is Φ_G = min over non-degenerate cuts S of
    Φ(S), together with a witness S. Raises [Invalid_argument] when
    [n > 24] (2^n enumeration) or when no non-degenerate cut exists. *)
val min_conductance : Dex_graph.Graph.t -> float * int array

(** [most_balanced_sparse_cut g ~phi] is the cut of conductance ≤ phi
    maximizing balance, if any: the paper's quantity b = bal(S) in
    Theorem 3. Same size limit. *)
(* dex-lint: allow C004 reference implementation: test_sparsecut's "partition balance vs exact reference" compares Partition.run against it *)
val most_balanced_sparse_cut : Dex_graph.Graph.t -> phi:float -> (float * int array) option
