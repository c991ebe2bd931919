(** Ball edge counting — the |E(N^d(v))| queries of Lemmas 14–16.

    [E(N^d(v))] is the set of edges with both endpoints within hop
    distance d of v. The refinement step of LowDiamDecomposition
    classifies vertices by comparing ball edge counts at two radii.

    The simulation computes the counts centrally (exactly, with a
    whole-component shortcut when the radius dominates the component
    diameter) and charges the CONGEST cost of Lemma 16:
    O(d·log²n / f³) rounds for an (1+f)-approximate count at radius d. *)

(** [all_ball_edge_counts g ~d] is \|E(N^d(v))\| for every vertex
    [v], each computed exactly by a depth-bounded BFS from [v]. When
    [d] is at least the component's diameter the component total is
    reused without per-vertex BFS. Raises [Invalid_argument] when [d]
    is negative. *)
val all_ball_edge_counts : Dex_graph.Graph.t -> d:int -> int array

(** [lemma16_rounds ~n ~d ~f] is the round charge of the distributed
    estimation algorithm of Lemma 16 with approximation [f]. *)
val lemma16_rounds : n:int -> d:int -> f:float -> int
