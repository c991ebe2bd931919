(** Graph generators used by tests, examples and the benchmark
    harness. All are deterministic given the {!Dex_util.Rng.t}. *)

(** [complete n] is K_n. *)
val complete : int -> Graph.t

(** [cycle n] is C_n ([n >= 3]). *)
val cycle : int -> Graph.t

(** [path n] is P_n. *)
val path : int -> Graph.t

(** [grid rows cols] is the rows×cols grid graph. *)
val grid : int -> int -> Graph.t

(** [gnp rng ~n ~p] is Erdős–Rényi G(n, p). The paper's triangle
    lower-bound family is [gnp ~p:0.5]. *)
val gnp : Dex_util.Rng.t -> n:int -> p:float -> Graph.t

(** [random_regular rng ~n ~d] is a (near-)d-regular simple graph by
    the pairing model with retries; w.h.p. an expander for d ≥ 3.
    [n * d] must be even. *)
val random_regular : Dex_util.Rng.t -> n:int -> d:int -> Graph.t

(** [barbell ~clique ~bridge] joins two K_{clique} by a path with
    [bridge] interior vertices — the canonical most-balanced sparse
    cut instance (b = 1/2, Φ ≈ 1/clique²). *)
val barbell : clique:int -> bridge:int -> Graph.t

(** [dumbbell rng ~n1 ~n2 ~d ~bridges] joins a d-regular expander on
    [n1] vertices to one on [n2] vertices by [bridges] random edges:
    planted sparse cut with balance ≈ min(n1,n2)·d / ((n1+n2)·d). *)
val dumbbell :
  Dex_util.Rng.t -> n1:int -> n2:int -> d:int -> bridges:int -> Graph.t

(** [planted_partition rng ~parts ~size ~p_in ~p_out] is the
    stochastic block model with [parts] blocks of [size] vertices:
    intra-block edge probability [p_in], inter-block [p_out]. The
    ground-truth blocks are [fun i -> i / size]. *)
val planted_partition :
  Dex_util.Rng.t -> parts:int -> size:int -> p_in:float -> p_out:float -> Graph.t

(** [chung_lu rng ~n ~exponent ~avg_degree] is a power-law
    (Chung–Lu) graph with weight w_i ∝ (i + i0)^{-1/(exponent-1)}
    scaled to the requested average degree — a triangle-rich,
    skew-degree "social network" instance. *)
val chung_lu : Dex_util.Rng.t -> n:int -> exponent:float -> avg_degree:float -> Graph.t

(** [cliques_chain ~cliques ~size] is [cliques] copies of K_{size}
    connected in a chain by single edges: many balanced sparse cuts at
    different scales. *)
val cliques_chain : cliques:int -> size:int -> Graph.t

(** [binary_tree depth] is the complete binary tree with 2^{depth+1}-1
    vertices: high diameter, conductance Θ(1/n). *)
val binary_tree : int -> Graph.t

(** [attach_warts rng g ~warts ~size] attaches [warts] cliques of
    [size] vertices to [g], each by a single edge to a random vertex
    of [g] — "warts": very sparse, very unbalanced cuts. Wart [i]
    occupies vertices [n + i·size .. n + (i+1)·size - 1]. The
    sparsest cut of the result is typically a wart, while the most
    balanced sparse cut is whatever [g] had — the instance class that
    separates Theorem 3 from plain sparsest-cut algorithms, and the
    unbalanced-cut trigger for Phase 2 of Theorem 1. *)
val attach_warts : Dex_util.Rng.t -> Graph.t -> warts:int -> size:int -> Graph.t

(** [connectivize rng g] adds the minimum number of random edges
    joining the components of [g] so the result is connected. *)
val connectivize : Dex_util.Rng.t -> Graph.t -> Graph.t
