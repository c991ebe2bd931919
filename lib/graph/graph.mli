(** Compact undirected graphs with self-loops.

    This is the graph object every algorithm in the project works on.
    It matches the paper's conventions:

    - graphs are undirected and may carry self-loops;
    - each self-loop contributes exactly 1 to the degree of its vertex
      (as in Spielman–Srivastava and the paper's Section 1);
    - [G{S}] — written [saturated_subgraph] here — is the induced
      subgraph on [S] where every vertex keeps its original degree by
      gaining [deg_G(v) - deg_S(v)] self-loops.

    The structure is immutable once built; adjacency is stored as
    per-vertex sorted arrays, so neighbor iteration is cache-friendly
    and membership tests are logarithmic. *)

type t

(** {1 Construction} *)

(** [of_edges ~n edges] builds a graph on vertices [0..n-1] from an
    undirected edge list. Pairs [(u, v)] with [u = v] become
    self-loops. Duplicate pairs produce parallel edges (the paper's
    algorithms never create parallel non-loop edges, but the
    representation allows them). Raises [Invalid_argument] if an
    endpoint is out of range. *)
val of_edges : n:int -> (int * int) list -> t

(** {1 Size} *)

(** [num_vertices g]. *)
val num_vertices : t -> int

(** [num_edges g] counts undirected edges; each self-loop counts 1. *)
val num_edges : t -> int

(** [num_plain_edges g] counts non-loop undirected edges. *)
val num_plain_edges : t -> int

(** {1 Local structure} *)

(** [degree g v] = number of incident non-loop edge endpoints plus the
    number of self-loops at [v] (each loop contributes 1). *)
val degree : t -> int -> int

(** [plain_degree g v] ignores self-loops. *)
val plain_degree : t -> int -> int

(** [self_loops g v] is the number of self-loops at [v]. *)
val self_loops : t -> int -> int

(** [neighbors g v] is the sorted array of non-loop neighbors of [v],
    with multiplicity for parallel edges. The array is owned by the
    graph: callers must not mutate it. *)
val neighbors : t -> int -> int array

(** [iter_neighbors g v f] calls [f u] for every non-loop neighbor. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** {1 CSR addressing}

    The per-vertex sorted neighbor arrays, concatenated in vertex
    order, enumerate the [2 * num_plain_edges g] directed edges of the
    graph. This gives every directed edge [(v, adj(v).(i))] a unique
    dense index — its {e slot} — which the CONGEST kernel's message
    arena uses to address one preallocated message buffer per directed
    edge. *)

(** [csr_offsets g] is the length-[n + 1] prefix-sum array of plain
    degrees: slot [csr_offsets g .(v) + i] is the i-th directed edge
    out of [v], and [csr_offsets g .(n)] is the total directed edge
    count. Each call builds a fresh array in O(n); callers that need
    it repeatedly should keep it. *)
val csr_offsets : t -> int array

(** [neighbor_rank g v u] is the index of [u] in [neighbors g v]
    (the leftmost one, under parallel edges), or [-1] when [u] is not
    a non-loop neighbor of [v]. Logarithmic (a binary search); the
    returned rank is exactly the slot offset of the directed edge
    [(v, u)] relative to [csr_offsets g .(v)]. *)
val neighbor_rank : t -> int -> int -> int

(** {1 Global iteration} *)

(** [iter_edges g f] calls [f u v] once per undirected edge with
    [u <= v]; self-loops appear as [f v v]. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** [edges g] materializes the edge list ([u <= v] per pair). *)
val edges : t -> (int * int) list

(** [fold_vertices g init f] folds [f acc v] over vertices in order. *)
val fold_vertices : t -> 'a -> ('a -> int -> 'a) -> 'a

(** {1 Volumes} *)

(** [volume g vs] = sum of [degree g v] over [vs]; the paper's Vol. *)
val volume : t -> int array -> int

(** [total_volume g] = Vol(V) = sum of all degrees. *)
val total_volume : t -> int

(** {1 Derived graphs} *)

(** [induced_subgraph g s] is [G\[S\]]: the plain induced subgraph,
    together with the mapping from new vertex ids to original ids
    (a copy of [s]). Self-loops of members are preserved. Raises
    [Invalid_argument] if [s] repeats a vertex or leaves [0 .. n-1]. *)
val induced_subgraph : t -> int array -> t * int array

(** [saturated_subgraph g s] is [G{S}]: induced subgraph where each
    kept vertex gains one self-loop per lost edge endpoint, so degrees
    match the parent graph. Returns the graph and the id mapping; [s]
    is checked as for {!induced_subgraph}. *)
val saturated_subgraph : t -> int array -> t * int array

(** [remove_edges g dead] removes every non-loop edge [(u, v)]
    (normalized [u <= v]) present in [dead], replacing each with one
    self-loop at [u] and one at [v] — the paper's edge-removal
    convention ("whenever we remove an edge {u,v} we add a self loop
    at both u and v, so the degree never changes"). Entries that name
    no edge of [g] are ignored. The result shares the adjacency of the
    vertices it leaves untouched with [g], and is [g] itself when [dead]
    names no non-loop pair of vertices of [g]. *)
val remove_edges : t -> (int * int) list -> t
