(** Ground-truth triangle enumeration (centralized).

    The forward algorithm: orient every edge from lower to higher
    degree (ties by id) and intersect out-neighborhoods — O(m^{3/2})
    and the reference answer every distributed algorithm is checked
    against.

    {1 Triangle ids}

    On a graph with [n] vertices the triangle [a < b < c] has the id
    [(a·n + b)·n + c]. Integer order on ids is the lexicographic order
    on triples, so a sorted id array is the sorted triangle list in
    packed form. Ids are sorted by a radix sort, with no comparator.
    An id needs [n³ < 2^62], so every function that builds ids (all
    but {!iter} and {!count}) requires [n <= 2^20] and raises
    [Invalid_argument] beyond it. *)

(** A triangle as an ordered triple [u < v < w]. *)
type triangle = int * int * int

(** [enumerate g] lists all triangles, sorted. Self-loops and parallel
    edges never form triangles. Requires [n <= 2^20]. *)
val enumerate : Dex_graph.Graph.t -> triangle list

(** [count g] is [List.length (enumerate g)] without materializing. *)
val count : Dex_graph.Graph.t -> int

(** [iter g f] calls [f] on each triangle once, in the forward
    algorithm's order: for [u] ascending, for each forward neighbour
    [v] of [u] ascending, for each forward neighbour [w] of [v]
    ascending that is also one of [u]'s. (The forward neighbours of
    [u] are its distinct neighbours later than [u] in the degree
    order.) {!Dlp} depends on this order. *)
val iter : Dex_graph.Graph.t -> (triangle -> unit) -> unit

(** [triangle_ids g] is the ascending array of the ids of all
    triangles of [g]. *)
val triangle_ids : Dex_graph.Graph.t -> int array

(** [triangle_ids_with_edge_pred g pred] is the ascending array of the
    ids of the triangles with at least one edge satisfying [pred u v]
    (u < v) — the helper the expander-decomposition enumerator uses
    for "detected at this level". *)
val triangle_ids_with_edge_pred : Dex_graph.Graph.t -> (int -> int -> bool) -> int array

(** [triangles_of_ids ~n ids] is the triangles whose ids on [n]
    vertices are [ids], in their order. *)
val triangles_of_ids : n:int -> int array -> triangle list
