(** Ground-truth triangle enumeration (centralized), the reference
    answer every distributed algorithm is checked against.

    Two paths, chosen by {!Dex_spectral.View.make}'s density rule. On
    a graph whose view has bit rows (dense, no parallel edges), ids and
    {!count} come from intersecting the rows of the two endpoints of
    each edge: O(m·⌈n/63⌉) word operations plus one per triangle. On
    every other graph they come from the forward algorithm: orient
    every edge from lower to higher degree (ties by id) and intersect
    out-neighborhoods, O(m^{3/2}). {!iter} always runs the forward
    algorithm.

    {1 Triangle ids}

    On a graph with [n] vertices the triangle [a < b < c] has the id
    [(a lsl 2s) lor (b lsl s) lor c], with [s = ⌈log₂ max(2, n)⌉]:
    three [s]-bit fields, [a] highest, so decoding is shifts and masks.
    Since every field is below [2^s], integer order on ids is the
    lexicographic order on triples, and a sorted id array is the sorted
    triangle list in packed form. The bit-row path lists the ids
    already ascending (a, then b, then c), into an array a popcount
    pass sized exactly; the forward algorithm lists them out of order,
    into a growable buffer that a radix sort then sorts, with no
    comparator. An id needs [3s <= 60] bits, so every function that
    builds ids (all but {!iter}, {!count} and {!filter_ids}) requires
    [n <= 2^20] and raises [Invalid_argument] beyond it. *)

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

(** [filter_ids ~n ids pred] is the ids of [ids], in their order,
    whose triangle has at least one edge satisfying [pred u v] (u < v).
    It is [ids] itself, not a copy, when every triangle passes. On the
    ids of all triangles of a graph [g] on [n] vertices it equals
    [triangle_ids_with_edge_pred g pred] without a second enumeration. *)
val filter_ids : n:int -> int array -> (int -> int -> bool) -> int array

(** [triangles_of_ids ~n ids] is the triangles whose ids on [n]
    vertices are [ids], in their order. *)
val triangles_of_ids : n:int -> int array -> triangle list
