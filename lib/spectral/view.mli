(** A graph prepared for the walk and sweep kernels: the graph, its
    degrees as floats and, on dense simple graphs, its neighbourhood
    bit rows. {!Walk.advance}, {!Walk.advance_pair} and
    {!Sweep.rescan} read one; a caller that steps or sweeps many times
    over one graph builds it once and passes it to every call. The
    record is [private] and immutable, so its arrays always describe
    its [graph]: the kernels check their own arguments against it once
    per call and trust it inside their loops (DESIGN.md §12). *)

(** The neighbourhood bit rows of one graph: [bits.(v·words + u / w)]
    has bit [u mod w] set iff [u] is a neighbour of [v], for
    w = [Sys.int_size] bits per word and [words] = ⌈n/w⌉ words per
    vertex. *)
type rows = private { words : int; bits : int array }

(** [degrees.(v)] is [float_of_int (Graph.degree graph v)], exact for
    every degree; [rows] is [Some] when [graph] has no parallel edges
    and a mean plain degree of at least 8 per row word (mean degree
    ≥ 24 at n = 128, ≥ 32 at n = 200), and [None] otherwise: the
    bit-row prefix pass pays off only on dense graphs, and a bit row
    counts each parallel edge once. The rows, and the density test
    that decides them, are built when a sweep or the triangle pass
    first forces [rows]; a view that only walks never builds them.
    Forcing is not thread-safe: a view stays in one domain, like the
    workspaces that read it. *)
type t = private {
  graph : Dex_graph.Graph.t;
  degrees : float array;
  rows : rows option Lazy.t;
}

(** [make g] is [g]'s view: n floats, O(n). Forcing its [rows] costs
    O(m) when the density fails and n·⌈n/63⌉ words and
    O(n·⌈n/63⌉ + m) time when it holds. *)
val make : Dex_graph.Graph.t -> t
