(** Phantom-typed vertex identifiers.

    Every recursive algorithm in this project runs protocols on induced
    subgraphs whose vertices are renumbered [0..n'-1], and translates
    results back through a [vertex_map]. Mixing up the two coordinate
    spaces — indexing a parent-graph array with a subgraph id, or
    reporting a subgraph id in an original-coordinate trace — is a
    silent, often off-by-one-looking corruption. These types make the
    compiler reject such confusion.

    - {!local} is a vertex id in the coordinate space of the network or
      subgraph currently executing a protocol;
    - {!orig} is a vertex id in the coordinate space of the original
      (outermost) instance, the space traces and results report in.

    Both are [private int]: construction is explicit ({!local},
    {!orig}), projection is an identity-function call ({!local_int},
    {!orig_int}) or a type coercion [(v :> int)] — there is no boxing
    and no runtime cost. The typed-AST lint rule C003 (see
    [tools/lint]) forbids raw [int] vertex parameters in the [.mli]s of
    the protocol layers, so the discipline is machine-checked.

    Decidability limit: vertex {e arrays} ([parent], [members], part
    lists…) remain [int array] — lifting them would force a copy or an
    unsafe cast at every [Array] operation. The typed boundary is the
    scalar parameters and the {!Map} translation table; see DESIGN.md
    §9. *)

type local = private int
(** A vertex id local to the executing (sub)network. *)

type orig = private int
(** A vertex id in original-instance coordinates. *)

val local : int -> local
(** [local v] asserts that [v] is a local-coordinate id. *)

val local_int : local -> int
(** [local_int v] is [(v :> int)]. *)

val orig_int : orig -> int
(** [orig_int v] is [(v :> int)]. *)

(** Local-to-original translation tables (the [vertex_map] threaded by
    {!Dex_congest.Network.create} and [Ldd.run_graph]). Entry [i] is
    the original-coordinate id of local vertex [i]. *)
module Map : sig
  type t = private int array

  val of_array : int array -> t
  (** [of_array a] asserts that [a.(i)] is the original id of local
      vertex [i]. The array is not copied; callers must not mutate it
      afterwards. *)

  val length : t -> int

  val get : t -> int -> orig
  (** [get m v] is the original id of local vertex [v], given as a raw
      subgraph index. *)

  val translate : t -> int array -> int array
  (** [translate m vs] maps an array of local ids to original ids
      (fresh array). *)

  val translate_edge : t -> int * int -> int * int
  (** [translate_edge m (u, v)] translates both endpoints and
      normalizes the result to [u' <= v']. *)
end
