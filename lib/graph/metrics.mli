(** Cut, conductance and distance metrics over {!Graph.t}.

    Terminology follows Section 1 of the paper: for a vertex set [S],
    [∂(S)] is the set of edges with exactly one endpoint in [S],
    [Vol(S) = Σ_{v∈S} deg(v)] (self-loops count 1 each),
    [Φ(S) = |∂(S)| / min(Vol(S), Vol(S̄))], and
    [bal(S) = min(Vol(S), Vol(S̄)) / Vol(V)]. *)

(** [mask_of g s] is the boolean membership mask of [s]. *)
val mask_of : Graph.t -> int array -> bool array

(** [vertices_of_mask mask] lists the set bits, ascending. *)
val vertices_of_mask : bool array -> int array

(** [difference g u s] is [u \ s]: the vertices of [u] outside [s],
    in [u]'s order. Both are vertex sets of [g]. *)
val difference : Graph.t -> int array -> int array -> int array

(** [complement g s] is [V \ S] as a sorted array. *)
val complement : Graph.t -> int array -> int array

(** [smaller_side g s] is [s] when Vol(S) ≤ Vol(V)/2, and
    [complement g s] otherwise: the side of the cut that a peel
    removes. *)
val smaller_side : Graph.t -> int array -> int array

(** [cut_size g s] = [|∂(S)|], the number of edges crossing [S].
    Self-loops never cross. *)
val cut_size : Graph.t -> int array -> int

(** [conductance g s] = Φ(S). Returns [infinity] when either side has
    zero volume (the cut is degenerate). *)
val conductance : Graph.t -> int array -> float

(** [balance g s] = bal(S) ∈ [0, 1/2]. *)
val balance : Graph.t -> int array -> float

(** {1 Connectivity and distances} *)

(** [bfs ?mask ?label g ~dist ~queue ~sources ~limit] is the one
    breadth-first search of [lib/graph] and [lib/ldd]: a search from
    the [sources] vertices [queue.(0 .. sources - 1)] at once (a
    repeated source enters once). It enters a vertex [v] only when
    [dist.(v) = max_int] and, given [mask], [mask.(v)] holds, and it
    expands only entered vertices at distance below [limit]. An
    entered vertex gets its hop distance in [dist] and, given [label],
    the label of the vertex it was entered from; sources keep the
    labels the caller set. It returns the number [k] of vertices
    entered: [queue.(0 .. k - 1)] lists them in visit order, by
    nondecreasing distance, so a caller reads or resets exactly those.
    [dist] and [queue] are the caller's scratch, each at least n long. *)
val bfs :
  ?mask:bool array ->
  ?label:int array ->
  Graph.t ->
  dist:int array ->
  queue:int array ->
  sources:int ->
  limit:int ->
  int

(** [connected_components g] lists components as sorted vertex arrays,
    largest first. *)
val connected_components : Graph.t -> int array list

(** [is_connected g]. The empty graph is connected. *)
val is_connected : Graph.t -> bool

(** [bfs_distances g src] is the array of hop distances from [src];
    unreachable vertices get [max_int]. *)
val bfs_distances : Graph.t -> int -> int array

(** [subset_diameter g s] is the diameter of [G\[S\]] (hop distance
    inside the induced subgraph), exact via all-pairs BFS — O(nm) on
    the subgraph; raises [Failure] if [G\[S\]] is disconnected or [s]
    is empty. *)
val subset_diameter : Graph.t -> int array -> int

(** {1 Density} *)

(** [degeneracy g] is the graph degeneracy (max over the removal
    order of the minimum remaining plain degree); the arboricity lies
    in [ceil(degeneracy/2), degeneracy]. Self-loops are ignored. *)
val degeneracy : Graph.t -> int

(** {1 Partitions} *)

(** [inter_component_edges g parts] counts edges of [g] whose
    endpoints lie in different parts. [parts] must partition the
    vertex set; raises [Invalid_argument] otherwise. *)
val inter_component_edges : Graph.t -> int array list -> int

(** [check_partition g parts] verifies that [parts] is a partition of
    the vertices of [g]; raises [Invalid_argument] otherwise. *)
val check_partition : Graph.t -> int array list -> unit
