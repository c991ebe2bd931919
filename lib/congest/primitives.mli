(** Standard CONGEST building blocks over {!Network.t}.

    The [bfs] and [leader] floods are executed as real
    message-passing protocols (they exercise the kernel and their round counts are
    measured from the execution). Tree aggregations are charged by the
    procedures that use them (Lemma 9's sweep search in
    [Nibble.candidate_cost], Lemma 10's generate/select in
    [Parallel_nibble.run]), not here. *)

(** A rooted BFS spanning tree of (one component of) the network. *)
type tree = {
  root : int;
  parent : int array; (** [parent.(root) = root]; [-1] for vertices outside the component *)
  depth : int array; (** hop depth; [max_int] outside the component *)
  height : int; (** max finite depth *)
  members : int array; (** vertices of the component, sorted *)
}

(** [tree ~root ~parent ~depth] is the tree with these per-vertex
    parents and depths ([max_int] outside the component), its height
    and members. *)
val tree : root:Dex_graph.Vertex.local -> parent:int array -> depth:int array -> tree

(** {2 The protocols}

    The flooding protocols, exported so {!Conformance.check} can test
    the very steps the kernel executes: the CLI's [conformance] command
    runs both. *)

type bfs_state = { dist : int; par : int; pending : bool }

(** [bfs g ~root]: a vertex adopts the smallest advertised distance + 1
    on first contact, ties broken toward the smaller sender, and
    announces it once. *)
val bfs : Dex_graph.Graph.t -> root:Dex_graph.Vertex.local -> bfs_state Conformance.protocol

type leader_state = { best : int; fresh : bool }

(** [leader g]: a vertex announces its id in round 1 and re-announces
    whenever a smaller id reaches it. *)
val leader : Dex_graph.Graph.t -> leader_state Conformance.protocol
