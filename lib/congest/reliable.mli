(** Reliable-delivery primitives over a (possibly faulty) {!Network.t}.

    The executed protocols in {!Primitives} assume perfect delivery:
    one lost message silently truncates a BFS tree or elects the wrong
    leader. This module reimplements the flooding primitives on top of
    a per-edge ack/retransmit discipline with bounded retries:

    - a vertex that must deliver a value to a neighbor retransmits it
      every round until the neighbor acknowledges that exact value or
      the retry budget is exhausted;
    - acknowledgements are self-clocking: a lost ack triggers a
      retransmission, which triggers a fresh ack;
    - data and ack ride in a single word per edge per round (two
      O(log n)-bit fields packed into one word), so each message is
      the one word the kernel carries. Payload values must be in
      [0, 2^30).

    The extra rounds a lossy run needs are charged honestly to the
    network's ledger under the protocol's label ("bfs-reliable",
    "leader-reliable") — the overhead versus {!Primitives} is exactly
    the measured price of reliability.

    A value still unacknowledged after [max_retries] transmissions
    (default 64) exhausts its edge: the vertex stops
    retransmitting it, so the run still quiesces, and {!Delivery_failed}
    is raised once it has. *)

(** Raised after the run completes (rounds charged) when a value could
    not be delivered within [max_retries] transmissions; it names the
    first edge that exhausted its budget. *)
exception
  Delivery_failed of {
    label : string;
    vertex : int;
    neighbor : int;
    value : int;
    attempts : int;
  }

(** [bfs_tree ?max_retries net ~root] is the BFS tree of the
    {!Primitives.bfs} flood, with reliable delivery: distances adopt
    monotonically, every improvement is re-announced until
    acknowledged, so the final depths equal true BFS distances under
    any message loss that exhausts no edge (rounds charged under
    ["bfs-reliable"]). Vertices of another component keep depth
    [max_int]. The flood runs under {!Network.run_active}'s 10⁶-round
    limit. *)
val bfs_tree :
  ?max_retries:int -> Network.t -> root:Dex_graph.Vertex.local ->
  Primitives.tree

(** [elect_leader ?max_retries net] floods the minimum vertex id with
    reliable delivery (charged under ["leader-reliable"], under the
    same 10⁶-round limit as {!bfs_tree}); returns the per-vertex
    leader array, one leader per connected component. *)
val elect_leader : ?max_retries:int -> Network.t -> int array

(** Per-vertex state of the reliable flood. *)
type vstate

(** [bfs_protocol g ~root] is the fault-free protocol {!bfs_tree} runs
    (with 64 retries), exported for {!Conformance.check}: the CLI's
    [conformance] command races it. A vertex adopts the smallest
    offered distance + 1; among one round's best offers its parent is
    the largest sender. *)
val bfs_protocol : Dex_graph.Graph.t -> root:Dex_graph.Vertex.local -> vstate Conformance.protocol
