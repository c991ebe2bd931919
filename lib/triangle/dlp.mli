(** Dolev–Lenzen–Peled "Tri, tri again" (DISC 2012) — the
    deterministic O(n^{1/3}/log n)-round CONGESTED-CLIQUE triangle
    enumeration the paper cites as the optimal clique-model algorithm.

    The reproduction runs the real combinatorial structure on the
    input graph: vertices are split into g = ⌈n^{1/3}⌉ balanced
    groups; each of the ~g³/6 unordered group triples (A, B, C) is
    assigned to a vertex, which must learn the three bipartite edge
    sets E(A,B), E(B,C), E(A,C) and reports the triangles inside its
    triple. Word loads (per receiver and per sender) are counted from
    the actual graph, and the round figure assumes Lenzen's O(1)-round
    balanced routing primitive, exactly as DLP do:

    rounds = ⌈max_v receive(v)/(n-1)⌉ + ⌈max_v send(v)/(n-1)⌉ + O(1).

    Every triangle is detected by the owner of its group signature;
    completeness against ground truth is part of the result. *)

type result = {
  triangles : Exact.triangle list; (** detected, sorted *)
  complete : bool; (** equals ground truth *)
  rounds : int;
  groups : int; (** g *)
  triples : int; (** number of group triples *)
  max_receive_words : int; (** heaviest receiver load *)
  max_send_words : int; (** heaviest sender load *)
}

(** [run g] executes the algorithm structure on [g]. *)
val run : Dex_graph.Graph.t -> result
