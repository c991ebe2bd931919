(** The sequential Spielman–Teng Partition — the algorithm the paper's
    Appendix A parallelizes.

    One RandomNibble runs at a time on the {e current} remaining graph
    G{W}; its cut is peeled before the next nibble starts. In CONGEST
    this serialization is exactly what makes the original unusable
    (the paper: "the O~(m) sequential iterations of Nibble … cannot be
    completely parallelized"), so its round cost is the {e sum} of the
    per-nibble costs, against ParallelNibble's max-based cost inside
    each batch. Quality-wise the two are comparable — bench E11
    reports both sides. *)

type t = {
  cut : int array; (** the union of peeled cuts, sorted *)
  conductance : float; (** Φ of the union in the input graph *)
  balance : float;
  rounds : int; (** serialized cost: sum over all nibbles *)
  nibbles : int; (** nibble invocations performed *)
}

(** [run params g rng] peels until the (47/48)-volume threshold, 64
    nibble invocations, or [params.idle_limit] consecutive misses. *)
val run : Params.t -> Dex_graph.Graph.t -> Dex_util.Rng.t -> t
