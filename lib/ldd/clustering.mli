(** Miller–Peng–Xu exponential-shift clustering — the algorithm
    Clustering(β) of Appendix B, executed as a real message-passing
    protocol on the CONGEST kernel.

    Every vertex draws δ_v ~ Exponential(β) and wakes up at epoch
    start_v = max(1, ⌈2·ln n/β⌉ - ⌊δ_v⌋). An awake unclustered vertex
    becomes a cluster center; an unclustered vertex adjacent to a
    clustered one joins that cluster (ties broken by smallest cluster
    id). The ledger is charged ⌈2·ln n/β⌉ rounds (one per epoch), after
    which every vertex is clustered; each cluster has radius ≤ 2·ln n/β
    from its center, and each edge is inter-cluster with probability
    ≤ 2β (Lemma 12).

    A vertex acts in at most two rounds: its start epoch and the round
    after a neighbor announces. The protocol runs on the cursor driver
    ([Network.run_active_rounds]): round 1 books each start epoch as a
    timed wake ([Arena.Outbox.wake_at]), and rounds in which nobody
    acts are skipped, so a run costs O((n + m)·log n) work (the log
    from keeping wakes and worklists sorted), not O(n) per epoch. *)

type t = {
  cluster : int array; (** cluster center id per vertex *)
  start : int array; (** the start epoch each vertex drew *)
  epochs : int; (** number of epochs, ⌈2·ln n/β⌉ *)
  rounds : int; (** CONGEST rounds charged (= epochs) *)
}

(** [run net ~beta rng] executes Clustering(beta) on the network.
    [beta] must be in (0, 1). *)
val run : Dex_congest.Network.t -> beta:float -> Dex_util.Rng.t -> t

(** Per-vertex protocol state. *)
type state

(** [protocol g ~beta rng] is the protocol {!run} executes on [g] for
    the same [rng] draws, exported for
    [Dex_congest.Conformance.check]: the CLI's [conformance] command
    races it. *)
val protocol :
  Dex_graph.Graph.t -> beta:float -> Dex_util.Rng.t -> state Dex_congest.Conformance.protocol
