(** The V_D / V_S partition of Appendix B.1.

    Given β, set a = ⌈5·ln n/β⌉ and b = ⌈K·ln n/β⌉. The auxiliary
    partition puts v in V'_D when its radius-a ball is edge-dense
    relative to its radius-100ab ball (\|E(N^a(v))\| ≥
    \|E(N^{100ab}(v))\|/(2b)), else in V'_S. V_D then grows from
    W₀ = {u : dist(u, V'_D) ≤ a} by repeatedly merging components of W
    that come within distance a of each other and inflating them by a
    radius-a ball, until components are pairwise > a apart. The
    invariant H of Definition 3 bounds the growth: every component of
    V_D has diameter O(ab) and the loop ends within 2b iterations.

    Every vertex of V_S = V \ V_D satisfies \|E(N^a(v))\| ≤ \|E\|/b —
    the "good edge" property that powers the bounded-dependence
    Chernoff argument of Lemma 13. *)

type t = {
  in_vd : bool array; (** membership of V_D *)
  a : int; (** the separation radius a *)
  b : int; (** the density parameter b *)
  iterations : int; (** growth iterations executed (≤ 2b) *)
  rounds : int; (** CONGEST rounds charged (Lemma 21 cost model) *)
}

(** [run g ~beta] builds the partition with a = ⌈ka·ln n/β⌉ and
    b = ⌈kb·ln n/β⌉ at the paper's constants ka = 5 and kb = K = 5.
    At these constants the far radius 100ab exceeds every simulatable
    graph, so the far ball is the whole component and a vertex lands
    in V'_S only when its radius-a ball holds at most a 1/b share of
    the component's edges: on low-diameter graphs V_D is all of V (a
    valid but trivial output), on long cycles and paths it is not. *)
val run : Dex_graph.Graph.t -> beta:float -> t
