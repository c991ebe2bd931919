(** Sweep cuts: order vertices by normalized walk mass ρ(v) = p(v)/deg(v)
    and scan prefixes π(1..j), maintaining the cut size incrementally.
    This is the π̃_t machinery of the paper's Appendix A.1.

    A sweep is a reusable struct-of-arrays workspace: the order and the
    measurements of every prefix sit in aligned arrays of capacity n,
    and {!rescan} overwrites them in place, so a Nibble run scans step
    after step without allocating. *)

(** Sort and prefix scratch: epoch stamps for the in-prefix set, the
    merge sort's second buffer and the view the current order was
    built on. *)
type scratch

(** A sweep. Index [i < length] describes the prefix π(1..i+1):
    [ordered.(i)] is its last vertex, [volume.(i)] its volume
    Vol(π(1..i+1)) in the ambient graph, [cut.(i)] its cut size
    \|∂(π(1..i+1))\|, [conductance.(i)] its conductance (infinity when
    a side has volume 0) and [last_rho.(i)] the ρ of [ordered.(i)].
    Cells at [length] and beyond are stale. A sweep is mutable and
    single-owner; {!rescan} overwrites it, so {!take} what must outlive
    that. Callers read the arrays and must not write them: {!rescan}'s
    unchecked loops rely on [ordered] holding only vertices it placed. *)
type t = private {
  ordered : int array;
  volume : int array;
  cut : int array;
  conductance : float array;
  last_rho : float array;
  mutable length : int;
  scratch : scratch;
}

(** [workspace g] is an empty sweep sized to [num_vertices g]; it
    serves [g] and any graph with no more vertices. *)
val workspace : Dex_graph.Graph.t -> t

(** [rescan t view p] overwrites [t] with the sweep of [p] in
    [view.graph]: the support of [p] with positive degree, sorted by
    decreasing ρ (ties by vertex id — the paper breaks ties by ID), and
    every prefix measured. ρ divides by the view's float degrees. The
    sort starts from [t]'s previous order: its vertices still in the
    support, in that order, then the new ones ascending. When at least
    half the entries carry over, an insertion sort runs within 16
    shifts per entry; past that, or with fewer carried over, a merge
    sort finishes. So a rescan costs O(len + the previous order's
    length + shifts) when the order hardly moved since [t]'s last
    rescan, at most an extra O(len log len) otherwise, plus one prefix
    pass, and allocates nothing. When [p]'s support is all of the
    graph's n vertices and [t]'s last rescan, on this same view,
    placed all n, that order is the seed as it stands: only the ρ are
    recomputed, and the passes that stamp the support and carry the
    order over are skipped. The result does not depend on [t]'s
    previous contents.

    Measuring a prefix π(1..j) counts the neighbours of π(j) already
    in π(1..j-1). Without the view's rows, a loop over π(j)'s
    neighbours reads one epoch stamp each; with them (a dense simple
    graph) the count is popcount(N(π(j)) ∧ S), S the prefix so far:
    ⌈n/63⌉ words per vertex instead of deg(π(j)) stamps. Both count
    integers, so they give the same sweep bit for bit.

    Raises [Invalid_argument], before writing anything, when the graph
    has more vertices than [t] has cells or [p] has a vertex outside
    the graph; the loops then run without bounds checks. *)
val rescan : t -> View.t -> Walk.sparse -> unit

(** [scan g p] is [rescan] of [View.make g] into a fresh workspace. *)
val scan : Dex_graph.Graph.t -> Walk.sparse -> t

(** [take sweep j] copies π(1..j) out as a fresh vertex array. *)
val take : t -> int -> int array

(** [best t] is the length j of the first prefix of least conductance
    among those with both sides of positive volume, if any. *)
val best : t -> int option
