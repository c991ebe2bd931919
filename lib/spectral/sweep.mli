(** Sweep cuts: order vertices by normalized walk mass ρ(v) = p(v)/deg(v)
    and scan prefixes π(1..j), maintaining the cut size incrementally.
    This is the π̃_t machinery of the paper's Appendix A.1.

    A sweep is a reusable struct-of-arrays workspace: the order and the
    measurements of every prefix sit in aligned arrays of capacity n,
    and {!rescan} overwrites them in place, so a Nibble run scans step
    after step without allocating. *)

(** Sort and prefix scratch: epoch stamps for the in-prefix set and the
    merge sort's second buffer. *)
type scratch

(** A sweep. Index [i < length] describes the prefix π(1..i+1):
    [ordered.(i)] is its last vertex, [volume.(i)] its volume
    Vol(π(1..i+1)) in the ambient graph, [cut.(i)] its cut size
    \|∂(π(1..i+1))\|, [conductance.(i)] its conductance (infinity when
    a side has volume 0) and [last_rho.(i)] the ρ of [ordered.(i)].
    Cells at [length] and beyond are stale. A sweep is mutable and
    single-owner; {!rescan} overwrites it, so {!take} what must outlive
    that. *)
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

(** {1 Prefix passes}

    Measuring a prefix π(1..j) counts the neighbours of π(j) already
    in π(1..j-1). On most graphs a loop over π(j)'s neighbours reads
    one epoch stamp each. On a dense graph with no parallel edges the
    count is popcount(N(π(j)) ∧ S), S the prefix so far, over word bit
    rows: ⌈n/63⌉ words per vertex instead of deg(π(j)) stamps. The
    graph decides which pass runs ({!rows}); both count integers, so
    they give the same sweep bit for bit. *)

(** The neighbourhood bit rows of one graph: n·⌈n/63⌉ words. Immutable
    once built, so any number of sweeps over that graph may share it. *)
type rows

(** [rows g] is [g]'s bit rows when [g] has no parallel edges and a
    mean plain degree of at least 8 per row word (mean degree ≥ 24 at
    n = 128, ≥ 32 at n = 200), and [None] otherwise: the bit-row pass
    pays off only on dense graphs, and counts each parallel edge once.
    O(1) when the density fails, O(n·⌈n/63⌉ + m) otherwise. *)
val rows : Dex_graph.Graph.t -> rows option

(** [rescan t g p] overwrites [t] with the sweep of [p]: the support of
    [p] with positive degree, sorted by decreasing ρ (ties by vertex id
    — the paper breaks ties by ID), and every prefix measured. The sort
    starts from [t]'s previous order: its vertices still in the
    support, in that order, then the new ones ascending. When at least
    half the entries carry over, an insertion sort runs within 16
    shifts per entry; past that, or with fewer carried over, a merge
    sort finishes. So a rescan costs O(len + the previous order's
    length + shifts) when the order hardly moved since [t]'s last
    rescan, at most an extra O(len log len) otherwise, plus one pass
    over the support's edges, and allocates nothing. The result does
    not depend on [t]'s previous contents. The prefix pass uses [rows],
    which must be [rows g] computed once by the caller: given, it
    replaces that pass over the edges by ⌈n/63⌉ words per vertex;
    absent, the stamp loop runs. Raises [Invalid_argument] when [g] has
    more vertices than [t] has cells, or when [rows] were built for a
    graph with other vertex or plain edge counts. *)
val rescan : ?rows:rows -> t -> Dex_graph.Graph.t -> Walk.sparse -> unit

(** [scan g p] is [rescan ?rows:(rows g)] into a fresh workspace. *)
val scan : Dex_graph.Graph.t -> Walk.sparse -> t

(** [take sweep j] copies π(1..j) out as a fresh vertex array. *)
val take : t -> int -> int array

(** [best t] is the length j of the first prefix of least conductance
    among those with both sides of positive volume, if any. *)
val best : t -> int option
