(** Lazy random walks.

    The walk matrix is M = (A·D⁻¹ + I)/2 (the paper's Appendix A): in
    one step half the mass stays put and half spreads across incident
    edges. A self-loop at [v] routes its share of the moving mass back
    to [v], which is what makes the saturated subgraph G{S} behave
    like G for walk purposes.

    A distribution is sparse: an ascending vertex array (the support),
    an aligned mass array and a length, which is what makes truncated
    Nibble walks cheap. A {!walker} is the one way to step one: it
    advances in two buffers it reuses from step to step, and its step
    kernel visits the support in ascending order, so every float it
    produces is a deterministic function of the input distribution.
    Two walkers whose distributions both cover every vertex, stepped as
    a pair, pull each vertex's masses instead, in one pass and to the
    same floats. A step reads the graph through a {!View.t}, built once per
    graph and shared by every walker and sweep over it. *)

(** A sparse distribution: [support.(0 .. len-1)] ascends strictly and
    [masses.(i)] is the mass at [support.(i)]; cells from [len] on are
    unused. The support is the set of vertices the walk touched, which
    can include zero-mass entries (e.g. a degree-0 vertex stepped with
    zero mass); it is not the nonzero set. The fields are readable so
    hot loops elsewhere can scan them directly; callers must not write
    the arrays, whose ascending support the kernels' one bounds check
    per call relies on. Values built by this
    module's constructors and {!truncated_walk} never change; a
    {!walker}'s {!current} view is rewritten by its owner (see there). *)
type sparse = private { support : int array; masses : float array; mutable len : int }

(** [indicator v] is χ_v as a sparse distribution. *)
val indicator : int -> sparse

(** [of_assoc pairs] is the distribution with mass [x] at each [(v, x)].
    Raises [Invalid_argument] on a negative or repeated vertex. *)
val of_assoc : (int * float) list -> sparse

(** [size p] is the number of supported vertices. *)
val size : sparse -> int

(** A truncated walk that allocates nothing per step: a dense scratch
    for the step kernel (an epoch-stamped float accumulator and a
    touched-vertex buffer), two distribution buffers of capacity n that
    swap on every {!advance}, and n cells for a paired full-support
    step's shares, each with one cell per vertex. It is mutable and
    single-owner: one Nibble run at a time drives it, and two domains
    must not share one. *)
type walker

(** [walker g] is a fresh walker sized to [num_vertices g]; it serves
    [g] and any graph with no more vertices. *)
val walker : Dex_graph.Graph.t -> walker

(** [start w p] makes a copy of [p] the current distribution. Raises
    [Invalid_argument] when [p] has more entries than [w] has cells. *)
val start : walker -> sparse -> unit

(** [current w] is a view of the current distribution. It is valid
    until the next {!advance} or {!start} on [w], which rewrite its
    buffers; copy what must outlive that. *)
val current : walker -> sparse

(** [advance w view ~eps ~mask] replaces the current distribution
    p̃_{t-1} by p̃_t = [\[M·p̃_{t-1}\]_eps] on [view.graph], sets
    [mask.(v)] for every vertex of its support, and returns
    ‖p̃_t − p̃_{t-1}‖₁. At [eps = 0] it keeps every entry (masses are
    ≥ 0), so it steps M·p̃_{t-1} untruncated. The sum runs over p̃_t in
    ascending vertex order, then over the entries of p̃_{t-1} that left
    the support, ascending. The step kernel pushes each support
    vertex's shares, ascending, into the dense scratch, orders the
    touched set (an in-place sort of it, or one pass over all vertices
    when it holds at least an eighth of them) and keeps the survivors,
    on any support, a full one included. It reads the view's float
    degrees. Raises [Invalid_argument], before
    writing anything, when the graph has more vertices than [w] has
    cells or [mask] has cells, or when p̃_{t-1} has a vertex outside
    the graph; the loops then run without bounds checks. *)
val advance : walker -> View.t -> eps:float -> mask:bool array -> float

(** [change w] is the ‖p̃_t − p̃_{t-1}‖₁ of [w]'s last advance, the value
    {!advance} returned. *)
val change : walker -> float

(** [advance_pair w1 w2 view ~eps1 ~eps2 ~mask1 ~mask2] is
    [advance w1 view ~eps:eps1 ~mask:mask1] and
    [advance w2 view ~eps:eps2 ~mask:mask2]; read each change with
    {!change}. When both current distributions cover every vertex of
    the graph, one pass over the adjacency pulls both: each vertex
    keeps two sums and takes each one's terms from its sorted
    adjacency in the order the kernel pushes them, so every float is
    the one two advances compute (DESIGN.md §12). Otherwise the
    walkers advance one after the other. Raises [Invalid_argument]
    when [w1] and [w2] are the same walker, or when either fails
    {!advance}'s checks; both walkers are checked before either
    moves, so a raise leaves both as they were. *)
val advance_pair :
  walker -> walker -> View.t -> eps1:float -> eps2:float ->
  mask1:bool array -> mask2:bool array -> unit

(** [truncated_walk g ~src ~eps ~steps] runs the truncated walk
    p̃_t = \[M·p̃_{t-1}\]_ε from χ_src and returns the distributions
    p̃_0 … p̃_steps (index t = step count): a {!walker}'s {!current},
    copied after each {!advance} on one {!View.make} of [g]. *)
val truncated_walk :
  Dex_graph.Graph.t -> src:int -> eps:float -> steps:int -> sparse array
