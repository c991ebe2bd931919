(** Triangle enumeration through expander decomposition — Theorem 2
    (Section 3), following the Chang–Pettie–Zhang reduction:

    1. Compute an (ε, φ)-expander decomposition of the current edge
       set (ε ≤ 1/6 in the paper; here ε is a parameter and the
       measured fraction is checked).
    2. Within every component V_i, the vertices collectively learn all
       edges incident to V_i and check, DLP-style, every group triple
       — each vertex responsible for a share of triples proportional
       to its degree. Delivering the edge lists takes
       [instances_i = ⌈3·g·m_inc(V_i)/Vol(V_i)⌉] routing queries with
       g = ⌈n^{1/3}⌉ groups (measured from the actual incidence
       counts), each query costing the GKS structure's measured query
       time. Every triangle with at least one intra-component edge is
       detected here.
    3. Recurse on E-star, the inter-component edges; only triangles
       with all three edges in E-star survive a level. ε ≤ 1/2 means
       O(log m) levels.

    Detection itself is executed centrally per component (the set
    equality with ground truth is asserted by tests); the round
    figures are measured per the cost model above. *)

type level_report = {
  level : int;
  edges : int; (** edges alive at this level *)
  components : int;
  detected : int; (** triangles detected at this level *)
  decomposition_rounds : int;
  routing_preprocess_rounds : int; (** max over components *)
  routing_query_rounds : int; (** max over components: instances × query *)
  max_instances : int; (** max routing instances per component *)
}

type result = {
  triangles : Exact.triangle list; (** all detected triangles, sorted *)
  levels : level_report list;
  total_rounds : int;
  enumeration_rounds : int;
  (** total minus the decomposition rounds: the part whose scaling is
      the Õ(n^{1/3}) headline (the decomposition is o(n^{1/3}) only
      asymptotically; at simulation sizes its polylog constants
      dominate — see EXPERIMENTS.md) *)
  messages : int;
      (** messages delivered by the executed protocols across all
          levels (the LDD clusterings inside each decomposition) *)
  words : int; (** machine words delivered: [messages], one word each *)
  complete : bool; (** detected set equals ground truth *)
}

(** [run ?ledger ?epsilon ?k_decomp g rng] enumerates all triangles
    of [g]. Defaults: ε = 1/6, k_decomp = 2. Each level decomposes on
    the [Practical] schedule, and each component routes on the
    hierarchy depth {!Dex_routing.Hierarchy.best_k_for} picks (k ≤ 4). With a [ledger], the run sits in a ["triangles"] span
    with one ["level-<i>"] span per recursion level (each containing
    its decomposition's spans) and the accounted routing costs are
    charged under ["routing-preprocess"]/["routing-query"] (and
    ["residual-trivial"] for the fallback exchange). *)
val run :
  ?ledger:Dex_congest.Rounds.t ->
  ?epsilon:float -> ?k_decomp:int ->
  Dex_graph.Graph.t -> Dex_util.Rng.t -> result

(** [instances_for ~n ~incident ~volume] is the measured routing
    instance count ⌈3·⌈n^{1/3}⌉·incident/volume⌉ of one component. *)
val instances_for : n:int -> incident:int -> volume:int -> int

(** [run_verified ?ledger g rng] is the Las Vegas wrapper around
    {!run}, through {!Dex_congest.Rounds.las_vegas}: each attempt's
    detected set is checked against the exact ground truth
    ([complete]) and the enumeration re-runs on the stream
    [Rng.split rng i] on a miss, up to 3 times. [Error] carries the
    last attempt — typed failure, no exception. With a [ledger], each
    attempt's ["triangles"] span sits in an ["attempt-<i>"] span and,
    when a trace is attached, each verdict emits a retry event labeled
    ["triangles"]. *)
val run_verified :
  ?ledger:Dex_congest.Rounds.t ->
  Dex_graph.Graph.t -> Dex_util.Rng.t ->
  (result Dex_congest.Rounds.verified, result Dex_congest.Rounds.verified) Stdlib.result
