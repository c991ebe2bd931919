(** Public umbrella API for the distributed expander decomposition
    library — the entry point a downstream user should start from.

    The toolkit reproduces Chang & Saranurak, "Improved Distributed
    Expander Decomposition and Nearly Optimal Triangle Enumeration"
    (PODC 2019) on a simulated CONGEST network:

    - {!decompose} — Theorem 1, the (ε, φ)-expander decomposition;
    - {!sparse_cut} — Theorem 3, the nearly most balanced sparse cut;
    - {!low_diameter_decomposition} — Theorem 4;
    - {!enumerate_triangles} — Theorem 2, Õ(n^{1/3})-round triangle
      enumeration.

    Sub-libraries are re-exported under their natural names for users
    who need the underlying machinery (walks, sweeps, the CONGEST
    kernel, generators, baselines). *)

module Rng = Dex_util.Rng
module Stats = Dex_util.Stats
module Invariant = Dex_util.Invariant
module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Metrics = Dex_graph.Metrics
module Generators = Dex_graph.Generators
module Graph_io = Dex_graph.Graph_io
module Json = Dex_obs.Json
module Trace = Dex_obs.Trace
module Clock = Dex_obs.Clock
module Bench_snapshot = Dex_obs.Snapshot
module Network = Dex_congest.Network
module Arena = Dex_congest.Arena
module Conformance = Dex_congest.Conformance
module Rounds = Dex_congest.Rounds
module Primitives = Dex_congest.Primitives
module Faults = Dex_congest.Faults
module Reliable = Dex_congest.Reliable
module View = Dex_spectral.View
module Walk = Dex_spectral.Walk
module Sweep = Dex_spectral.Sweep
module Mixing = Dex_spectral.Mixing
module Exact_cut = Dex_spectral.Exact
module Nibble = Dex_sparsecut.Nibble
module Nibble_params = Dex_sparsecut.Params
module Parallel_nibble = Dex_sparsecut.Parallel_nibble
module Sparse_cut = Dex_sparsecut.Partition
module Cut_baselines = Dex_sparsecut.Baselines
module Pagerank_cut = Dex_sparsecut.Pagerank_cut
module Clustering = Dex_ldd.Clustering
module Ldd = Dex_ldd.Ldd
module Schedule = Dex_decomp.Schedule
module Decomposition = Dex_decomp.Decomposition
module Decomposition_verify = Dex_decomp.Verify
module Las_vegas = Dex_decomp.Las_vegas
module Cpz_baseline = Dex_decomp.Cpz_baseline
module Recursive_baseline = Dex_decomp.Recursive_baseline
module Routing = Dex_routing.Hierarchy
module Token_router = Dex_routing.Token_router
module Triangles = Dex_triangle.Exact
module Triangle_enum = Dex_triangle.Expander_enum
module Triangle_baselines = Dex_triangle.Baselines
module Triangle_dlp = Dex_triangle.Dlp

(** [decompose ?ledger ?epsilon ?k g ~seed] computes an
    (ε, φ)-expander decomposition (Theorem 1) on the [Practical]
    schedule. Defaults: ε = 1/6, k = 2. Pass a [ledger] (optionally
    with a {!Trace.t} attached via {!Rounds.attach_trace}) to observe
    the run's span structure, round charges and message traffic. *)
let decompose ?ledger ?(epsilon = 1.0 /. 6.0) ?(k = 2) g ~seed =
  Decomposition.run ?ledger ~epsilon ~k g (Rng.create seed)

(** [sparse_cut ?ledger ?phi g ~seed] runs the nearly most balanced
    sparse cut (Theorem 3) with the [Practical] Nibble parameters at
    conductance parameter [phi] (default 1/20). *)
let sparse_cut ?ledger ?(phi = 0.05) g ~seed =
  let m = max 1 (Graph.num_edges g) in
  let params = Nibble_params.make ~preset:Nibble_params.Practical ~phi ~m () in
  Sparse_cut.run ?ledger params g (Rng.create seed)

(** [low_diameter_decomposition ?ledger ?beta g ~seed] runs Theorem 4's
    LDD (default β = 0.1). *)
let low_diameter_decomposition ?ledger ?(beta = 0.1) g ~seed =
  Ldd.run_graph ?ledger g ~beta (Rng.create seed)

(** [enumerate_triangles ?ledger ?epsilon ?k g ~seed] enumerates every
    triangle of [g] via expander decomposition (Theorem 2). *)
let enumerate_triangles ?ledger ?epsilon ?k g ~seed =
  Triangle_enum.run ?ledger ?epsilon ?k_decomp:k g (Rng.create seed)
