(* Benchmark harness — regenerates the paper's claims as measured
   tables (the paper has no empirical tables of its own; see DESIGN.md
   §1 and EXPERIMENTS.md for the mapping).

     E1  Theorem 4  LDD quality (diameter bound, cut fraction, w.h.p.)
     E2  Theorem 3  nearly most balanced sparse cut quality
     E3  Theorem 3  vs prior sparse-cut algorithms (balance failure)
     E4  Theorem 1  decomposition quality ((ε, φ) guarantees measured)
     E5  Theorem 1  rounds scaling in n and k
     E6  Theorem 1  vs CPZ'19 baseline (the arboricity leftover)
     E7  Theorem 2  triangle enumeration rounds vs baselines
     E8  GKS        routing preprocessing/query trade-off
     E9  ablations  Phase-2 level count, sweep stride, nibble copies
     E11 Section 1.2 recursion depth: strawman vs Theorem 1; sequential
                    Spielman-Teng Partition vs the parallelized one
     E12 Section 1   Jerrum-Sinclair: 1/Phi <= tau_mix <= log n / Phi^2
     E13 robustness  fault sweep: reliable delivery overhead vs drop
                     probability; Las Vegas retry cost until certified

   Every cell is deterministic from the seeds below, so the whole run
   is one golden: `dune exec bench/main.exe` prints every section and
   must match bench/snapshots/bench.txt byte for byte;
   `dune exec bench/main.exe -- e5` runs a single section. Wall-clock
   measurements live in perfbench/. *)

module X = Dexpander
module Snap = X.Bench_snapshot

let only : string list ref = ref []

let wants name = !only = [] || List.mem name !only

let fi = float_of_int

(* the fraction [x] as a percentage, "12.50%" *)
let fmt_pct x = Printf.sprintf "%.2f%%" (100.0 *. x)

let out_table t = print_string (Snap.render t)

let section name title f =
  if wants name then begin
    Printf.printf "\n### [%s] %s\n\n%!" (String.uppercase_ascii name) title;
    f ();
    print_newline ()
  end

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 4: low-diameter decomposition                          *)
(* ------------------------------------------------------------------ *)

let e1_ldd () =
  let t =
    Snap.create ~title:"LDD: diameter O(log^2 n / b^2), cut <= 3*beta*m (Theorem 4)"
      [ "graph"; "n"; "beta"; "seed"; "parts"; "max-diam"; "bound"; "cut%"; "budget%";
        "P[fail]"; "rounds" ]
  in
  let cases =
    [ (* β < 1/3 keeps the 3β budget meaningful; the V_S density
         threshold then needs n ≥ 2ab ≈ 50·ln²n/β² vertices *)
      ("cycle", X.Generators.cycle 70_000, 0.3);
      ("cycle", X.Generators.cycle 20_000, 0.6);
      ("path", X.Generators.path 24_000, 0.7) ]
  in
  List.iter
    (fun (name, g, beta) ->
      let n = X.Graph.num_vertices g in
      let m = X.Graph.num_edges g in
      let seeds = [ 1; 2; 3 ] in
      List.iter
        (fun seed ->
          let r = X.Ldd.run_graph g ~beta (X.Rng.create seed) in
          (* cycle/path parts are arcs: diameter from sizes, cheap *)
          let max_diam =
            List.fold_left (fun acc p -> max acc (Array.length p - 1)) 0 r.X.Ldd.parts
          in
          let bound = X.Ldd.diameter_bound ~n ~beta in
          Snap.add_row t
            [ name; string_of_int n; Printf.sprintf "%.2f" beta; string_of_int seed;
              string_of_int (List.length r.X.Ldd.parts);
              string_of_int max_diam; string_of_int bound;
              fmt_pct (fi (List.length r.X.Ldd.cut_edges) /. fi m);
              fmt_pct (3.0 *. beta);
              Printf.sprintf "%.1e"
                (X.Ldd.failure_probability ~m ~beta ~k_ln:(5.0 *. log (fi n)));
              string_of_int r.X.Ldd.rounds ])
        seeds)
    cases;
  out_table t

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 3: nearly most balanced sparse cut                     *)
(* ------------------------------------------------------------------ *)

let e2_sparsecut () =
  let t =
    Snap.create
      ~title:
        "Sparse cut: bal(C) >= min(b/2, 1/48), Phi(C) = O(phi^{1/3} log^{5/3} n) (Theorem 3)"
      [ "graph"; "planted-b"; "bal(C)"; "bal-floor"; "Phi(C)"; "h(phi)"; "rounds" ]
  in
  let rng = X.Rng.create 7 in
  let phi = 1.0 /. 16.0 in
  let scale = 2 in
  let cases =
    [ ("dumbbell 1:1", X.Generators.dumbbell rng ~n1:(60 * scale) ~n2:(60 * scale) ~d:6 ~bridges:2, 0.5);
      ("dumbbell 1:5", X.Generators.dumbbell rng ~n1:(40 * scale) ~n2:(200 * scale) ~d:6 ~bridges:2, 1.0 /. 6.0);
      ("dumbbell 1:15", X.Generators.dumbbell rng ~n1:(20 * scale) ~n2:(300 * scale) ~d:6 ~bridges:2, 1.0 /. 16.0);
      ("expander", X.Generators.random_regular rng ~n:(120 * scale) ~d:8, 0.0) ]
  in
  List.iter
    (fun (name, g, planted_b) ->
      let n = X.Graph.num_vertices g in
      let params = X.Nibble_params.make ~phi ~m:(X.Graph.num_edges g) () in
      let r = X.Sparse_cut.run params g (X.Rng.create 17) in
      let floor_b = Float.min (planted_b /. 2.0) (1.0 /. 48.0) in
      Snap.add_row t
        [ name;
          Printf.sprintf "%.3f" planted_b;
          Printf.sprintf "%.3f" r.X.Sparse_cut.balance;
          Printf.sprintf "%.3f" floor_b;
          (if Float.is_finite r.X.Sparse_cut.conductance then
             Printf.sprintf "%.4f" r.X.Sparse_cut.conductance
           else "-");
          Printf.sprintf "%.2f" (X.Nibble_params.h ~n phi);
          string_of_int r.X.Sparse_cut.rounds ])
    cases;
  out_table t

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 3 vs prior cut algorithms                              *)
(* ------------------------------------------------------------------ *)

let e3_baselines () =
  let t =
    Snap.create
      ~title:"Sparse cut baselines: prior algorithms lack the balance guarantee"
      [ "graph"; "algorithm"; "Phi(C)"; "bal(C)"; "rounds" ]
  in
  let rng = X.Rng.create 11 in
  let phi = 1.0 /. 16.0 in
  (* the separating instance: the sparsest cut is a tiny wart, the
     most balanced sparse cut is the dumbbell bridge — sweep-based
     algorithms return the wart, Theorem 3 keeps peeling *)
  (* tuned so the wart (phi = 1/31, 1.9%% of the volume) is strictly
     sparser than the 32-edge bridge cut (phi = 0.039) yet below the
     1/48 stop threshold: sweeps stop at the wart, Partition peels it
     and continues to the balanced bridge cut *)
  let warted =
    X.Generators.attach_warts rng
      (X.Generators.dumbbell rng ~n1:100 ~n2:100 ~d:8 ~bridges:32)
      ~warts:1 ~size:6
  in
  let graphs =
    [ ("dumbbell 1:1", X.Generators.dumbbell rng ~n1:80 ~n2:80 ~d:6 ~bridges:2);
      ("dumbbell 1:7", X.Generators.dumbbell rng ~n1:30 ~n2:210 ~d:6 ~bridges:2);
      ("warted dumbbell", warted);
      ("cliques-chain", X.Generators.cliques_chain ~cliques:8 ~size:12) ]
  in
  List.iter
    (fun (name, g) ->
      let params = X.Nibble_params.make ~phi ~m:(X.Graph.num_edges g) () in
      let part = X.Sparse_cut.run params g (X.Rng.create 23) in
      Snap.add_row t
        [ name; "partition (Thm 3)";
          Printf.sprintf "%.4f" part.X.Sparse_cut.conductance;
          Printf.sprintf "%.3f" part.X.Sparse_cut.balance;
          string_of_int part.X.Sparse_cut.rounds ];
      (match X.Cut_baselines.spectral g (X.Rng.create 29) with
      | Some c ->
        Snap.add_row t
          [ ""; "spectral sweep";
            Printf.sprintf "%.4f" c.X.Cut_baselines.conductance;
            Printf.sprintf "%.3f" c.X.Cut_baselines.balance;
            string_of_int c.X.Cut_baselines.rounds ]
      | None -> ());
      (match X.Cut_baselines.dsmp g (X.Rng.create 31) with
      | Some c ->
        Snap.add_row t
          [ ""; "DSMP random walk";
            Printf.sprintf "%.4f" c.X.Cut_baselines.conductance;
            Printf.sprintf "%.3f" c.X.Cut_baselines.balance;
            string_of_int c.X.Cut_baselines.rounds ]
      | None -> ());
      (* ACL seeded at a degree-weighted random vertex *)
      let src = ref 0 in
      let best = ref 0 in
      for v = 0 to X.Graph.num_vertices g - 1 do
        if X.Graph.degree g v > !best then begin
          best := X.Graph.degree g v;
          src := v
        end
      done;
      match X.Pagerank_cut.run g ~src:!src with
      | Some c ->
        Snap.add_row t
          [ ""; "ACL PageRank push";
            Printf.sprintf "%.4f" c.X.Pagerank_cut.conductance;
            Printf.sprintf "%.3f" c.X.Pagerank_cut.balance;
            string_of_int c.X.Pagerank_cut.pushes ]
      | None -> ())
    graphs;
  out_table t

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 1: decomposition quality                               *)
(* ------------------------------------------------------------------ *)

let e4_decomp_quality () =
  let t =
    Snap.create ~title:"Expander decomposition quality (Theorem 1 guarantees, measured)"
      [ "graph"; "n"; "m"; "eps"; "parts"; "removed%"; "minPhi>="; "phi-target"; "ok" ]
  in
  let rng = X.Rng.create 13 in
  let scale = 50 in
  let cases =
    [ ("sbm-4", X.Generators.connectivize rng
         (X.Generators.planted_partition rng ~parts:4 ~size:scale ~p_in:0.35 ~p_out:0.01), 0.3);
      ("sbm-8", X.Generators.connectivize rng
         (X.Generators.planted_partition rng ~parts:8 ~size:(scale / 2 * 2) ~p_in:0.45 ~p_out:0.008), 0.3);
      ("powerlaw", X.Generators.connectivize rng
         (X.Generators.chung_lu rng ~n:(4 * scale) ~exponent:2.5 ~avg_degree:10.0), 1.0 /. 6.0);
      ("gnp-expander", X.Generators.connectivize rng (X.Generators.gnp rng ~n:(3 * scale) ~p:0.1),
       1.0 /. 6.0) ]
  in
  List.iter
    (fun (name, g, eps) ->
      let r = X.decompose ~epsilon:eps ~k:2 g ~seed:3 in
      let report = X.Decomposition_verify.check g r (X.Rng.create 4) in
      Snap.add_row t
        [ name;
          string_of_int (X.Graph.num_vertices g);
          string_of_int (X.Graph.num_edges g);
          Printf.sprintf "%.3f" eps;
          string_of_int (List.length r.X.Decomposition.parts);
          fmt_pct r.X.Decomposition.edge_fraction_removed;
          (if Float.is_finite report.X.Decomposition_verify.min_conductance_lower then
             Printf.sprintf "%.4f" report.X.Decomposition_verify.min_conductance_lower
           else "inf");
          Printf.sprintf "%.4f" r.X.Decomposition.phi_target;
          (if
             report.X.Decomposition_verify.is_partition
             && report.X.Decomposition_verify.epsilon_ok
             && report.X.Decomposition_verify.phi_ok
           then "yes"
           else "NO") ])
    cases;
  out_table t

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 1: rounds scaling in n and k                           *)
(* ------------------------------------------------------------------ *)

let sbm_family rng ~n =
  (* 4 planted expander blocks, average intra-degree ~12 *)
  let size = n / 4 in
  let p_in = Float.min 0.9 (12.0 /. fi size) in
  let p_out = Float.min 0.5 (0.6 /. fi size) in
  X.Generators.connectivize rng
    (X.Generators.planted_partition rng ~parts:4 ~size ~p_in ~p_out)

let warted_family rng ~n =
  (* an expander with small dangling cliques: the sparse cuts found
     are tiny (each wart is ~1.3%% of the volume), so with eps = 0.5
     the 2b test of Phase 1 routes components into Phase 2 *)
  let warts = max 2 (n / 32) in
  let base = X.Generators.random_regular rng ~n ~d:8 in
  X.Generators.attach_warts rng base ~warts ~size:6

let e5_decomp_rounds () =
  (* Theorem 1's n^{2/k} term is the Phase-2 iteration budget: each of
     the k levels runs at most 2τ iterations with
     τ = ((ε/6)·Vol)^{1/k} ≤ n^{2/k} (Lemma 2). The table shows the
     measured iterations against that cap, plus the total simulated
     rounds — the latter are dominated by the poly(1/φ, log n) factor
     at runnable conductances, exactly the "enormous" polylog the
     paper's Open Problems section concedes, so their n-slope is
     reported for context rather than as the headline. *)
  let t =
    Snap.create ~title:"Decomposition scaling in n and k (Theorem 1 / Lemma 2)"
      [ "n"; "m"; "k"; "tau"; "iter-cap=2tau*k"; "phase2-iters"; "partition-calls";
        "parts"; "rounds"; "msgs" ]
  in
  let ns = [ 128; 256; 512; 1024 ] in
  let ks = [ 1; 2; 3 ] in
  let per_k = Hashtbl.create 8 in
  let cap_violations = ref 0 in
  List.iter
    (fun n ->
      let rng = X.Rng.create (1000 + n) in
      let g = warted_family rng ~n in
      List.iter
        (fun k ->
          let eps = 0.5 in
          let r = X.decompose ~epsilon:eps ~k g ~seed:(n + k) in
          let rounds = r.X.Decomposition.stats.X.Decomposition.rounds in
          let vol = fi (X.Graph.total_volume g) in
          let tau = (eps /. 6.0 *. vol) ** (1.0 /. fi k) in
          let cap = int_of_float (Float.ceil (2.0 *. tau *. fi k)) in
          let iters = r.X.Decomposition.stats.X.Decomposition.phase2_max_iterations in
          if iters > cap then incr cap_violations;
          Hashtbl.replace per_k k ((fi n, fi rounds) :: (try Hashtbl.find per_k k with Not_found -> []));
          Snap.add_row t
            [ string_of_int n;
              string_of_int (X.Graph.num_edges g);
              string_of_int k;
              Printf.sprintf "%.1f" tau;
              string_of_int cap;
              string_of_int iters;
              string_of_int r.X.Decomposition.stats.X.Decomposition.partition_calls;
              string_of_int (List.length r.X.Decomposition.parts);
              string_of_int rounds;
              string_of_int r.X.Decomposition.stats.X.Decomposition.messages ])
        ks)
    ns;
  out_table t;
  Printf.printf "\nLemma 2 iteration-cap violations: %d (theory: 0)\n" !cap_violations;
  print_string
    "log-log slope of total rounds vs n (dominated by poly(1/phi), context only):\n";
  List.iter
    (fun k -> Printf.printf "  k=%d: slope %.2f\n" k (X.Stats.log_log_slope (Hashtbl.find per_k k)))
    ks

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 1 vs the CPZ'19 baseline                               *)
(* ------------------------------------------------------------------ *)

let e6_vs_cpz () =
  let t =
    Snap.create
      ~title:"This paper vs CPZ'19: no low-arboricity leftover part (Section 1.1)"
      [ "graph"; "algorithm"; "parts"; "leftover-n"; "leftover-m%"; "leftover-arboricity";
        "removed%" ]
  in
  let rng = X.Rng.create 41 in
  let scale = 300 in
  let graphs =
    [ ("powerlaw", X.Generators.connectivize rng
         (X.Generators.chung_lu rng ~n:scale ~exponent:2.3 ~avg_degree:8.0));
      ("sbm-4", X.Generators.connectivize rng
         (X.Generators.planted_partition rng ~parts:4 ~size:(scale / 4) ~p_in:0.35 ~p_out:0.01)) ]
  in
  List.iter
    (fun (name, g) ->
      let ours = X.decompose ~epsilon:(1.0 /. 6.0) ~k:2 g ~seed:5 in
      Snap.add_row t
        [ name; "this paper";
          string_of_int (List.length ours.X.Decomposition.parts);
          "0"; "0.00%"; "-";
          fmt_pct ours.X.Decomposition.edge_fraction_removed ];
      let cpz = X.Cpz_baseline.run ~delta:0.35 ~epsilon:(1.0 /. 6.0) g (X.Rng.create 6) in
      Snap.add_row t
        [ ""; "CPZ'19 (delta=0.35)";
          string_of_int (List.length cpz.X.Cpz_baseline.parts);
          string_of_int (Array.length cpz.X.Cpz_baseline.leftover);
          fmt_pct cpz.X.Cpz_baseline.leftover_edge_fraction;
          string_of_int cpz.X.Cpz_baseline.leftover_arboricity;
          fmt_pct cpz.X.Cpz_baseline.removed_edge_fraction ])
    graphs;
  out_table t

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 2: triangle enumeration                                *)
(* ------------------------------------------------------------------ *)

let e7_triangles () =
  let t =
    Snap.create
      ~title:
        "Triangle enumeration on G(n, 1/2) (the lower-bound family): rounds vs baselines \
         (Theorem 2)"
      [ "n"; "m"; "triangles"; "complete"; "enum-rounds"; "instances"; "total-rounds";
        "msgs"; "trivial"; "DLP-exec"; "IL~n^3/4"; "LB~n^1/3" ]
  in
  let ns = [ 64; 128; 192; 256 ] in
  let pts_inst = ref [] in
  List.iter
    (fun n ->
      let rng = X.Rng.create (2000 + n) in
      let g = X.Generators.connectivize rng (X.Generators.gnp rng ~n ~p:0.5) in
      let r = X.enumerate_triangles ~epsilon:(1.0 /. 6.0) ~k:2 g ~seed:n in
      let max_inst =
        List.fold_left (fun acc l -> max acc l.X.Triangle_enum.max_instances) 0
          r.X.Triangle_enum.levels
      in
      pts_inst := (fi n, fi max_inst) :: !pts_inst;
      let dlp = X.Triangle_dlp.run g in
      Snap.add_row t
        [ string_of_int n;
          string_of_int (X.Graph.num_edges g);
          string_of_int (List.length r.X.Triangle_enum.triangles);
          (if r.X.Triangle_enum.complete && dlp.X.Triangle_dlp.complete then "yes" else "NO");
          string_of_int r.X.Triangle_enum.enumeration_rounds;
          string_of_int max_inst;
          string_of_int r.X.Triangle_enum.total_rounds;
          string_of_int r.X.Triangle_enum.messages;
          string_of_int (X.Triangle_baselines.trivial_rounds g);
          string_of_int dlp.X.Triangle_dlp.rounds;
          string_of_int (X.Triangle_baselines.izumi_le_gall_rounds ~n);
          string_of_int (X.Triangle_baselines.lower_bound_rounds ~n) ])
    ns;
  out_table t;
  Printf.printf "\nlog-log slope of routing instances vs n: %.2f (theory: 1/3)\n"
    (X.Stats.log_log_slope !pts_inst)

(* ------------------------------------------------------------------ *)
(* E8 — GKS routing trade-off                                          *)
(* ------------------------------------------------------------------ *)

let e8_routing () =
  let t =
    Snap.create ~title:"GKS routing structure: preprocessing vs query trade-off in k"
      [ "n"; "k"; "beta=m^{1/k}"; "tau-mix"; "preprocess"; "query"; "break-even-queries" ]
  in
  let rng = X.Rng.create 51 in
  let n = 256 in
  let g = X.Generators.random_regular rng ~n ~d:8 in
  let hs = List.init 4 (fun i -> X.Routing.build g (X.Rng.create 52) ~k:(i + 1)) in
  List.iter
    (fun (h : X.Routing.t) ->
      (* query volume below which this k beats k = 1 (k = 1 pays a
         huge one-shot preprocessing for the cheapest queries) *)
      let h1 = List.hd hs in
      let break_even =
        if h.X.Routing.k = 1 then "-"
        else if
          h.X.Routing.preprocess_rounds >= h1.X.Routing.preprocess_rounds
          || h.X.Routing.query_rounds <= h1.X.Routing.query_rounds
        then "never"
        else
          string_of_int
            ((h1.X.Routing.preprocess_rounds - h.X.Routing.preprocess_rounds)
            / max 1 (h.X.Routing.query_rounds - h1.X.Routing.query_rounds))
      in
      Snap.add_row t
        [ string_of_int n;
          string_of_int h.X.Routing.k;
          Printf.sprintf "%.1f" h.X.Routing.beta;
          string_of_int h.X.Routing.tau_mix;
          string_of_int h.X.Routing.preprocess_rounds;
          string_of_int h.X.Routing.query_rounds;
          break_even ])
    hs;
  out_table t;
  (* executed token routing as the delivery sanity check *)
  let requests = X.Token_router.degree_respecting_requests g (X.Rng.create 53) ~load:0.5 in
  let stats = X.Token_router.route ~capacity:4 g (X.Rng.create 54) requests in
  Printf.printf
    "\nexecuted token routing: %d requests delivered in %d rounds (max queue %d)\n"
    stats.X.Token_router.delivered stats.X.Token_router.rounds stats.X.Token_router.max_queue

(* ------------------------------------------------------------------ *)
(* E9 — ablations                                                      *)
(* ------------------------------------------------------------------ *)

let e9_ablations () =
  let rng = X.Rng.create 61 in
  (* (a) Phase-2 level count k, on a Phase-2-heavy family (warted
     expander) and a Phase-1-heavy one (SBM) *)
  let t =
    Snap.create ~title:"Ablation: Phase-2 level count k (rounds vs conductance ladder depth)"
      [ "family"; "k"; "rounds"; "parts"; "removed%"; "phase2-comps"; "phase2-iters";
        "partition-calls" ]
  in
  let families = [ ("warted", warted_family rng ~n:256); ("sbm", sbm_family rng ~n:256) ] in
  List.iter
    (fun (fname, g) ->
      List.iter
        (fun k ->
          let eps = if fname = "warted" then 0.5 else 0.3 in
          let r = X.decompose ~epsilon:eps ~k g ~seed:62 in
          Snap.add_row t
            [ fname;
              string_of_int k;
              string_of_int r.X.Decomposition.stats.X.Decomposition.rounds;
              string_of_int (List.length r.X.Decomposition.parts);
              fmt_pct r.X.Decomposition.edge_fraction_removed;
              string_of_int r.X.Decomposition.stats.X.Decomposition.phase2_components;
              string_of_int r.X.Decomposition.stats.X.Decomposition.phase2_max_iterations;
              string_of_int r.X.Decomposition.stats.X.Decomposition.partition_calls ])
        [ 1; 2; 3; 4 ])
    families;
  out_table t;
  (* (b) sweep stride: every-step (the paper) vs strided checks, on an
     instance whose cut is discovered late in the walk *)
  let t2 =
    Snap.create ~title:"Ablation: sweep-check stride in ApproximateNibble"
      [ "stride"; "Phi(C)"; "bal(C)"; "rounds" ]
  in
  let gd = X.Generators.dumbbell (X.Rng.create 63) ~n1:30 ~n2:210 ~d:6 ~bridges:2 in
  List.iter
    (fun stride ->
      let params =
        { (X.Nibble_params.make ~phi:(1.0 /. 16.0) ~m:(X.Graph.num_edges gd) ()) with
          X.Nibble_params.sweep_stride = stride }
      in
      let r = X.Sparse_cut.run params gd (X.Rng.create 64) in
      Snap.add_row t2
        [ string_of_int stride;
          Printf.sprintf "%.4f" r.X.Sparse_cut.conductance;
          Printf.sprintf "%.3f" r.X.Sparse_cut.balance;
          string_of_int r.X.Sparse_cut.rounds ])
    [ 1; 4; 16; 64 ];
  out_table t2;
  (* (c) ParallelNibble copy count: probability of hitting a 2%-volume
     wart grows with the number of degree-sampled start vertices *)
  let t3 =
    Snap.create
      ~title:"Ablation: ParallelNibble copies k (hit rate on a 2%-volume wart, 10 seeds)"
      [ "copies"; "wart-hit-rate"; "avg-max-overlap"; "aborts" ]
  in
  let gw =
    X.Generators.attach_warts (X.Rng.create 65)
      (X.Generators.random_regular (X.Rng.create 66) ~n:200 ~d:8)
      ~warts:2 ~size:6
  in
  let n_base = 200 in
  let params = X.Nibble_params.make ~phi:(1.0 /. 24.0) ~m:(X.Graph.num_edges gw) () in
  let view = X.View.make gw in
  List.iter
    (fun k ->
      let hits = ref 0 and overlaps = ref 0 and aborts = ref 0 in
      for seed = 1 to 10 do
        let r = X.Parallel_nibble.run ~k params view (X.Rng.create (100 + seed)) in
        overlaps := !overlaps + r.X.Parallel_nibble.max_overlap;
        if r.X.Parallel_nibble.aborted then incr aborts;
        (* a hit: the returned union contains a full wart and is a
           genuinely sparse cut *)
        let c = r.X.Parallel_nibble.cut in
        let wart_member = Array.exists (fun v -> v >= n_base) c in
        if
          Array.length c > 0 && wart_member
          && X.Metrics.conductance gw c <= 0.06
        then incr hits
      done;
      Snap.add_row t3
        [ string_of_int k;
          Printf.sprintf "%d/10" !hits;
          Printf.sprintf "%.1f" (fi !overlaps /. 10.0);
          string_of_int !aborts ])
    [ 1; 2; 4; 8 ];
  out_table t3

(* ------------------------------------------------------------------ *)
(* E11 — strawman recursion depth & sequential ST Partition            *)
(* ------------------------------------------------------------------ *)

let e11_strawman () =
  (* (a) recursion depth of the straightforward recursive decomposition
     vs the Theorem-1 driver's bounded Phase-1 depth. A chain of
     cliques makes the spectral strawman peel one balanced half at a
     time, but its depth grows with the chain length while d stays
     O(eps^-1 log n). *)
  let t =
    Snap.create
      ~title:"Strawman recursive decomposition vs Theorem 1 (depth = parallel time proxy)"
      [ "graph"; "algorithm"; "parts"; "depth"; "depth-bound-d"; "removed%" ]
  in
  let chains = [ 8; 16; 32 ] in
  List.iter
    (fun cliques ->
      let g = X.Generators.cliques_chain ~cliques ~size:8 in
      let name = Printf.sprintf "cliques-chain %d" cliques in
      let straw = X.Recursive_baseline.run ~phi:(1.0 /. 16.0) g (X.Rng.create 81) in
      Snap.add_row t
        [ name; "strawman (spectral recursion)";
          string_of_int (List.length straw.X.Recursive_baseline.parts);
          string_of_int straw.X.Recursive_baseline.recursion_depth;
          "-";
          fmt_pct straw.X.Recursive_baseline.edge_fraction_removed ];
      let ours = X.decompose ~epsilon:0.3 ~k:2 g ~seed:82 in
      Snap.add_row t
        [ ""; "Theorem 1 driver";
          string_of_int (List.length ours.X.Decomposition.parts);
          string_of_int ours.X.Decomposition.stats.X.Decomposition.phase1_depth;
          string_of_int ours.X.Decomposition.schedule.X.Schedule.d;
          fmt_pct ours.X.Decomposition.edge_fraction_removed ])
    chains;
  out_table t;
  (* (b) sequential Spielman-Teng Partition vs the parallelized one *)
  let t2 =
    Snap.create
      ~title:"Sequential ST Partition (summed rounds) vs parallelized Partition (Appendix A.4)"
      [ "graph"; "algorithm"; "Phi(C)"; "bal(C)"; "rounds"; "nibbles/iters" ]
  in
  let rng = X.Rng.create 83 in
  let graphs =
    [ ("dumbbell", X.Generators.dumbbell rng ~n1:80 ~n2:80 ~d:6 ~bridges:2);
      ("cliques-chain", X.Generators.cliques_chain ~cliques:8 ~size:12) ]
  in
  List.iter
    (fun (name, g) ->
      let params = X.Nibble_params.make ~phi:(1.0 /. 16.0) ~m:(X.Graph.num_edges g) () in
      let seq = X.Sparse_cut_sequential.run params g (X.Rng.create 84) in
      Snap.add_row t2
        [ name; "sequential ST";
          Printf.sprintf "%.4f" seq.X.Sparse_cut_sequential.conductance;
          Printf.sprintf "%.3f" seq.X.Sparse_cut_sequential.balance;
          string_of_int seq.X.Sparse_cut_sequential.rounds;
          string_of_int seq.X.Sparse_cut_sequential.nibbles ];
      let par = X.Sparse_cut.run params g (X.Rng.create 84) in
      Snap.add_row t2
        [ ""; "parallelized (Thm 3)";
          Printf.sprintf "%.4f" par.X.Sparse_cut.conductance;
          Printf.sprintf "%.3f" par.X.Sparse_cut.balance;
          string_of_int par.X.Sparse_cut.rounds;
          string_of_int par.X.Sparse_cut.iterations ])
    graphs;
  out_table t2

(* ------------------------------------------------------------------ *)
(* E12 — Jerrum–Sinclair mixing/conductance relation                   *)
(* ------------------------------------------------------------------ *)

let e12_mixing () =
  let t =
    Snap.create
      ~title:"Jerrum-Sinclair: Theta(1/Phi) <= tau_mix <= Theta(log n / Phi^2) (Section 1)"
      [ "graph"; "n"; "Phi (spectral lb)"; "tau-mix"; "1/Phi"; "log n/Phi^2" ]
  in
  let rng = X.Rng.create 91 in
  let cases =
    [ ("complete", X.Generators.complete 64);
      ("regular d=8", X.Generators.random_regular rng ~n:128 ~d:8);
      ("grid 12x12", X.Generators.grid 12 12);
      ("cycle", X.Generators.cycle 128);
      ("dumbbell", X.Generators.dumbbell rng ~n1:64 ~n2:64 ~d:6 ~bridges:2) ]
  in
  List.iter
    (fun (name, g) ->
      let n = X.Graph.num_vertices g in
      let gap, _ = X.Mixing.spectral_gap ~iters:400 g (X.Rng.create 92) in
      (* the lazy gap is a lower bound on Phi (Cheeger) *)
      let phi = Float.max 1e-6 gap in
      let tau = X.Mixing.mixing_time ~max_steps:(64 * n) g (X.Rng.create 93) in
      Snap.add_row t
        [ name;
          string_of_int n;
          Printf.sprintf "%.4f" phi;
          string_of_int tau;
          Printf.sprintf "%.0f" (1.0 /. phi);
          Printf.sprintf "%.0f" (log (fi n) /. (phi *. phi)) ])
    cases;
  out_table t

(* ------------------------------------------------------------------ *)
(* E13 — fault sweep: reliable delivery and Las Vegas retries          *)
(* ------------------------------------------------------------------ *)

let e13_faults () =
  let n = 256 in
  let g = sbm_family (X.Rng.create 131) ~n in
  (* --- reliable BFS / leader election under message loss --- *)
  let t =
    Snap.create
      ~title:
        (Printf.sprintf
           "Reliable delivery on a lossy SBM (n=%d): rounds/messages vs fault-free"
           (X.Graph.num_vertices g))
      [ "protocol"; "p-drop"; "p-dup"; "rounds"; "msgs"; "dropped";
        "duplicated"; "round-ovh"; "msg-ovh"; "correct" ]
  in
  let truth = X.Metrics.bfs_distances g 0 in
  let run_protocol proto p =
    let faults =
      if p = 0.0 then None
      else Some (X.Faults.create ~drop:p ~duplicate:(p /. 2.0) ~seed:137)
    in
    let ledger = X.Rounds.create () in
    let net = X.Network.create ?faults g ledger in
    let correct, label =
      match proto with
      | `Bfs ->
        let tree = X.Reliable.bfs_tree net ~root:(X.Vertex.local 0) in
        (tree.X.Primitives.depth = truth, "bfs-reliable")
      | `Leader ->
        let leaders = X.Reliable.elect_leader net in
        (Array.for_all (fun l -> l = 0) leaders, "leader-reliable")
    in
    let rounds = try List.assoc label (X.Rounds.by_phase ledger) with Not_found -> 0 in
    let msgs = X.Network.messages_sent net in
    let drops, dups =
      match faults with
      | None -> (0, 0)
      | Some f -> (X.Faults.drops f, X.Faults.duplicates f)
    in
    (rounds, msgs, drops, dups, correct)
  in
  List.iter
    (fun proto ->
      let name = match proto with `Bfs -> "bfs" | `Leader -> "leader" in
      let r0, m0, _, _, _ = run_protocol proto 0.0 in
      List.iter
        (fun p ->
          let r, m, drops, dups, correct = run_protocol proto p in
          Snap.add_row t
            [ name; Printf.sprintf "%.2f" p; Printf.sprintf "%.3f" (p /. 2.0);
              string_of_int r; string_of_int m;
              string_of_int drops; string_of_int dups;
              Printf.sprintf "%.2fx" (fi r /. fi (max 1 r0));
              Printf.sprintf "%.2fx" (fi m /. fi (max 1 m0));
              (if correct then "yes" else "NO") ])
        [ 0.0; 0.01; 0.05; 0.1 ])
    [ `Bfs; `Leader ];
  out_table t;
  (* --- Las Vegas retry wrappers: pay rounds until self-certified --- *)
  let t2 =
    Snap.create
      ~title:"Las Vegas wrappers: attempts until Verify accepts, rounds summed over retries"
      [ "algorithm"; "graph"; "n"; "attempts"; "rounds-total"; "retry-ovh"; "certified" ]
  in
  let scale = 40 in
  let rng = X.Rng.create 139 in
  let sbm =
    X.Generators.connectivize rng
      (X.Generators.planted_partition rng ~parts:4 ~size:scale ~p_in:0.35 ~p_out:0.01)
  in
  (* one row per wrapper: the attempts, the rounds summed over them and,
     when certified, their overhead over the accepted attempt's own *)
  let row algorithm family g ~rounds outcome =
    let head = [ algorithm; family; string_of_int (X.Graph.num_vertices g) ] in
    let counts (v : _ X.Rounds.verified) =
      [ string_of_int v.X.Rounds.attempts; string_of_int v.X.Rounds.rounds_total ]
    in
    Snap.add_row t2
      (match outcome with
      | Ok v ->
        head @ counts v
        @ [ Printf.sprintf "%.2fx"
              (fi v.X.Rounds.rounds_total /. fi (max 1 (rounds v.X.Rounds.value)));
            "yes" ]
      | Error v -> head @ counts v @ [ "-"; "NO" ])
  in
  row "decompose" "sbm-4" sbm
    ~rounds:(fun c -> c.X.Las_vegas.result.X.Decomposition.stats.X.Decomposition.rounds)
    (X.Las_vegas.decompose ~attempts:5 ~epsilon:0.3 ~k:2 sbm (X.Rng.create 141));
  let tri =
    X.Generators.connectivize rng (X.Generators.gnp rng ~n:(2 * scale) ~p:0.25)
  in
  row "triangles" "gnp" tri
    ~rounds:(fun r -> r.X.Triangle_enum.total_rounds)
    (X.Triangle_enum.run_verified ~attempts:3 tri (X.Rng.create 143));
  let phi = 1.0 /. 16.0 in
  let dumb = X.Generators.dumbbell rng ~n1:scale ~n2:scale ~d:6 ~bridges:2 in
  let params =
    X.Nibble_params.make ~phi ~m:(max 1 (X.Graph.num_edges dumb)) ()
  in
  let bound = X.Nibble_params.h ~n:(X.Graph.num_vertices dumb) phi in
  row "sparse-cut" "dumbbell" dumb
    ~rounds:(fun r -> r.X.Sparse_cut.rounds)
    (X.Sparse_cut.run_verified ~attempts:3 ~bound params dumb (X.Rng.create 145));
  out_table t2

(* ------------------------------------------------------------------ *)

let registry =
  [ ("e1", "Theorem 4: low-diameter decomposition", e1_ldd);
    ("e2", "Theorem 3: nearly most balanced sparse cut", e2_sparsecut);
    ("e3", "Theorem 3 vs prior sparse-cut algorithms", e3_baselines);
    ("e4", "Theorem 1: decomposition quality", e4_decomp_quality);
    ("e5", "Theorem 1: rounds scaling", e5_decomp_rounds);
    ("e6", "Theorem 1 vs CPZ'19", e6_vs_cpz);
    ("e7", "Theorem 2: triangle enumeration", e7_triangles);
    ("e8", "GKS routing trade-off", e8_routing);
    ("e9", "Ablations", e9_ablations);
    ("e11", "Strawman recursion & sequential ST Partition", e11_strawman);
    ("e12", "Jerrum-Sinclair mixing relation", e12_mixing);
    ("e13", "Fault sweep: reliable delivery & Las Vegas retries", e13_faults) ]

let () =
  let rec parse = function
    | [] -> ()
    | name :: rest ->
      let name = String.lowercase_ascii name in
      if List.exists (fun (id, _, _) -> id = name) registry then begin
        only := name :: !only;
        parse rest
      end
      else begin
        Printf.eprintf
          "bench: unknown section %S; valid sections: %s\n"
          name
          (String.concat ", " (List.map (fun (id, _, _) -> id) registry));
        exit 2
      end
  in
  parse (List.tl (Array.to_list Sys.argv));
  print_endline "dexpander benchmark harness";
  List.iter (fun (id, title, f) -> section id title f) registry
