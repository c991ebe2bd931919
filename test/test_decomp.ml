(* Tests for the (ε, φ)-expander decomposition (Theorem 1): the
   parameter schedule, end-to-end quality on planted instances, the
   verification report, and the CPZ'19 baseline with its
   low-arboricity leftover. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Params = Dex_sparsecut.Params
module Schedule = Dex_decomp.Schedule
module D = Dex_decomp.Decomposition
module Verify = Dex_decomp.Verify
module Cpz = Dex_decomp.Cpz_baseline
module Rng = Dex_util.Rng

(* ---------- schedule ---------- *)

let test_schedule_ladder_decreasing () =
  let g = Gen.complete 20 in
  let s = Schedule.make ~epsilon:0.2 ~k:3 g in
  Alcotest.(check int) "length" 4 (Array.length s.Schedule.phi);
  for i = 1 to 3 do
    Alcotest.(check bool) "strictly ordered" true (s.Schedule.phi.(i) <= s.Schedule.phi.(i - 1))
  done;
  Alcotest.(check (float 1e-12)) "phi_final" s.Schedule.phi.(3) (Schedule.phi_final s)

let test_schedule_depth_and_beta () =
  let g = Gen.complete 30 in
  let s = Schedule.make ~epsilon:0.2 ~k:2 g in
  (* d is the smallest integer with (1-ε/12)^d·2·C(n,2) < 1 *)
  let shrink = 1.0 -. (0.2 /. 12.0) in
  Alcotest.(check bool) "d sufficient" true
    ((shrink ** float_of_int s.Schedule.d) *. (30.0 *. 29.0) < 1.0);
  Alcotest.(check bool) "d minimal-ish" true
    ((shrink ** float_of_int (s.Schedule.d - 2)) *. (30.0 *. 29.0) >= 1.0);
  Alcotest.(check (float 1e-12)) "beta = eps/(3d)" (0.2 /. 3.0 /. float_of_int s.Schedule.d)
    s.Schedule.beta

let test_schedule_theory_ladder_collapses () =
  let g = Gen.complete 40 in
  let s = Schedule.make ~preset:Params.Theory ~epsilon:0.2 ~k:2 g in
  (* doubly exponential collapse: φ_2 ≪ φ_1 ≪ φ_0 *)
  Alcotest.(check bool) "phi1 < phi0 / 10" true (s.Schedule.phi.(1) < s.Schedule.phi.(0) /. 10.0);
  Alcotest.(check bool) "phi2 < phi1 / 10" true (s.Schedule.phi.(2) < s.Schedule.phi.(1) /. 10.0)

let test_schedule_validation () =
  let g = Gen.complete 5 in
  Alcotest.check_raises "epsilon"
    (Dex_util.Invariant.Violation { where = "Schedule.make"; what = "epsilon in (0,1)" })
    (fun () -> ignore (Schedule.make ~epsilon:1.5 ~k:1 g));
  Alcotest.check_raises "k"
    (Dex_util.Invariant.Violation { where = "Schedule.make"; what = "k >= 1" }) (fun () ->
      ignore (Schedule.make ~epsilon:0.5 ~k:0 g))

let test_h_of_presets () =
  Alcotest.(check (float 1e-12)) "practical h = 3θ" 0.3
    (Schedule.h_of ~preset:Params.Practical ~n:100 0.1);
  Alcotest.(check bool) "theory h larger" true
    (Schedule.h_of ~preset:Params.Theory ~n:100 0.1 > 1.0)

(* ---------- decomposition ---------- *)

let decompose ?(epsilon = 1.0 /. 6.0) ?(k = 2) ~seed g =
  D.run ~epsilon ~k g (Rng.create seed)

let test_dumbbell_two_parts () =
  let rng = Rng.create 100 in
  let g = Gen.dumbbell rng ~n1:60 ~n2:60 ~d:6 ~bridges:2 in
  let r = decompose ~seed:1 g in
  Metrics.check_partition g r.D.parts;
  (* the planted split must appear; the nearly-balanced cut may shave
     off a few extra vertices as singleton parts (still a valid
     decomposition), so assert the two big parts rather than exactly 2 *)
  let sizes = List.map Array.length r.D.parts |> List.sort compare |> List.rev in
  (match sizes with
  | a :: b :: rest ->
    Alcotest.(check bool) "two big sides" true (a >= 55 && b >= 55);
    Alcotest.(check bool) "only small extras" true (List.for_all (fun s -> s <= 3) rest)
  | _ -> Alcotest.fail "expected at least two parts");
  Alcotest.(check bool) "tiny removal" true (r.D.edge_fraction_removed < 0.05)

let test_sbm_block_recovery () =
  let rng = Rng.create 101 in
  let g = Gen.planted_partition rng ~parts:4 ~size:50 ~p_in:0.35 ~p_out:0.01 in
  let g = Gen.connectivize rng g in
  let r = decompose ~epsilon:0.3 ~seed:2 g in
  Alcotest.(check int) "four parts" 4 (List.length r.D.parts);
  (* each part should be essentially one planted block *)
  List.iter
    (fun part ->
      let counts = Array.make 4 0 in
      Array.iter (fun v -> counts.(v / 50) <- counts.(v / 50) + 1) part;
      let best = Array.fold_left max 0 counts in
      Alcotest.(check bool) "block purity ≥ 90%" true
        (10 * best >= 9 * Array.length part))
    r.D.parts;
  Alcotest.(check bool) "epsilon respected" true (r.D.edge_fraction_removed <= 0.3)

let test_expander_stays_whole () =
  let rng = Rng.create 102 in
  let g = Gen.random_regular rng ~n:150 ~d:8 in
  let r = decompose ~seed:3 g in
  Alcotest.(check int) "one part" 1 (List.length r.D.parts);
  Alcotest.(check (float 1e-9)) "nothing removed" 0.0 r.D.edge_fraction_removed

let test_decomposition_determinism () =
  let rng = Rng.create 103 in
  let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:4 ~bridges:1 in
  let r1 = decompose ~seed:7 g and r2 = decompose ~seed:7 g in
  Alcotest.(check int) "same parts count" (List.length r1.D.parts) (List.length r2.D.parts);
  Alcotest.(check (array int)) "same assignment" r1.D.part_of r2.D.part_of;
  Alcotest.(check int) "same rounds" r1.D.stats.D.rounds r2.D.stats.D.rounds

let test_disconnected_input () =
  let g = Graph.of_edges ~n:8 [ (0, 1); (1, 2); (2, 0); (4, 5); (5, 6); (6, 4) ] in
  let r = decompose ~seed:4 g in
  Metrics.check_partition g r.D.parts;
  (* two triangles and two isolated vertices: at least 4 parts *)
  Alcotest.(check bool) "≥ 4 parts" true (List.length r.D.parts >= 4);
  Alcotest.(check (float 1e-9)) "nothing removed" 0.0 r.D.edge_fraction_removed

let test_removed_edges_match_fraction () =
  let rng = Rng.create 104 in
  let g = Gen.planted_partition rng ~parts:3 ~size:40 ~p_in:0.35 ~p_out:0.015 in
  let g = Gen.connectivize rng g in
  let r = decompose ~epsilon:0.3 ~seed:5 g in
  let m = Graph.num_edges g in
  let ledger = r.D.stats.D.removals in
  let total = ledger.D.remove1 + ledger.D.remove2 + ledger.D.remove3 in
  Alcotest.(check (float 1e-9)) "ledger consistent"
    (float_of_int total /. float_of_int m)
    r.D.edge_fraction_removed;
  Alcotest.(check int) "removed list matches ledger" total (List.length r.D.removed_edges)

let test_verify_report () =
  let rng = Rng.create 105 in
  let g = Gen.dumbbell rng ~n1:50 ~n2:50 ~d:6 ~bridges:1 in
  let r = decompose ~seed:6 g in
  let report = Verify.check g r (Rng.create 60) in
  Alcotest.(check bool) "is partition" true report.Verify.is_partition;
  Alcotest.(check bool) "epsilon ok" true report.Verify.epsilon_ok;
  Alcotest.(check bool) "phi ok" true report.Verify.phi_ok;
  Alcotest.(check int) "per-part reports" (List.length r.D.parts)
    (List.length report.Verify.parts)

let test_part_members () =
  let rng = Rng.create 106 in
  let g = Gen.dumbbell rng ~n1:30 ~n2:30 ~d:4 ~bridges:1 in
  let r = decompose ~seed:8 g in
  for v = 0 to Graph.num_vertices g - 1 do
    let part = List.nth r.D.parts r.D.part_of.(v) in
    Alcotest.(check bool) "v in its own part" true (Array.exists (fun u -> u = v) part)
  done

let test_warted_expander_phase2 () =
  (* the Phase-2 showcase: an expander with small dangling cliques —
     the warts must be carved out (Remove-3, becoming singletons)
     while the expander body stays in one piece *)
  let rng = Rng.create 109 in
  let base = Gen.random_regular rng ~n:256 ~d:8 in
  let g = Gen.attach_warts rng base ~warts:8 ~size:6 in
  let r = D.run ~epsilon:0.5 ~k:1 g (Rng.create 257) in
  Metrics.check_partition g r.D.parts;
  let sizes = List.map Array.length r.D.parts in
  let largest = List.fold_left max 0 sizes in
  Alcotest.(check bool) "expander body survives" true (largest >= 250);
  Alcotest.(check bool) "epsilon respected" true (r.D.edge_fraction_removed <= 0.5);
  (* warts must be separated from the body — either carved to
     singletons by Phase 2 (Remove-3) or split off as 6-clique parts
     by Phase 1; both are valid (ε, φ) outputs *)
  let wart_parts = List.length (List.filter (fun s -> s <= 6) sizes) in
  Alcotest.(check bool) "warts separated" true (wart_parts >= 6);
  List.iter
    (fun s ->
      Alcotest.(check bool) "no mid-size fragments" true (s <= 6 || s >= 250))
    sizes

(* ---------- CPZ baseline ---------- *)

let test_cpz_leftover_arboricity () =
  let rng = Rng.create 107 in
  (* power-law graph: plenty of low-degree vertices to peel *)
  let g = Gen.chung_lu rng ~n:200 ~exponent:2.5 ~avg_degree:8.0 in
  let g = Gen.connectivize rng g in
  let delta = 0.4 in
  let r = Cpz.run ~delta ~epsilon:(1.0 /. 6.0) g (Rng.create 70) in
  let threshold = int_of_float (Float.ceil (200.0 ** delta)) in
  Alcotest.(check bool)
    (Printf.sprintf "arboricity %d ≤ n^δ = %d" r.Cpz.leftover_arboricity threshold)
    true
    (r.Cpz.leftover_arboricity <= threshold);
  (* parts + leftover partition V *)
  Metrics.check_partition g (r.Cpz.leftover :: r.Cpz.parts);
  Alcotest.(check bool) "leftover nonempty on power law" true
    (Array.length r.Cpz.leftover > 0)

let test_cpz_no_leftover_on_dense_expander () =
  let rng = Rng.create 108 in
  let g = Gen.random_regular rng ~n:100 ~d:16 in
  (* n^δ = 10 < 16: nothing peels *)
  let r = Cpz.run ~delta:0.5 ~epsilon:(1.0 /. 6.0) g (Rng.create 71) in
  Alcotest.(check int) "no leftover" 0 (Array.length r.Cpz.leftover);
  Alcotest.(check int) "one part" 1 (List.length r.Cpz.parts)

let test_cpz_validation () =
  let g = Gen.complete 5 in
  Alcotest.check_raises "delta"
    (Dex_util.Invariant.Violation { where = "Cpz_baseline.run"; what = "delta in (0,1)" })
    (fun () -> ignore (Cpz.run ~delta:0.0 ~epsilon:0.1 g (Rng.create 1)))

let test_verify_part_methods () =
  (* singleton parts report +inf with method "singleton"; small parts
     use exact enumeration; larger ones the spectral bound *)
  let g = Graph.of_edges ~n:20
      (List.concat
         [ List.init 9 (fun i -> List.init (9 - i - 1) (fun j -> (i, i + j + 1))) |> List.concat;
           [] ])
  in
  (* g = K9 plus 11 isolated vertices *)
  let r = decompose ~seed:9 g in
  let report = Verify.check g r (Rng.create 90) in
  let methods = List.map (fun p -> p.Verify.method_) report.Verify.parts in
  Alcotest.(check bool) "singletons reported" true (List.mem "singleton" methods);
  Alcotest.(check bool) "exact used for the K9 part" true (List.mem "exact" methods)

module Straw = Dex_decomp.Recursive_baseline

let test_recursive_baseline_partitions () =
  let g = Gen.cliques_chain ~cliques:6 ~size:8 in
  let r = Straw.run ~phi:(1.0 /. 16.0) g (Rng.create 211) in
  Metrics.check_partition g r.Straw.parts;
  Alcotest.(check bool) "splits the chain" true (List.length r.Straw.parts >= 2);
  Alcotest.(check bool) "depth grows" true (r.Straw.recursion_depth >= 2);
  Alcotest.(check bool) "removal bounded" true (r.Straw.edge_fraction_removed < 0.2)

let test_recursive_baseline_expander () =
  let rng = Rng.create 212 in
  let g = Gen.random_regular rng ~n:80 ~d:8 in
  let r = Straw.run ~phi:(1.0 /. 32.0) g (Rng.create 213) in
  Alcotest.(check int) "expander whole" 1 (List.length r.Straw.parts);
  Alcotest.(check int) "one cut call" 1 r.Straw.cut_calls

(* ---------- Las Vegas wrapper ---------- *)

module Lv = Dex_decomp.Las_vegas
module Rounds = Dex_congest.Rounds

let test_las_vegas_certifies () =
  let rng = Rng.create 301 in
  let g =
    Gen.connectivize rng (Gen.planted_partition rng ~parts:4 ~size:30 ~p_in:0.35 ~p_out:0.01)
  in
  match Lv.decompose ~attempts:5 ~epsilon:0.3 ~k:2 g (Rng.create 302) with
  | Ok { Rounds.value = c; attempts; rounds_total } ->
    let report = c.Lv.report in
    Alcotest.(check bool) "certificate holds" true
      (report.Verify.is_partition && report.Verify.epsilon_ok && report.Verify.phi_ok);
    Alcotest.(check bool) "attempts within budget" true (attempts >= 1 && attempts <= 5);
    Alcotest.(check bool) "rounds cover the accepted attempt" true
      (rounds_total >= c.Lv.result.D.stats.D.rounds);
    Metrics.check_partition g c.Lv.result.D.parts
  | Error f ->
    Alcotest.failf "expected certification within %d attempts (last report phi_ok=%b)"
      f.Rounds.attempts f.Rounds.value.Lv.report.Verify.phi_ok

let test_las_vegas_deterministic () =
  let rng = Rng.create 303 in
  let g =
    Gen.connectivize rng (Gen.planted_partition rng ~parts:4 ~size:25 ~p_in:0.4 ~p_out:0.01)
  in
  let go () =
    match Lv.decompose ~attempts:4 ~epsilon:0.3 ~k:2 g (Rng.create 304) with
    | Ok o ->
      (o.Rounds.attempts, o.Rounds.rounds_total, List.length o.Rounds.value.Lv.result.D.parts)
    | Error f -> (-f.Rounds.attempts, f.Rounds.rounds_total, 0)
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "same seed, same outcome" true (a = b)

let test_las_vegas_rejects_bad_budget () =
  let g = Gen.complete 8 in
  Alcotest.check_raises "attempts >= 1"
    (Dex_util.Invariant.Violation
       { where = "Las_vegas.decompose"; what = "attempts must be >= 1" }) (fun () ->
      ignore (Lv.decompose ~attempts:0 ~epsilon:0.3 ~k:2 g (Rng.create 305)))

let prop_decomposition_is_partition =
  QCheck.Test.make ~name:"decomposition always partitions V" ~count:8
    QCheck.(pair (Reference.int_range 20 80) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:(6.0 /. float_of_int n)) in
      let r = decompose ~seed g in
      Metrics.check_partition g r.D.parts;
      r.D.edge_fraction_removed <= 1.0 /. 6.0 +. 1e-9)

let () =
  Alcotest.run "decomp"
    [ ( "schedule",
        [ Alcotest.test_case "ladder decreasing" `Quick test_schedule_ladder_decreasing;
          Alcotest.test_case "depth and beta" `Quick test_schedule_depth_and_beta;
          Alcotest.test_case "theory ladder collapses" `Quick test_schedule_theory_ladder_collapses;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
          Alcotest.test_case "h_of presets" `Quick test_h_of_presets ] );
      ( "decomposition",
        [ Alcotest.test_case "dumbbell two parts" `Quick test_dumbbell_two_parts;
          Alcotest.test_case "SBM block recovery" `Quick test_sbm_block_recovery;
          Alcotest.test_case "expander stays whole" `Quick test_expander_stays_whole;
          Alcotest.test_case "determinism" `Quick test_decomposition_determinism;
          Alcotest.test_case "disconnected input" `Quick test_disconnected_input;
          Alcotest.test_case "removal ledger" `Quick test_removed_edges_match_fraction;
          Alcotest.test_case "verify report" `Quick test_verify_report;
          Alcotest.test_case "part members" `Quick test_part_members;
          Alcotest.test_case "warted expander Phase 2" `Slow test_warted_expander_phase2;
          QCheck_alcotest.to_alcotest prop_decomposition_is_partition ] );
      ( "verify-methods",
        [ Alcotest.test_case "per-part methods" `Quick test_verify_part_methods ] );
      ( "las-vegas",
        [ Alcotest.test_case "certifies SBM" `Quick test_las_vegas_certifies;
          Alcotest.test_case "deterministic from seed" `Quick test_las_vegas_deterministic;
          Alcotest.test_case "budget validation" `Quick test_las_vegas_rejects_bad_budget ] );
      ( "recursive-baseline",
        [ Alcotest.test_case "partitions chain" `Quick test_recursive_baseline_partitions;
          Alcotest.test_case "expander whole" `Quick test_recursive_baseline_expander ] );
      ( "cpz-baseline",
        [ Alcotest.test_case "leftover arboricity ≤ n^δ" `Quick test_cpz_leftover_arboricity;
          Alcotest.test_case "dense expander: no leftover" `Quick
            test_cpz_no_leftover_on_dense_expander;
          Alcotest.test_case "validation" `Quick test_cpz_validation ] ) ]
