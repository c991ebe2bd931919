(* Tests for the routing layer: the GKS trade-off structure and the
   executed token router. *)

module Graph = Dex_graph.Graph
module Gen = Dex_graph.Generators
module Hierarchy = Dex_routing.Hierarchy
module Router = Dex_routing.Token_router
module Rng = Dex_util.Rng

(* a random d-regular draw can fall apart into components, which no
   router can cross; joining them keeps every connected draw as is *)
let expander seed n d =
  let rng = Rng.create seed in
  Gen.connectivize rng (Gen.random_regular rng ~n ~d)

(* ---------- hierarchy ---------- *)

let test_build_basic () =
  let g = expander 1 128 8 in
  let h = Hierarchy.build g (Rng.create 2) ~k:2 in
  Alcotest.(check int) "k" 2 h.Hierarchy.k;
  Alcotest.(check (float 1e-6)) "beta = sqrt m" (sqrt (float_of_int h.Hierarchy.m))
    h.Hierarchy.beta;
  Alcotest.(check bool) "tau measured" true (h.Hierarchy.tau_mix >= 1);
  Alcotest.(check bool) "preprocess positive" true (h.Hierarchy.preprocess_rounds > 0);
  Alcotest.(check bool) "query positive" true (h.Hierarchy.query_rounds > 0)

let test_query_grows_with_k () =
  let g = expander 3 128 8 in
  let rng () = Rng.create 4 in
  let q k = (Hierarchy.build g (rng ()) ~k).Hierarchy.query_rounds in
  Alcotest.(check bool) "query k=1 < k=3" true (q 1 < q 3)

let test_beta_shrinks_with_k () =
  let g = expander 5 128 8 in
  let b k = (Hierarchy.build g (Rng.create 6) ~k).Hierarchy.beta in
  Alcotest.(check bool) "beta decreasing" true (b 1 > b 2 && b 2 > b 3)

let test_total_rounds_arithmetic () =
  let g = expander 7 64 6 in
  let h = Hierarchy.build g (Rng.create 8) ~k:2 in
  Alcotest.(check int) "total = pre + q·query"
    (h.Hierarchy.preprocess_rounds + (5 * h.Hierarchy.query_rounds))
    (Hierarchy.total_rounds h ~queries:5)

let test_best_k_minimizes () =
  let g = expander 9 128 8 in
  let queries = 100 in
  let best = Hierarchy.best_k_for g (Rng.create 10) ~queries ~k_max:4 in
  for k = 1 to 4 do
    let h = Hierarchy.build g (Rng.create 10) ~k in
    Alcotest.(check bool)
      (Printf.sprintf "best ≤ k=%d" k)
      true
      (Hierarchy.total_rounds best ~queries <= Hierarchy.total_rounds h ~queries)
  done

let test_build_validation () =
  let g = expander 11 64 6 in
  Alcotest.check_raises "k"
    (Dex_util.Invariant.Violation { where = "Hierarchy.build"; what = "k >= 1" }) (fun () ->
      ignore (Hierarchy.build g (Rng.create 1) ~k:0))

(* ---------- token router ---------- *)

let test_route_delivers_all () =
  let g = expander 13 96 8 in
  let rng = Rng.create 14 in
  let requests = List.init 50 (fun i -> { Router.src = i; dst = (i + 48) mod 96 }) in
  let stats = Router.route ~capacity:4 g rng requests in
  Alcotest.(check int) "all delivered" 50 stats.Router.delivered;
  Alcotest.(check bool) "finite rounds" true (stats.Router.rounds > 0);
  Alcotest.(check bool) "moves ≥ deliveries" true (stats.Router.moves >= 50)

let test_route_src_eq_dst () =
  let g = expander 15 32 4 in
  let stats = Router.route g (Rng.create 16) [ { Router.src = 3; dst = 3 } ] in
  Alcotest.(check int) "trivially delivered" 1 stats.Router.delivered;
  Alcotest.(check int) "zero rounds" 0 stats.Router.rounds

let test_route_disconnected_fails () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  match Router.route ~max_rounds:200 g (Rng.create 17) [ { Router.src = 0; dst = 3 } ] with
  | exception Router.Undelivered { pending; delivered; rounds; moves = _ } ->
    Alcotest.(check int) "pending" 1 pending;
    Alcotest.(check int) "delivered" 0 delivered;
    Alcotest.(check int) "exhausted budget" 200 rounds
  | _ -> Alcotest.fail "expected Undelivered on disconnected pair"

let test_route_undelivered_context () =
  (* zero round budget: the token never moves; the typed exception must
     carry the full accounting so callers can report or retry *)
  let g = Gen.path 3 in
  match Router.route ~max_rounds:0 g (Rng.create 18) [ { Router.src = 0; dst = 2 } ] with
  | exception Router.Undelivered { pending; delivered; rounds; moves } ->
    Alcotest.(check int) "pending" 1 pending;
    Alcotest.(check int) "delivered" 0 delivered;
    Alcotest.(check int) "rounds" 0 rounds;
    Alcotest.(check int) "moves" 0 moves
  | _ -> Alcotest.fail "expected Undelivered with a zero budget"

let test_route_validation () =
  let g = expander 19 32 4 in
  Alcotest.check_raises "endpoint range"
    (Dex_util.Invariant.Violation
       { where = "Token_router.route"; what = "endpoint out of range" }) (fun () ->
      ignore (Router.route g (Rng.create 20) [ { Router.src = 0; dst = 99 } ]));
  Alcotest.check_raises "capacity"
    (Dex_util.Invariant.Violation { where = "Token_router.route"; what = "capacity >= 1" })
    (fun () -> ignore (Router.route ~capacity:0 g (Rng.create 20) []))

let test_degree_respecting_requests () =
  let g = expander 21 64 6 in
  let requests = Router.degree_respecting_requests g (Rng.create 22) ~load:1.0 in
  (* each vertex appears as source exactly round(load·deg(v)) times *)
  let counts = Array.make 64 0 in
  List.iter (fun { Router.src; _ } -> counts.(src) <- counts.(src) + 1) requests;
  Array.iteri
    (fun v c ->
      let expected = int_of_float (Float.round (float_of_int (Graph.degree g v))) in
      Alcotest.(check int) "= round(load·deg)" expected c)
    counts

let test_expander_routes_fast () =
  (* on an expander, a permutation-ish workload completes in far fewer
     rounds than the worst-case n·log n budget *)
  let n = 128 in
  let g = expander 23 n 8 in
  let rng = Rng.create 24 in
  let requests = Router.degree_respecting_requests g rng ~load:0.25 in
  let stats = Router.route ~capacity:4 g rng requests in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d ≪ n² = %d" stats.Router.rounds (n * n))
    true
    (stats.Router.rounds < n * n / 4)

let test_capacity_congestion () =
  (* many tokens from one hub: a tighter per-edge capacity must slow
     delivery down (more waiting) *)
  let g = Reference.star 24 in
  let requests = List.init 23 (fun i -> { Router.src = i + 1; dst = (i mod 22) + 1 }) in
  (* all traffic crosses the center: compare capacities *)
  let r1 = Router.route ~capacity:1 ~max_rounds:2_000_000 g (Rng.create 30) requests in
  let r8 = Router.route ~capacity:8 ~max_rounds:2_000_000 g (Rng.create 30) requests in
  Alcotest.(check int) "both deliver" r1.Router.delivered r8.Router.delivered;
  Alcotest.(check bool)
    (Printf.sprintf "capacity helps: %d >= %d" r1.Router.rounds r8.Router.rounds)
    true
    (r1.Router.rounds >= r8.Router.rounds)

let test_total_rounds_overflow_clamp () =
  let g = expander 25 64 6 in
  let h = Hierarchy.build g (Rng.create 26) ~k:1 in
  Alcotest.(check int) "clamped at max_int" max_int
    (Hierarchy.total_rounds h ~queries:max_int)

let prop_all_delivered =
  QCheck.Test.make ~name:"token router delivers every request" ~count:15
    QCheck.(pair (Reference.int_range 16 64) (int_bound 10_000))
    (fun (n, seed) ->
      let n = if n mod 2 = 1 then n + 1 else n in
      let g = expander seed n 4 in
      let rng = Rng.create (seed + 1) in
      let requests = List.init (n / 2) (fun i -> { Router.src = i; dst = n - 1 - i }) in
      let stats = Router.route ~capacity:2 g rng requests in
      stats.Router.delivered = n / 2)

(* words allocated by [f ()], wherever they land: minor plus major
   minus promoted, since a row array of 384 words goes straight to the
   major heap, where [Gc.minor_words] does not see it *)
let allocated_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  ignore (f ());
  words () -. before

(* The mixing-time walks behind [best_k_for] never sweep, so on
   G(128, 1/2) they build no bit rows (4 × 384 words plus a closure per
   vertex when [View.make] built them eagerly: 13,515 words). Its four
   mixing times are one [Mixing.mixing_times] call: one view, two
   walkers and each distinct start walked once, where four one-run
   calls built four views and four walkers (8,911
   words). Measured at 3,596 words (OCaml 5.1, dune's default
   profile); that is the ceiling. *)
let test_best_k_builds_no_rows () =
  let g = Gen.gnp (Rng.create 1) ~n:128 ~p:0.5 in
  let words =
    allocated_words (fun () -> Hierarchy.best_k_for g (Rng.create 2) ~queries:8 ~k_max:4)
  in
  Alcotest.(check bool) (Printf.sprintf "%.0f words" words) true (words <= 3_596.0)

let () =
  Alcotest.run "routing"
    [ ( "hierarchy",
        [ Alcotest.test_case "build" `Quick test_build_basic;
          Alcotest.test_case "query grows with k" `Quick test_query_grows_with_k;
          Alcotest.test_case "beta shrinks with k" `Quick test_beta_shrinks_with_k;
          Alcotest.test_case "total rounds arithmetic" `Quick test_total_rounds_arithmetic;
          Alcotest.test_case "best k minimizes" `Quick test_best_k_minimizes;
          Alcotest.test_case "validation" `Quick test_build_validation;
          Alcotest.test_case "best k builds no rows" `Quick test_best_k_builds_no_rows ] );
      ( "token-router",
        [ Alcotest.test_case "delivers all" `Quick test_route_delivers_all;
          Alcotest.test_case "src = dst" `Quick test_route_src_eq_dst;
          Alcotest.test_case "disconnected fails" `Quick test_route_disconnected_fails;
          Alcotest.test_case "undelivered context" `Quick test_route_undelivered_context;
          Alcotest.test_case "validation" `Quick test_route_validation;
          Alcotest.test_case "degree respecting requests" `Quick test_degree_respecting_requests;
          Alcotest.test_case "expander routes fast" `Quick test_expander_routes_fast;
          Alcotest.test_case "capacity congestion" `Quick test_capacity_congestion;
          Alcotest.test_case "total rounds clamp" `Quick test_total_rounds_overflow_clamp;
          QCheck_alcotest.to_alcotest prop_all_delivered ] ) ]
