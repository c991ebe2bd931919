(* Unit and property tests for Dex_util: Rng, Stats, Union_find,
   Stamped, and Lemma 13's tail bound (Ldd.failure_probability). *)

module Rng = Dex_util.Rng
module Stats = Dex_util.Stats
module Uf = Dex_util.Union_find

let check_float = Alcotest.(check (float 1e-9))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 8)

let test_rng_split_independence () =
  let base = Rng.create 3 in
  let a = Rng.split base 1 and b = Rng.split base 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 8)

let test_rng_int_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_exponential_mean () =
  let rng = Rng.create 5 in
  let rate = 0.5 in
  let samples = List.init 20_000 (fun _ -> Rng.exponential rng ~rate) in
  let mean = mean samples in
  Alcotest.(check bool) "mean ≈ 1/rate"
    true
    (Float.abs (mean -. (1.0 /. rate)) < 0.1);
  List.iter (fun x -> assert (x >= 0.0)) samples

let test_rng_geometric () =
  let rng = Rng.create 5 in
  Alcotest.(check int) "p=1 is 0" 0 (Rng.geometric rng 1.0);
  let samples = List.init 20_000 (fun _ -> float_of_int (Rng.geometric rng 0.25)) in
  let mean = mean samples in
  (* mean of failures before success = (1-p)/p = 3 *)
  Alcotest.(check bool) "geometric mean ≈ 3" true (Float.abs (mean -. 3.0) < 0.25)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_weighted_index () =
  let rng = Rng.create 23 in
  let w = [| 0.0; 3.0; 1.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Rng.weighted_index rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(0);
  Alcotest.(check bool) "ratio ≈ 3" true
    (let r = float_of_int counts.(1) /. float_of_int (max 1 counts.(2)) in
     r > 2.4 && r < 3.6)

(* the draw against its definition: the first index whose running
   weight sum, added left to right, exceeds a uniform draw below the
   total, the last index if none does *)
let prop_weighted_index_definition =
  QCheck.Test.make ~name:"weighted_index matches its definition" ~count:300
    QCheck.(pair small_nat (list_of_size Gen.(int_range 1 12) (float_bound_inclusive 4.0)))
    (fun (seed, ws) ->
      let w = Array.of_list ws in
      let total = List.fold_left ( +. ) 0.0 ws in
      QCheck.assume (total > 0.0);
      let expected =
        let x = Rng.float (Rng.create seed) total in
        let rec go i acc =
          if i = Array.length w - 1 then i
          else if x < acc +. w.(i) then i
          else go (i + 1) (acc +. w.(i))
        in
        go 0 0.0
      in
      Rng.weighted_index (Rng.create seed) w = expected)

(* ---------- Stats ---------- *)

let test_stats_log_log_slope () =
  (* y = 7·x² gives slope 2 on log-log axes *)
  let pts = List.init 10 (fun i -> let x = float_of_int (i + 1) in (x, 7.0 *. x *. x)) in
  check_float "quadratic slope" 2.0 (Stats.log_log_slope pts)

let test_stats_empty () =
  Alcotest.check_raises "no points" (Invalid_argument "Stats.linear_fit: need at least two points")
    (fun () -> ignore (Stats.log_log_slope []));
  (* points with a non-positive coordinate are dropped first *)
  Alcotest.check_raises "one positive point"
    (Invalid_argument "Stats.linear_fit: need at least two points") (fun () ->
      ignore (Stats.log_log_slope [ (1.0, 2.0); (0.0, 5.0); (3.0, -1.0) ]))

(* ---------- Union_find ---------- *)

let same uf a b = Uf.find uf a = Uf.find uf b

let test_uf_basic () =
  let uf = Uf.create 6 in
  Alcotest.(check (list int)) "singletons" [ 0; 1; 2; 3; 4; 5 ] (List.init 6 (Uf.find uf));
  Alcotest.(check bool) "union fresh" true (Uf.union uf 0 1);
  Alcotest.(check bool) "union again" false (Uf.union uf 1 0);
  Alcotest.(check bool) "same" true (same uf 0 1);
  Alcotest.(check bool) "not same" false (same uf 0 2);
  ignore (Uf.union uf 2 3);
  ignore (Uf.union uf 0 2);
  Alcotest.(check bool) "merged" true (same uf 1 3);
  let roots = List.sort_uniq Int.compare (List.init 6 (Uf.find uf)) in
  Alcotest.(check int) "sets" 3 (List.length roots)

let test_uf_transitivity_prop =
  QCheck.Test.make ~name:"union-find transitivity" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Uf.create 20 in
      List.iter (fun (a, b) -> ignore (Uf.union uf a b)) pairs;
      (* same is an equivalence: spot-check transitivity *)
      let ok = ref true in
      for a = 0 to 19 do
        for b = 0 to 19 do
          for c = 0 to 19 do
            if same uf a b && same uf b c && not (same uf a c) then ok := false
          done
        done
      done;
      !ok)

(* the stamped-set sort against Array.sort on a random subset of
   0..n-1 in first-touch order: counts drawn on both sides of the
   n/8 scan threshold (a sparse set is heapsorted, a dense one
   rebuilt from the stamps), plus the edge counts 0, 1 and n. Stamps
   outside the set, past n included, hold other epochs, and the
   entries after the count stay as they were. *)
let prop_stamped_sort =
  QCheck.Test.make ~name:"stamped sort = Array.sort" ~count:500
    QCheck.(triple (Reference.int_range 1 300) (int_bound 4) small_nat)
    (fun (n, shape, seed) ->
      let rng = Rng.create seed in
      let dense_from = (n + 7) / 8 in
      let k =
        match shape with
        | 0 -> 0
        | 1 -> 1
        | 2 -> n
        | 3 -> Rng.int rng dense_from
        | _ -> dense_from + Rng.int rng (n - dense_from + 1)
      in
      let epoch = 7 in
      let order = Array.init n Fun.id in
      Rng.shuffle rng order;
      let stamp = Array.init (n + 5) (fun _ -> Rng.int rng epoch) in
      let set = Array.make (n + 3) (-1) in
      for i = 0 to k - 1 do
        stamp.(order.(i)) <- epoch;
        set.(i) <- order.(i)
      done;
      let expected = Array.sub set 0 k in
      Array.sort Int.compare expected;
      Dex_util.Stamped.sort ~stamp ~epoch ~n set k;
      Array.sub set 0 k = expected
      && Array.for_all (fun x -> x = -1) (Array.sub set k (n + 3 - k)))

(* ---------- Lemma 13's tail bound ---------- *)

let ldd_bound = Dex_ldd.Ldd.failure_probability

let test_tail_bounds_monotone () =
  (* independent regime (d = 1): a larger mean μ = 2βm gives a smaller
     tail; past it the exponent is -(K ln n)/6 whatever m is, so more
     dependence d = βm/(K ln n) weakens the bound, by growing m or
     shrinking K ln n *)
  Alcotest.(check bool) "m monotone" true
    (ldd_bound ~m:40 ~beta:0.3 ~k_ln:100.0 < ldd_bound ~m:20 ~beta:0.3 ~k_ln:100.0);
  Alcotest.(check bool) "dependence weakens" true
    (ldd_bound ~m:20_000 ~beta:0.3 ~k_ln:30.0 > ldd_bound ~m:20_000 ~beta:0.3 ~k_ln:200.0
     && ldd_bound ~m:200_000 ~beta:0.3 ~k_ln:200.0 > ldd_bound ~m:20_000 ~beta:0.3 ~k_ln:200.0);
  Alcotest.(check bool) "capped at 1" true (ldd_bound ~m:1 ~beta:0.1 ~k_ln:1.0 <= 1.0)

let test_tail_bounds_values () =
  (* μ = 2βm = 1200 and d = βm/(K ln n) = 10, δ = 1/2 *)
  Alcotest.(check (float 1e-12)) "bounded dependence"
    (10.0 *. exp (-.(0.25 *. 1200.0) /. (3.0 *. 10.0)))
    (ldd_bound ~m:2000 ~beta:0.3 ~k_ln:60.0);
  (* d < 1 is clamped to the independent case d = 1 *)
  Alcotest.(check (float 1e-12)) "independent case"
    (exp (-.(0.25 *. 12.0) /. 3.0))
    (ldd_bound ~m:20 ~beta:0.3 ~k_ln:100.0)

let test_ldd_certificate () =
  (* the exponent is -Ω(K·ln n): the certificate strengthens with K
     (and hence with n at fixed K), not with the edge count *)
  let p_weak = ldd_bound ~m:20_000 ~beta:0.3 ~k_ln:30.0 in
  let p_strong = ldd_bound ~m:20_000 ~beta:0.3 ~k_ln:200.0 in
  Alcotest.(check bool) "improves with K ln n" true (p_strong < p_weak);
  Alcotest.(check bool) "nontrivial at large K" true (p_strong < 1e-3);
  Alcotest.check_raises "bad beta" (Invalid_argument "Ldd.failure_probability: beta in (0,1)")
    (fun () -> ignore (ldd_bound ~m:10 ~beta:2.0 ~k_ln:5.0))

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "weighted index" `Quick test_rng_weighted_index;
          QCheck_alcotest.to_alcotest prop_weighted_index_definition ] );
      ( "stats",
        [ Alcotest.test_case "log-log slope" `Quick test_stats_log_log_slope;
          Alcotest.test_case "empty raises" `Quick test_stats_empty ] );
      ( "union-find",
        [ Alcotest.test_case "basic" `Quick test_uf_basic;
          QCheck_alcotest.to_alcotest test_uf_transitivity_prop ] );
      ("stamped", [ QCheck_alcotest.to_alcotest prop_stamped_sort ]);
      ( "tail-bounds",
        [ Alcotest.test_case "monotonicity" `Quick test_tail_bounds_monotone;
          Alcotest.test_case "closed forms" `Quick test_tail_bounds_values;
          Alcotest.test_case "LDD certificate" `Quick test_ldd_certificate ] ) ]
