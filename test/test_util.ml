(* Unit and property tests for Dex_util: Rng, Stats, Union_find,
   Table. *)

module Rng = Dex_util.Rng
module Stats = Dex_util.Stats
module Uf = Dex_util.Union_find
module Table = Dex_util.Table

let check_float = Alcotest.(check (float 1e-9))

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
  let mean = Stats.mean samples in
  Alcotest.(check bool) "mean ≈ 1/rate"
    true
    (Float.abs (mean -. (1.0 /. rate)) < 0.1);
  List.iter (fun x -> assert (x >= 0.0)) samples

let test_rng_geometric () =
  let rng = Rng.create 5 in
  Alcotest.(check int) "p=1 is 0" 0 (Rng.geometric rng 1.0);
  let samples = List.init 20_000 (fun _ -> float_of_int (Rng.geometric rng 0.25)) in
  let mean = Stats.mean samples in
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

let test_rng_sample_without_replacement () =
  let rng = Rng.create 29 in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng ~n:20 ~k:10 in
    Alcotest.(check int) "size" 10 (Array.length s);
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun x ->
        Alcotest.(check bool) "range" true (x >= 0 && x < 20);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl x);
        Hashtbl.replace tbl x ())
      s
  done

(* ---------- Stats ---------- *)

let test_stats_basic () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "min" 1.0 (Stats.minimum [ 4.0; 1.0; 2.0 ]);
  check_float "max" 4.0 (Stats.maximum [ 4.0; 1.0; 2.0 ]);
  check_float "stddev of constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "p100 = max" 9.0 (Stats.percentile 100.0 [ 1.0; 9.0; 3.0 ])

let test_stats_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let test_stats_log_log_slope () =
  (* y = 7·x² gives slope 2 on log-log axes *)
  let pts = List.init 10 (fun i -> let x = float_of_int (i + 1) in (x, 7.0 *. x *. x)) in
  check_float "quadratic slope" 2.0 (Stats.log_log_slope pts)

let test_stats_empty () =
  Alcotest.check_raises "mean []" (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

(* ---------- Union_find ---------- *)

let test_uf_basic () =
  let uf = Uf.create 6 in
  Alcotest.(check int) "initial sets" 6 (Uf.count uf);
  Alcotest.(check bool) "union fresh" true (Uf.union uf 0 1);
  Alcotest.(check bool) "union again" false (Uf.union uf 1 0);
  Alcotest.(check bool) "same" true (Uf.same uf 0 1);
  Alcotest.(check bool) "not same" false (Uf.same uf 0 2);
  Alcotest.(check int) "sets after one union" 5 (Uf.count uf);
  Alcotest.(check int) "size" 2 (Uf.size uf 0);
  ignore (Uf.union uf 2 3);
  ignore (Uf.union uf 0 2);
  Alcotest.(check int) "size merged" 4 (Uf.size uf 3);
  let groups = Uf.groups uf in
  Alcotest.(check int) "groups" 3 (List.length groups);
  let total = List.fold_left (fun acc g -> acc + Array.length g) 0 groups in
  Alcotest.(check int) "groups cover" 6 total

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
            if Uf.same uf a b && Uf.same uf b c && not (Uf.same uf a c) then ok := false
          done
        done
      done;
      !ok)

(* ---------- Tail_bounds ---------- *)

(* the stamped-set sort against Array.sort on a random subset of
   0..n-1 in first-touch order: counts drawn on both sides of the
   n/8 scan threshold (a sparse set is heapsorted, a dense one
   rebuilt from the stamps), plus the edge counts 0, 1 and n. Stamps
   outside the set, past n included, hold other epochs, and the
   entries after the count stay as they were. *)
let prop_stamped_sort =
  QCheck.Test.make ~name:"stamped sort = Array.sort" ~count:500
    QCheck.(triple (int_range 1 300) (int_bound 4) small_nat)
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

module Tb = Dex_util.Tail_bounds

let test_tail_bounds_monotone () =
  (* larger mean => smaller tail; larger dependence => weaker bound *)
  Alcotest.(check bool) "mu monotone" true
    (Tb.chernoff_upper ~mu:100.0 ~delta:0.5 < Tb.chernoff_upper ~mu:10.0 ~delta:0.5);
  Alcotest.(check bool) "delta monotone" true
    (Tb.chernoff_upper ~mu:100.0 ~delta:0.9 < Tb.chernoff_upper ~mu:100.0 ~delta:0.1);
  Alcotest.(check bool) "dependence weakens" true
    (Tb.bounded_dependence_upper ~mu:100.0 ~delta:0.5 ~d:10.0
     > Tb.bounded_dependence_upper ~mu:100.0 ~delta:0.5 ~d:1.0);
  Alcotest.(check bool) "capped at 1" true (Tb.chernoff_upper ~mu:0.0 ~delta:0.5 <= 1.0)

let test_tail_bounds_values () =
  Alcotest.(check (float 1e-12)) "independent case"
    (exp (-.(0.25 *. 12.0) /. 3.0))
    (Tb.chernoff_upper ~mu:12.0 ~delta:0.5);
  Alcotest.(check (float 1e-12)) "lower tail"
    (exp (-.(0.25 *. 12.0) /. 2.0))
    (Tb.chernoff_lower ~mu:12.0 ~delta:0.5)

let test_ldd_certificate () =
  (* the exponent is -Ω(K·ln n): the certificate strengthens with K
     (and hence with n at fixed K), not with the edge count *)
  let p_weak = Tb.ldd_failure_probability ~m:20_000 ~beta:0.3 ~k_ln:30.0 in
  let p_strong = Tb.ldd_failure_probability ~m:20_000 ~beta:0.3 ~k_ln:200.0 in
  Alcotest.(check bool) "improves with K ln n" true (p_strong < p_weak);
  Alcotest.(check bool) "nontrivial at large K" true (p_strong < 1e-3);
  Alcotest.check_raises "bad beta" (Invalid_argument "Tail_bounds: beta in (0,1)")
    (fun () -> ignore (Tb.ldd_failure_probability ~m:10 ~beta:2.0 ~k_ln:5.0))

(* ---------- Table ---------- *)

let test_table_render () =
  let t = Table.create ~title:"demo" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 3 = "== ");
  Alcotest.(check bool) "rows kept in order" true
    (let i1 = String.index s '1' and i3 = String.index s '3' in
     i1 < i3)

let test_table_formats () =
  Alcotest.(check string) "int-like float" "12" (Table.fmt_float 12.0);
  Alcotest.(check string) "pct" "12.50%" (Table.fmt_pct 0.125)

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
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          QCheck_alcotest.to_alcotest prop_weighted_index_definition ] );
      ( "stats",
        [ Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "log-log slope" `Quick test_stats_log_log_slope;
          Alcotest.test_case "empty raises" `Quick test_stats_empty ] );
      ( "union-find",
        [ Alcotest.test_case "basic" `Quick test_uf_basic;
          QCheck_alcotest.to_alcotest test_uf_transitivity_prop ] );
      ("stamped", [ QCheck_alcotest.to_alcotest prop_stamped_sort ]);
      ( "tail-bounds",
        [ Alcotest.test_case "monotonicity" `Quick test_tail_bounds_monotone;
          Alcotest.test_case "closed forms" `Quick test_tail_bounds_values;
          Alcotest.test_case "LDD certificate" `Quick test_ldd_certificate ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats ] ) ]
