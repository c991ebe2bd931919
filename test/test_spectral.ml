(* Tests for the random-walk toolkit: mass conservation, the
   ρ-symmetry that powers Lemma 3, truncation, sweep-cut correctness
   against brute-force metrics, mixing/gap estimates and the exact
   small-graph cut enumerator. *)

module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Gen = Dex_graph.Generators
module Walk = Dex_spectral.Walk
module Sweep = Dex_spectral.Sweep
module View = Dex_spectral.View
module Mixing = Dex_spectral.Mixing
module Exact = Dex_spectral.Exact
module Rng = Dex_util.Rng

(* reads of a sparse distribution the library does not export *)
module W = Reference.Walk_view

let sparse_to_dense n p =
  let a = Array.make n 0.0 in
  W.iter (fun v x -> a.(v) <- x) p;
  a

(* ---------- walk ---------- *)

let test_mass_conservation () =
  let rng = Rng.create 1 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.15) in
  let p = W.walk_from g ~src:0 ~steps:10 in
  let total = Array.fold_left ( +. ) 0.0 p in
  Alcotest.(check (float 1e-9)) "mass 1" 1.0 total

let test_sparse_dense_agree () =
  let rng = Rng.create 2 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:25 ~p:0.2) in
  let dense = ref (Array.init 25 (fun v -> if v = 3 then 1.0 else 0.0)) in
  for _ = 1 to 8 do
    dense := Reference.step_dense g !dense
  done;
  (* ε = 0: the walker steps M·p untruncated *)
  let sparse = (Walk.truncated_walk g ~src:3 ~eps:0.0 ~steps:8).(8) in
  let sd = sparse_to_dense 25 sparse in
  Array.iteri
    (fun v x -> Alcotest.(check (float 1e-9)) (Printf.sprintf "p(%d)" v) x sd.(v))
    !dense;
  (* the sparse support is exactly the dense positive entries *)
  let dense_support =
    Array.to_list (Array.mapi (fun v x -> (v, x)) !dense)
    |> List.filter_map (fun (v, x) -> if x > 0.0 then Some v else None)
  in
  Alcotest.(check (list int)) "support matches dense positives" dense_support
    (Array.to_list (W.support sparse))

let test_self_loop_mass_returns () =
  (* one vertex with a self-loop and a pendant: loop mass stays *)
  let g = Graph.of_edges ~n:2 [ (0, 1); (0, 0) ] in
  (* deg 0 = 2 (1 loop + 1 edge); from χ_0 one lazy step:
     stay 1/2 + loop share 1/4 = 3/4 at vertex 0, 1/4 at vertex 1 *)
  let p = (Walk.truncated_walk g ~src:0 ~eps:0.0 ~steps:1).(1) in
  Alcotest.(check (float 1e-9)) "stay" 0.75 (W.get p 0);
  Alcotest.(check (float 1e-9)) "move" 0.25 (W.get p 1)

(* ψ_V covers every vertex, so the walker takes its full-support path *)
let test_stationary_fixpoint () =
  let g = Gen.cycle 12 in
  let pi = Walk.of_assoc (List.init 12 (fun v -> (v, 1.0 /. 12.0))) in
  let w = Walk.walker g in
  Walk.start w pi;
  ignore (Walk.advance w (View.make g) ~eps:0.0 ~mask:(Array.make 12 false) : float);
  W.iter
    (fun v x -> Alcotest.(check (float 1e-9)) (string_of_int v) (W.get pi v) x)
    (Walk.current w)

let test_truncation () =
  let g = Reference.star 5 in
  let p = Walk.of_assoc [ (0, 1.0); (1, 1e-9) ] in
  let q = W.truncate g ~eps:1e-6 p in
  Alcotest.(check bool) "large kept" true (W.mem q 0);
  Alcotest.(check bool) "small dropped" false (W.mem q 1)

let test_truncated_below_exact () =
  let rng = Rng.create 3 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.12) in
  let exact = ref (Array.init 30 (fun v -> if v = 0 then 1.0 else 0.0)) in
  let walks = Walk.truncated_walk g ~src:0 ~eps:1e-4 ~steps:6 in
  for t = 1 to 6 do
    exact := Reference.step_dense g !exact;
    let trunc = sparse_to_dense 30 walks.(t) in
    Array.iteri
      (fun v x ->
        Alcotest.(check bool)
          (Printf.sprintf "t=%d v=%d" t v)
          true
          (x <= !exact.(v) +. 1e-12))
      trunc
  done

(* the ρ-symmetry of Lemma 3: ρ_t^v(u) = ρ_t^u(v) *)
let test_rho_symmetry () =
  let rng = Rng.create 4 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:20 ~p:0.2) in
  List.iter
    (fun (u, v, t) ->
      let pu = W.walk_from g ~src:u ~steps:t in
      let pv = W.walk_from g ~src:v ~steps:t in
      let rho_uv = pu.(v) /. float_of_int (Graph.degree g v) in
      let rho_vu = pv.(u) /. float_of_int (Graph.degree g u) in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "u=%d v=%d t=%d" u v t) rho_uv rho_vu)
    [ (0, 5, 3); (2, 17, 7); (1, 1, 4); (9, 12, 11) ]

(* ---------- bit-identity against the Hashtbl reference ---------- *)

(* The walker and the sweep against the oracles of test/reference.ml,
   bit for bit (DESIGN.md §12). *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* supports equal as ascending lists, masses equal bit for bit *)
let identical p reference =
  let keys = Reference.sorted_keys reference in
  Array.to_list (W.support p) = keys
  && List.for_all (fun v -> same_float (W.get p v) (Hashtbl.find reference v)) keys

(* the sweep's measurements of π(1..i+1) *)
(* the sweep order of [p]: a fresh scan's vertices *)
let sweep_order g p =
  let t = Sweep.scan g p in
  Sweep.take t t.Sweep.length

let prefix_at (sweep : Sweep.t) i : Reference.prefix =
  { len = i + 1;
    volume = sweep.volume.(i);
    cut = sweep.cut.(i);
    conductance = sweep.conductance.(i);
    last_rho = sweep.last_rho.(i) }

let same_prefix (a : Reference.prefix) (b : Reference.prefix) =
  a.len = b.len && a.volume = b.volume && a.cut = b.cut
  && same_float a.conductance b.conductance
  && same_float a.last_rho b.last_rho

(* [sweep] holds exactly the reference order and prefixes *)
let sweep_is (sweep : Sweep.t) ~order ~prefixes =
  sweep.length = Array.length order
  && Array.sub sweep.ordered 0 sweep.length = order
  && Array.for_all2 same_prefix (Array.init sweep.length (prefix_at sweep)) prefixes

let same_sweep g p reference =
  let order = Reference.order g reference and prefixes = Reference.scan g reference in
  sweep_order g p = order && sweep_is (Sweep.scan g p) ~order ~prefixes

(* a distribution on every vertex of 0..n-1, a third of the masses zero *)
let full_support rng n =
  Walk.of_assoc (List.init n (fun v -> (v, if Rng.int rng 3 = 0 then 0.0 else Rng.float rng 1.0)))

(* a multigraph on n vertices with self-loops, parallel edges and
   (usually) isolated vertices *)
let random_multigraph rng n =
  let edges =
    List.init (Rng.int rng (3 * n)) (fun _ ->
        let u = Rng.int rng n in
        (* about one pick in six is a self-loop *)
        match Rng.int rng 6 with 0 -> (u, u) | _ -> (u, Rng.int rng n))
  in
  (* every sixth edge is doubled into a parallel pair *)
  Graph.of_edges ~n (edges @ List.filteri (fun i _ -> i mod 6 = 0) edges)

(* such a multigraph, plus a start distribution that may sit on a
   degree-0 vertex, carry zero-mass entries or cover every vertex (the
   support on which a walker takes its full-support path) *)
let random_instance ?(max_n = 30) seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng max_n in
  let g = random_multigraph rng n in
  let start =
    match Rng.int rng 3 with
    | 0 -> Walk.indicator (Rng.int rng n)
    | 1 ->
      Walk.of_assoc
        (List.filter_map
           (fun v ->
             match Rng.int rng 3 with
             | 0 -> None
             | 1 -> Some (v, 0.0)
             | _ -> Some (v, Rng.float rng 1.0))
           (List.init n Fun.id))
    | _ -> full_support rng n
  in
  let eps = if Rng.bool rng then None else Some (Rng.float rng 0.02) in
  (g, start, eps)

(* the walker's view after one advance from [p] *)
let advanced ~eps g p =
  let w = Walk.walker g in
  Walk.start w p;
  ignore (Walk.advance w (View.make g) ~eps ~mask:(Array.make (Graph.num_vertices g) false) : float);
  Walk.current w

(* the reference step: M·p, truncated when [eps] is given *)
let reference_step g eps p =
  let stepped = Reference.step_sparse g p in
  match eps with None -> stepped | Some eps -> Reference.truncate g ~eps stepped

let prop_step_matches_reference =
  QCheck.Test.make ~name:"array walk = Hashtbl reference, bit for bit" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, start, eps = random_instance seed in
      let view = View.make g in
      let w = Walk.walker g and mask = Array.make (Graph.num_vertices g) false in
      Walk.start w start;
      let reference = ref (Reference.of_walk start) in
      let ok = ref (identical (Walk.current w) !reference) in
      for _ = 1 to 12 do
        (* no eps: the walker at ε = 0 against the untruncated step *)
        ignore (Walk.advance w view ~eps:(Option.value eps ~default:0.0) ~mask : float);
        reference := reference_step g eps !reference;
        let p = Walk.current w in
        ok := !ok && identical p !reference && same_sweep g p !reference
      done;
      !ok)

let prop_truncated_walk_matches_reference =
  QCheck.Test.make ~name:"truncated_walk = Hashtbl reference" ~count:100
    QCheck.(pair (int_bound 1_000_000) (Reference.int_range 1 20))
    (fun (seed, steps) ->
      let g, _, _ = random_instance seed in
      let src = seed mod Graph.num_vertices g in
      let eps = if seed mod 2 = 0 then None else Some 1e-4 in
      let walks = Walk.truncated_walk g ~src ~eps:(Option.value eps ~default:0.0) ~steps in
      let reference = ref (Reference.of_walk (Walk.indicator src)) in
      let ok = ref (identical walks.(0) !reference) in
      for t = 1 to steps do
        reference := reference_step g eps !reference;
        ok := !ok && identical walks.(t) !reference
      done;
      !ok)

(* The walker against the reference step, the reference L1 change and
   a mask note of every stepped support, bit for bit over k steps. *)
let prop_walker_matches_reference =
  QCheck.Test.make ~name:"walker = reference step + L1 + support mask, bit for bit" ~count:300
    QCheck.(pair (int_bound 1_000_000) (Reference.int_range 1 16))
    (fun (seed, steps) ->
      let g, start, eps = random_instance seed in
      let n = Graph.num_vertices g and view = View.make g in
      let w = Walk.walker g in
      let mask = Array.make n false and expected_mask = Array.make n false in
      Walk.start w start;
      let p = ref (Reference.of_walk start) in
      let ok = ref (identical (Walk.current w) !p) in
      for _ = 1 to steps do
        let change = Walk.advance w view ~eps:(Option.value eps ~default:0.0) ~mask in
        let next = reference_step g eps !p in
        List.iter (fun v -> expected_mask.(v) <- true) (Reference.sorted_keys next);
        ok :=
          !ok
          && same_float change (Reference.l1_change ~prev:!p ~next)
          && identical (Walk.current w) next
          && mask = expected_mask;
        p := next
      done;
      !ok)

let same_sparse (p : Walk.sparse) (q : Walk.sparse) =
  W.support p = W.support q
  && List.for_all2 same_float (List.init p.len (fun i -> p.masses.(i)))
       (List.init q.len (fun i -> q.masses.(i)))

(* Two walkers advanced together against two advanced alone, bit for
   bit: masks, supports, masses and L1 changes. Both start on every
   vertex, so the first step takes the fused pull; ε differs between
   the copies and usually drops vertices, so later steps mix the fused
   pull, partial supports and the fallback to two advances. *)
let prop_advance_pair_matches_advance =
  QCheck.Test.make ~name:"advance_pair = two advances, bit for bit" ~count:300
    QCheck.(pair (int_bound 1_000_000) (Reference.int_range 1 8))
    (fun (seed, steps) ->
      let g, _, _ = random_instance seed in
      let rng = Rng.create (seed + 1) in
      let n = Graph.num_vertices g and view = View.make g in
      let eps1 = if Rng.int rng 3 = 0 then 0.0 else Rng.float rng 0.05 in
      let eps2 = eps1 +. Rng.float rng 0.05 in
      let p1 = full_support rng n and p2 = full_support rng n in
      let walker p =
        let w = Walk.walker g in
        Walk.start w p;
        (w, Array.make n false)
      in
      let (a1, m1), (a2, m2) = (walker p1, walker p2) in
      let (r1, e1), (r2, e2) = (walker p1, walker p2) in
      let ok = ref true in
      for _ = 1 to steps do
        Walk.advance_pair a1 a2 view ~eps1 ~eps2 ~mask1:m1 ~mask2:m2;
        let c1 = Walk.advance r1 view ~eps:eps1 ~mask:e1 in
        let c2 = Walk.advance r2 view ~eps:eps2 ~mask:e2 in
        ok :=
          !ok
          && same_sparse (Walk.current a1) (Walk.current r1)
          && same_sparse (Walk.current a2) (Walk.current r2)
          && same_float (Walk.change a1) c1
          && same_float (Walk.change a2) c2
          && m1 = e1 && m2 = e2
      done;
      !ok)

(* Two walkers reused through a random run of starts, advances and
   paired advances on the views of two graphs on the same n whose
   degrees differ, each result against the reference step on its
   view, bit for bit: supports, masses, L1 changes and masks. At
   ε = 0 a full-support step keeps every vertex, so the next full step
   on the same view reuses the shares the last one handed over; ε =
   1e-12 drops the zero masses, and larger ε drop more and send later
   steps down the sparse path. A share kept over a start or a change
   of view, or computed from the old mass, is a wrong float. *)
let prop_share_hand_off_matches_reference =
  QCheck.Test.make ~name:"reused walkers = reference across starts and views, bit for bit"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 20 in
      let ga = random_multigraph rng n in
      let gb =
        let g = random_multigraph rng n in
        (* a loop at vertex 0 when the degrees happen to agree *)
        if Array.init n (Graph.degree g) = Array.init n (Graph.degree ga) then
          Graph.of_edges ~n ((0, 0) :: Graph.edges g)
        else g
      in
      let views = [| (ga, View.make ga); (gb, View.make gb) |] in
      (* a walker, its reference distribution, its mask and the mask
         the reference steps note *)
      let lane () =
        let w = Walk.walker ga and p = full_support rng n in
        Walk.start w p;
        (w, ref (Reference.of_walk p), Array.make n false, Array.make n false)
      in
      let a = lane () and b = lane () in
      let start (w, p, _, _) =
        let q = if Rng.bool rng then Walk.indicator (Rng.int rng n) else full_support rng n in
        Walk.start w q;
        p := Reference.of_walk q
      in
      let eps () =
        match Rng.int rng 4 with 0 | 1 -> 0.0 | 2 -> 1e-12 | _ -> Rng.float rng 0.05
      in
      (* the lane's last advance on [g] at [eps] against the reference *)
      let matches g eps (w, p, mask, expected) =
        let next = reference_step g (Some eps) !p in
        List.iter (fun v -> expected.(v) <- true) (Reference.sorted_keys next);
        let ok =
          identical (Walk.current w) next
          && same_float (Walk.change w) (Reference.l1_change ~prev:!p ~next)
          && mask = expected
        in
        p := next;
        ok
      in
      let advance g view ((w, _, mask, _) as lane) =
        let eps = eps () in
        ignore (Walk.advance w view ~eps ~mask : float);
        matches g eps lane
      in
      let pair g view ((w1, _, mask1, _) as l1) ((w2, _, mask2, _) as l2) =
        let eps1 = eps () and eps2 = eps () in
        Walk.advance_pair w1 w2 view ~eps1 ~eps2 ~mask1 ~mask2;
        matches g eps1 l1 && matches g eps2 l2
      in
      let ok = ref true in
      for _ = 1 to 16 do
        let g, view = views.(Rng.int rng 2) in
        match Rng.int rng 6 with
        | 0 -> start a
        | 1 -> start b
        | 2 -> ok := advance g view a && !ok
        | 3 -> ok := advance g view b && !ok
        | 4 -> ok := pair g view a b && !ok
        | _ -> ok := pair g view b a && !ok
      done;
      !ok)

(* Two walkers that kept every vertex in a paired step on view A hold
   A's shares, the only shares a step hands over; one paired step on
   view B, with no start between, computes B's and equals the
   reference step on B for each. *)
let test_shares_follow_the_view () =
  let ga = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let gb = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 1) ] in
  let p1 = Walk.of_assoc [ (0, 0.1); (1, 0.2); (2, 0.3); (3, 0.4) ] in
  let p2 = Walk.of_assoc [ (0, 0.4); (1, 0.3); (2, 0.2); (3, 0.1) ] in
  let w1 = Walk.walker ga and w2 = Walk.walker ga in
  let mask1 = Array.make 4 false and mask2 = Array.make 4 false in
  let pair view = Walk.advance_pair w1 w2 view ~eps1:0.0 ~eps2:0.0 ~mask1 ~mask2 in
  Walk.start w1 p1;
  Walk.start w2 p2;
  pair (View.make ga);
  let prev1 = reference_step ga None (Reference.of_walk p1) in
  let prev2 = reference_step ga None (Reference.of_walk p2) in
  Alcotest.(check bool) "both kept every vertex on A" true
    (identical (Walk.current w1) prev1 && identical (Walk.current w2) prev2);
  pair (View.make gb);
  List.iter
    (fun (name, w, prev) ->
      let next = reference_step gb None prev in
      Alcotest.(check bool) (name ^ " = reference step on B") true
        (identical (Walk.current w) next);
      Alcotest.(check bool) (name ^ " L1 = reference, bit for bit") true
        (same_float (Walk.change w) (Reference.l1_change ~prev ~next)))
    [ ("first", w1, prev1); ("second", w2, prev2) ]

(* a view builds its bit rows when a sweep first reads them: on
   G(128, 1/2), dense enough for rows, walking alone leaves them
   unbuilt, and the first rescan builds them *)
let test_rows_built_on_first_sweep () =
  let g = Gen.gnp (Rng.create 1) ~n:128 ~p:0.5 in
  let view = View.make g and w = Walk.walker g in
  Walk.start w (Walk.indicator 0);
  for _ = 1 to 3 do
    ignore (Walk.advance w view ~eps:0.0 ~mask:(Array.make 128 false) : float)
  done;
  Alcotest.(check bool) "walks build no rows" false (Lazy.is_val view.rows);
  Sweep.rescan (Sweep.workspace g) view (Walk.current w);
  Alcotest.(check bool) "the first rescan builds them" true (Lazy.is_val view.rows);
  Alcotest.(check bool) "G(128, 1/2) has rows" true (Option.is_some (Lazy.force view.rows))

(* A start on every vertex: one walker pushes, as on any support, and
   two walkers stepped as a pair take the paired pull on their first
   advance. Vertex 3 is isolated and vertex 2 has a self-loop and a
   parallel pair to 1; ε = 0.05 drops vertices 0 and 1, so the L1 sum
   ends with the old masses of the dropped vertices. *)
let test_walker_full_support_step () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (1, 2); (2, 2) ] in
  let p = Walk.of_assoc [ (0, 0.1); (1, 0.0); (2, 0.5); (3, 0.4) ] in
  let eps = 0.05 and view = View.make g in
  let w = Walk.walker g and mask = Array.make 4 false in
  Walk.start w p;
  let change = Walk.advance w view ~eps ~mask in
  let prev = Reference.of_walk p in
  let next = reference_step g (Some eps) prev in
  Alcotest.(check (list int)) "kept" [ 2; 3 ] (Array.to_list (W.support (Walk.current w)));
  Alcotest.(check bool) "= reference step" true (identical (Walk.current w) next);
  Alcotest.(check (list bool)) "mask" [ false; false; true; true ] (Array.to_list mask);
  Alcotest.(check bool) "L1 = reference, bit for bit" true
    (same_float change (Reference.l1_change ~prev ~next));
  Alcotest.(check (float 1e-12))
    "L1 includes the dropped mass" ((0.5 -. (1.0 /. 3.0)) +. 0.1) change;
  (* the fused pull for two copies: the same start at ε = 0.05 beside
     one at ε = 0 that keeps every vertex *)
  let w1 = Walk.walker g and w2 = Walk.walker g in
  let mask1 = Array.make 4 false and mask2 = Array.make 4 false in
  Walk.start w1 p;
  Walk.start w2 p;
  Walk.advance_pair w1 w2 view ~eps1:eps ~eps2:0.0 ~mask1 ~mask2;
  let whole = reference_step g None prev in
  Alcotest.(check bool) "pair, first copy = reference step" true
    (identical (Walk.current w1) next);
  Alcotest.(check bool) "pair, second copy = untruncated reference step" true
    (identical (Walk.current w2) whole);
  Alcotest.(check (list bool)) "pair masks" [ false; false; true; true; true; true; true; true ]
    (Array.to_list mask1 @ Array.to_list mask2);
  Alcotest.(check bool) "pair L1, bit for bit" true
    (same_float (Walk.change w1) change
    && same_float (Walk.change w2) (Reference.l1_change ~prev ~next:whole))

(* A dense multigraph on 2..40 vertices for the four-term blocks of
   the paired full-support pull and of the sweep's stamp count: each
   vertex but [z] draws 0-13 edges to vertices below it, with repeats,
   so its neighbours below number 0-13 and those above it about as
   many, and both segments take every length mod 4. The repeats are
   parallel edges, about one vertex in four has a self-loop, and [z]
   has no edge at all. *)
let block_multigraph rng =
  let n = 2 + Rng.int rng 39 in
  let z = Rng.int rng n in
  let edges = ref [] in
  for u = 0 to n - 1 do
    if u <> z then begin
      if u > 0 then
        for _ = 1 to Rng.int rng 14 do
          let v = Rng.int rng u in
          if v <> z then edges := (u, v) :: !edges
        done;
      if Rng.int rng 4 = 0 then edges := (u, u) :: !edges
    end
  done;
  Graph.of_edges ~n !edges

(* a copy of a distribution the walker will rewrite *)
let snapshot (p : Walk.sparse) =
  Walk.of_assoc (List.init p.len (fun i -> (p.support.(i), p.masses.(i))))

(* Full-support steps, single and paired, and rescans on the stamp and
   bit-row paths against the dense reference step and the reference
   scan, bit for bit, on multigraphs whose adjacency segments take
   every length mod 4 (DESIGN.md §12). Each walker starts on every
   vertex at ε = 0 or ε > 0 and steps while its support stays full. A
   single walker pushes; a pair pulls in four-term blocks, its first
   step computing its shares and later ones taking them handed over.
   The rescans follow a walk from full to partial supports. The
   bit-row path runs on the merged simple graph when it is dense
   enough for rows. *)
let prop_four_term_blocks_match_reference =
  QCheck.Test.make ~name:"four-term blocks = dense reference step + scan, bit for bit" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = block_multigraph rng in
      let n = Graph.num_vertices g and view = View.make g in
      let draw_eps () = if Rng.bool rng then 0.0 else Rng.float rng 0.02 in
      (* the walker stepped [p] to its current distribution, returning
         [change] *)
      let stepped w ~eps p change =
        let q = Reference.step_dense g (sparse_to_dense n p) in
        let dense = Hashtbl.create n in
        Array.iteri (Hashtbl.replace dense) q;
        let next = Reference.truncate g ~eps dense in
        identical (Walk.current w) next
        && same_float change (Reference.l1_change ~prev:(Reference.of_walk p) ~next)
      in
      let full w = (Walk.current w).len = n in
      let single () =
        let w = Walk.walker g and mask = Array.make n false and eps = draw_eps () in
        Walk.start w (full_support rng n);
        let ok = ref true and t = ref 0 in
        while !ok && !t < 3 && full w do
          let p = snapshot (Walk.current w) in
          ok := stepped w ~eps p (Walk.advance w view ~eps ~mask);
          incr t
        done;
        !ok
      in
      let paired () =
        let w1 = Walk.walker g and w2 = Walk.walker g in
        let mask1 = Array.make n false and mask2 = Array.make n false in
        let eps1 = draw_eps () and eps2 = draw_eps () in
        Walk.start w1 (full_support rng n);
        Walk.start w2 (full_support rng n);
        let ok = ref true and t = ref 0 in
        while !ok && !t < 3 && full w1 && full w2 do
          let p1 = snapshot (Walk.current w1) and p2 = snapshot (Walk.current w2) in
          Walk.advance_pair w1 w2 view ~eps1 ~eps2 ~mask1 ~mask2;
          ok := stepped w1 ~eps:eps1 p1 (Walk.change w1) && stepped w2 ~eps:eps2 p2 (Walk.change w2);
          incr t
        done;
        !ok
      in
      let rescans graph =
        let view = View.make graph and sweep = Sweep.workspace graph in
        let w = Walk.walker graph and eps = draw_eps () in
        Walk.start w (full_support rng n);
        let ok = ref true in
        for _ = 1 to 3 do
          let p = Walk.current w in
          let reference = Reference.of_walk p in
          Sweep.rescan sweep view p;
          ok :=
            !ok
            && sweep_is sweep ~order:(Reference.order graph reference)
                 ~prefixes:(Reference.scan graph reference);
          ignore (Walk.advance w view ~eps ~mask:(Array.make n false) : float)
        done;
        !ok
      in
      let simple = Graph.of_edges ~n (List.sort_uniq compare (Graph.edges g)) in
      single () && paired () && rescans g && rescans simple)

(* A sweep workspace rescanned from distribution A to B holds what a
   fresh scan of B and the reference hold: no stale stamp, length or
   cell survives the rescan. *)
let prop_rescan_reuses_workspace =
  QCheck.Test.make ~name:"rescan A then B = fresh scan of B = reference" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed_a, seed_b) ->
      let g, start, eps = random_instance seed_b in
      let walks = Walk.truncated_walk g ~src:(seed_a mod Graph.num_vertices g) ~eps:1e-3 ~steps:3 in
      let b = advanced ~eps:(Option.value eps ~default:0.0) g start in
      let sweep = Sweep.workspace g and view = View.make g in
      let reference = Reference.of_walk b in
      let order = Reference.order g reference and prefixes = Reference.scan g reference in
      let ok = ref true in
      (* A runs over several lengths, longer and shorter than B *)
      Array.iter
        (fun a ->
          Sweep.rescan sweep view a;
          Sweep.rescan sweep view b;
          ok := !ok && sweep_is sweep ~order ~prefixes)
        walks;
      !ok && sweep_is (Sweep.scan g b) ~order ~prefixes)

(* [t] holds what a fresh scan of [p] in [g] holds, bit for bit *)
let same_as_scan g (t : Sweep.t) p =
  let fresh = Sweep.scan g p in
  let prefix a = Array.sub a 0 fresh.length in
  t.length = fresh.length
  && prefix t.ordered = prefix fresh.ordered
  && prefix t.volume = prefix fresh.volume
  && prefix t.cut = prefix fresh.cut
  && Array.for_all2 same_float (prefix t.conductance) (prefix fresh.conductance)
  && Array.for_all2 same_float (prefix t.last_rho) (prefix fresh.last_rho)

(* One workspace rescanned through a random run of distributions on
   the views of two graphs on the same n: A connected, so every vertex
   has positive degree, and B with an isolated vertex, so a support on
   every vertex sweeps n − 1 there. The distributions are walks on the
   view being scanned, fresh distributions on every vertex (a third of
   the masses zero, so ρ tie) and partial ones. A full support after a
   full order on A takes the rescan's fast path; after B, after a
   partial support or after a view change it must not. After every
   rescan the workspace equals a fresh scan, bit for bit. *)
let prop_rescan_fast_path_matches_scan =
  QCheck.Test.make ~name:"rescan through full and partial supports on two views = fresh scan"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 20 in
      let ga = Gen.connectivize rng (random_multigraph rng n) in
      let gb =
        let z = Rng.int rng n in
        Graph.of_edges ~n
          (List.filter (fun (u, v) -> u <> z && v <> z) (Graph.edges (random_multigraph rng n)))
      in
      let lanes =
        Array.map
          (fun g ->
            let w = Walk.walker g in
            Walk.start w (Walk.indicator (Rng.int rng n));
            (g, View.make g, w))
          [| ga; gb |]
      in
      let mask = Array.make n false in
      let sweep = Sweep.workspace ga in
      let ok = ref true in
      for _ = 1 to 24 do
        let g, view, w = lanes.(Rng.int rng 2) in
        let p =
          match Rng.int rng 4 with
          | 0 | 1 ->
            let eps = if Rng.int rng 4 = 0 then Rng.float rng 0.02 else 0.0 in
            ignore (Walk.advance w view ~eps ~mask : float);
            Walk.current w
          | 2 -> full_support rng n
          | _ ->
            Walk.of_assoc
              (List.filter_map
                 (fun v -> if Rng.bool rng then Some (v, Rng.float rng 1.0) else None)
                 (List.init n Fun.id))
        in
        Sweep.rescan sweep view p;
        ok := !ok && same_as_scan g sweep p
      done;
      !ok)

(* A distribution on most vertices of [g] whose ρ repeat across
   distinct vertices: each mass is deg(v) times one of four dyadic
   values, zero among them, so the ρ are those values exactly. Degree-0
   vertices in the support carry a mass too. *)
let tied_distribution rng g =
  let values = [| 0.0; 0.125; 0.25; 0.5 |] in
  Walk.of_assoc
    (List.filter_map
       (fun v ->
         if Rng.int rng 4 = 0 then None
         else Some (v, float_of_int (Int.max 1 (Graph.degree g v)) *. values.(Rng.int rng 4)))
       (List.init (Graph.num_vertices g) Fun.id))

(* the distribution on [order] whose sweep order is [order] reversed *)
let reversed_distribution g order =
  Walk.of_assoc
    (Array.to_list
       (Array.mapi (fun i v -> (v, float_of_int ((i + 1) * Graph.degree g v))) order))

(* [p] with ρ(v) raised by 2⁻⁴⁰·v: the order of [p] with every run of
   equal ρ reversed, so sorting back from it takes shifts among ties *)
let ties_reversed g (p : Walk.sparse) =
  Walk.of_assoc
    (List.init p.len (fun i ->
         let v = p.support.(i) in
         (v, p.masses.(i) +. (float_of_int (Graph.degree g v * v) *. 0x1p-40))))

(* a dense G(n, p), 40 <= n <= 130 and p >= 0.3, on which the sweep
   counts prefixes by bit rows; with [~parallel] a tenth of its edges
   are doubled, a dense multigraph on which it keeps the stamp loop *)
let dense_instance ~parallel rng =
  let g = Gen.gnp rng ~n:(40 + Rng.int rng 91) ~p:(0.3 +. Rng.float rng 0.6) in
  if not parallel then g
  else
    Graph.of_edges ~n:(Graph.num_vertices g)
      (Graph.edges g @ List.filteri (fun i _ -> i mod 10 = 0) (Graph.edges g))

(* A rescan seeded with the previous order of its sweep gives what a
   fresh scan and the reference give, bit for bit, whatever that order
   was: the same distribution (no shifts), its reverse (the merge
   fallback once the support passes 33 entries), its ties reversed,
   another walk's sweep, and stale sweeps that are longer (a larger
   graph, every vertex) or shorter. The target has distinct vertices
   with equal ρ, degree-0 vertices in its support and zero masses. A
   third of the graphs are dense G(n, p), half of them with parallel
   edges: the rescans take the bit-row pass exactly on the simple ones
   and the stamp loop elsewhere, and both give the reference's sweep. *)
let prop_seeded_rescan_matches_scan =
  QCheck.Test.make ~name:"seeded rescan = fresh scan = reference, bit for bit" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g =
        match seed mod 6 with
        | 0 -> dense_instance ~parallel:false (Rng.create seed)
        | 3 -> dense_instance ~parallel:true (Rng.create seed)
        | _ ->
          let g, _, _ = random_instance ~max_n:120 seed in
          g
      in
      let view = View.make g in
      let rng = Rng.create (seed + 2) in
      let n = Graph.num_vertices g in
      let p = tied_distribution rng g in
      let reference = Reference.of_walk p in
      let order = Reference.order g reference and prefixes = Reference.scan g reference in
      (* a larger graph: g's edges plus a cycle through three new
         vertices and vertex 0 *)
      let larger =
        Graph.of_edges ~n:(n + 3)
          ((0, n) :: (n, n + 1) :: (n + 1, n + 2) :: (n + 2, 0) :: Graph.edges g)
      in
      let seeded ?(graph = g) seeds =
        let sweep = Sweep.workspace graph in
        List.iter (fun q -> Sweep.rescan sweep (View.make graph) q) seeds;
        Sweep.rescan sweep view p;
        sweep_is sweep ~order ~prefixes
      in
      let walk = Walk.truncated_walk g ~src:(Rng.int rng n) ~eps:1e-3 ~steps:4 in
      let shorter =
        Walk.of_assoc
          (List.filter_map
             (fun i -> if i mod 3 = 0 then Some (p.support.(i), p.masses.(i)) else None)
             (List.init p.len Fun.id))
      in
      Option.is_some (Lazy.force view.rows) = (seed mod 6 = 0)
      && sweep_is (Sweep.scan g p) ~order ~prefixes
      && seeded [ p ]
      && seeded [ reversed_distribution g order ]
      && seeded [ ties_reversed g p ]
      && seeded [ walk.(4) ]
      && seeded [ ties_reversed g p; walk.(2) ]
      && seeded ~graph:larger [ full_support rng (n + 3) ]
      && seeded [ shorter ])

(* The sweep order is [Float.compare]'s on ρ, ties by vertex: NaN
   equals itself and lies below every other value, and −0.0 equals
   0.0. On distributions whose ρ include NaN, −0.0, 0.0, ±∞ and
   repeated values, a fresh rescan and one seeded from another such
   distribution's order (its insertion sort, or the merge sort past
   its shift budget) give the reference sort's order, which compares
   with [Float.compare], and its prefixes. *)
let prop_sweep_order_matches_float_compare =
  QCheck.Test.make ~name:"sweep order = Float.compare reference sort" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, _, _ = random_instance ~max_n:120 seed in
      let rng = Rng.create (seed + 1) in
      let values = [| Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity; 0.25; 0.5 |] in
      let distribution () =
        Walk.of_assoc
          (List.filter_map
             (fun v ->
               if Rng.int rng 4 = 0 then None
               else begin
                 let rho =
                   if Rng.int rng 4 = 0 then Rng.float rng 1.0
                   else values.(Rng.int rng (Array.length values))
                 in
                 Some (v, float_of_int (Int.max 1 (Graph.degree g v)) *. rho)
               end)
             (List.init (Graph.num_vertices g) Fun.id))
      in
      let p = distribution () and q = distribution () in
      let reference = Reference.of_walk p in
      let order = Reference.order g reference and prefixes = Reference.scan g reference in
      let view = View.make g and sweep = Sweep.workspace g in
      Sweep.rescan sweep view p;
      let fresh = sweep_is sweep ~order ~prefixes in
      Sweep.rescan sweep view q;
      Sweep.rescan sweep view p;
      fresh && sweep_is sweep ~order ~prefixes)

(* After a warm-up, advancing a walker and rescanning its view into one
   sweep allocates no arrays: at most a boxed float per round. Two
   walkers advanced as a pair, by the fused pull once both cover every
   vertex, allocate nothing at all. *)
let test_walker_rescan_allocation_free () =
  let g = Gen.random_regular (Rng.create 12) ~n:200 ~d:8 in
  let view = View.make g in
  let w = Walk.walker g and sweep = Sweep.workspace g in
  let mask = Array.make 200 false in
  let round () =
    ignore (Walk.advance w view ~eps:1e-6 ~mask : float);
    Sweep.rescan sweep view (Walk.current w)
  in
  Walk.start w (Walk.indicator 0);
  for _ = 1 to 10 do
    round ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 100 rounds" words)
    true (words <= 400.0);
  Alcotest.(check bool) "the walk is live" true (sweep.length > 100);
  let w1 = Walk.walker g and w2 = Walk.walker g in
  let mask1 = Array.make 200 false and mask2 = Array.make 200 false in
  let pair () = Walk.advance_pair w1 w2 view ~eps1:1e-6 ~eps2:1e-7 ~mask1 ~mask2 in
  Walk.start w1 (Walk.indicator 0);
  Walk.start w2 (Walk.indicator 1);
  for _ = 1 to 10 do
    pair ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    pair ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "pair: minor words over 100 steps" 0.0 words;
  Alcotest.(check (pair int int)) "pair: both walks cover every vertex" (200, 200)
    ((Walk.current w1).len, (Walk.current w2).len)

(* The kernels check their arguments once per call, before writing
   anything, and then index without bounds checks: a mask shorter than
   the graph, a walker or sweep smaller than it, a distribution with a
   vertex outside it and one walker passed twice as a pair each raise
   Invalid_argument, and leave every walker's current distribution,
   every mask and the sweep as they were. Both paths of [advance_pair]
   are covered: a start on two vertices takes the push kernel, ψ_V the
   paired full-support pull. *)
let test_kernel_guards () =
  let g = Gen.cycle 12 and small = Gen.cycle 8 in
  let view = View.make g in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let contents w =
    let p = Walk.current w in
    (Array.to_list (Array.sub p.support 0 p.len), Array.to_list (Array.sub p.masses 0 p.len))
  in
  let unchanged name w expected =
    Alcotest.(check (pair (list int) (list (float 0.0)))) name expected (contents w)
  in
  let mask = Array.make 12 false and short = Array.make 11 false in
  let advance w ~mask () = ignore (Walk.advance w view ~eps:0.0 ~mask : float) in
  let pair w1 w2 ~mask1 ~mask2 () =
    Walk.advance_pair w1 w2 view ~eps1:0.0 ~eps2:0.0 ~mask1 ~mask2
  in
  let uniform = Walk.of_assoc (List.init 12 (fun v -> (v, 1.0 /. 12.0))) in
  List.iter
    (fun (path, start) ->
      let w = Walk.walker g and w' = Walk.walker g and tiny = Walk.walker small in
      Walk.start w start;
      Walk.start w' start;
      Walk.start tiny (Walk.indicator 0);
      let before = contents w and tiny_before = contents tiny in
      raises (path ^ ": short mask") (advance w ~mask:short);
      raises (path ^ ": walker smaller than the graph") (advance tiny ~mask);
      raises (path ^ ": one walker twice") (pair w w ~mask1:mask ~mask2:mask);
      raises (path ^ ": pair, second mask short") (pair w w' ~mask1:mask ~mask2:short);
      raises (path ^ ": pair, second walker small") (pair w tiny ~mask1:mask ~mask2:mask);
      unchanged (path ^ ": walker") w before;
      unchanged (path ^ ": second walker") w' before;
      unchanged (path ^ ": small walker") tiny tiny_before;
      Alcotest.(check bool) (path ^ ": masks untouched") false
        (Array.exists Fun.id mask || Array.exists Fun.id short))
    [ ("sparse", Walk.of_assoc [ (0, 0.5); (11, 0.5) ]); ("full", uniform) ];
  (* a distribution of a larger graph, in a walker large enough for it *)
  let w = Walk.walker (Gen.cycle 20) in
  Walk.start w (Walk.of_assoc [ (3, 0.5); (15, 0.5) ]);
  let before = contents w in
  raises "distribution outside the graph" (advance w ~mask);
  unchanged "outside: walker" w before;
  (* sweeps: a workspace smaller than the graph, a vertex outside it *)
  let sweep = Sweep.workspace small in
  Sweep.rescan sweep (View.make small) (Walk.of_assoc [ (0, 1.0); (5, 0.5) ]);
  let order = Sweep.take sweep sweep.length in
  raises "sweep smaller than the graph" (fun () -> Sweep.rescan sweep view uniform);
  let large = Sweep.workspace (Gen.cycle 20) in
  raises "sweep: distribution outside the graph" (fun () ->
      Sweep.rescan large view (Walk.of_assoc [ (3, 0.5); (15, 0.5) ]));
  Alcotest.(check (array int)) "sweep untouched" order (Sweep.take sweep sweep.length);
  Alcotest.(check int) "fresh sweep untouched" 0 large.length

let test_zero_mass_support () =
  (* vertex 2 is isolated: its zero-mass entry survives a step and the
     truncation (0 >= 2·eps·0), so the support is the touched set *)
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let p = Walk.of_assoc [ (0, 1.0); (2, 0.0) ] in
  let q = advanced ~eps:1e-3 g p in
  Alcotest.(check (list int)) "touched set" [ 0; 1; 2 ] (Array.to_list (W.support q));
  Alcotest.(check (float 0.0)) "zero mass kept" 0.0 (W.get q 2);
  Alcotest.(check bool) "matches reference" true
    (identical q (Reference.truncate g ~eps:1e-3 (Reference.step_sparse g (Reference.of_walk p))));
  (* a degree-0 source keeps all its mass forever *)
  let walks = Walk.truncated_walk g ~src:2 ~eps:1e-3 ~steps:3 in
  Alcotest.(check (list int)) "isolated source" [ 2 ] (Array.to_list (W.support walks.(3)));
  Alcotest.(check (float 0.0)) "isolated mass" 1.0 (W.get walks.(3) 2);
  Alcotest.(check (list int)) "no sweep over degree 0" [] (Array.to_list (sweep_order g walks.(3)))

let test_of_assoc_validation () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Walk.of_assoc: duplicate vertex")
    (fun () -> ignore (Walk.of_assoc [ (1, 0.5); (1, 0.5) ]));
  Alcotest.check_raises "negative" (Invalid_argument "Walk.of_assoc: negative vertex")
    (fun () -> ignore (Walk.of_assoc [ (-1, 0.5) ]))

(* ---------- sweep ---------- *)

let test_sweep_cut_matches_metrics () =
  let rng = Rng.create 5 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.15) in
  let walks = Walk.truncated_walk g ~src:0 ~eps:1e-6 ~steps:5 in
  let sweep = Sweep.scan g walks.(5) in
  for j = 0 to sweep.length - 1 do
    let s = Sweep.take sweep (j + 1) in
    Alcotest.(check int) "volume" (Graph.volume g s) sweep.volume.(j);
    Alcotest.(check int) "cut" (Metrics.cut_size g s) sweep.cut.(j);
    let c = Metrics.conductance g s in
    if Float.is_finite c then
      Alcotest.(check (float 1e-9)) "conductance" c sweep.conductance.(j)
  done

let test_sweep_order_decreasing_rho () =
  let rng = Rng.create 6 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:30 ~p:0.15) in
  let walks = Walk.truncated_walk g ~src:0 ~eps:1e-6 ~steps:4 in
  let order = sweep_order g walks.(4) in
  for i = 1 to Array.length order - 1 do
    let r1 = W.rho g walks.(4) order.(i - 1) in
    let r2 = W.rho g walks.(4) order.(i) in
    Alcotest.(check bool) "non-increasing" true (r1 >= r2 -. 1e-12)
  done

let test_sweep_finds_barbell_cut () =
  let g = Gen.barbell ~clique:8 ~bridge:0 in
  let walks = Walk.truncated_walk g ~src:0 ~eps:1e-9 ~steps:30 in
  let sweep = Sweep.scan g walks.(30) in
  match Sweep.best sweep with
  | None -> Alcotest.fail "no cut found"
  | Some j ->
    Alcotest.(check bool) "sparse" true (sweep.conductance.(j - 1) < 0.05);
    Alcotest.(check int) "the clique side" 8 j

let test_vector_sweep_boundary () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  (* a vector that is 1 on the first clique, 0 on the second, swept as
     the masses x(v)·deg(v), whose ρ is x(v), as the spectral baseline
     sweeps its eigenvector: the sweep must find the exact clique
     boundary *)
  let x v = if v < 6 then 1.0 else 0.0 in
  let masses = List.init 12 (fun v -> (v, x v *. float_of_int (Graph.degree g v))) in
  let sweep = Sweep.scan g (Walk.of_assoc masses) in
  Alcotest.(check (list int)) "ordered by x" (List.init 12 Fun.id)
    (Array.to_list (Sweep.take sweep 12));
  Alcotest.(check int) "boundary cut" 1 sweep.cut.(5);
  Alcotest.(check bool) "boundary conductance tiny" true (sweep.conductance.(5) < 0.04);
  (* all 12 prefixes measured *)
  Alcotest.(check int) "covers all vertices" 12 sweep.length

(* ---------- mixing and gap ---------- *)

let test_mixing_time_ordering () =
  let rng = Rng.create 7 in
  let expander = Gen.random_regular rng ~n:64 ~d:8 in
  let ring = Gen.cycle 64 in
  let t_exp = Mixing.mixing_time expander (Rng.create 8) in
  let t_ring = Mixing.mixing_time ring (Rng.create 8) in
  Alcotest.(check bool) "expander mixes faster" true (t_exp < t_ring);
  Alcotest.(check bool) "expander mixes fast" true (t_exp < 64)

let test_mixing_time_edgeless () =
  let g = Graph.of_edges ~n:5 [] in
  Alcotest.(check int) "4·n" 20 (Mixing.mixing_time g (Rng.create 1));
  Alcotest.(check int) "max_steps" 7 (Mixing.mixing_time ~max_steps:7 g (Rng.create 1))

let test_spectral_gap_complete_vs_ring () =
  let rng = Rng.create 9 in
  let complete = Gen.complete 16 in
  let ring = Gen.cycle 16 in
  let gap_complete, _ = Mixing.spectral_gap complete (Rng.create 1) in
  let gap_ring, _ = Mixing.spectral_gap ring (Rng.create 1) in
  ignore rng;
  Alcotest.(check bool) "complete gap larger" true (gap_complete > gap_ring);
  (* K_n lazy gap = (1 - (-1/(n-1)))/2-ish: just check it is Θ(1) *)
  Alcotest.(check bool) "complete gap big" true (gap_complete > 0.3);
  Alcotest.(check bool) "ring gap small" true (gap_ring < 0.2)

let test_second_eigenvector_splits_barbell () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  let _, vec = Mixing.spectral_gap ~iters:300 g (Rng.create 11) in
  Alcotest.(check int) "one entry per vertex" (Graph.num_vertices g) (Array.length vec);
  (* the near-Fiedler direction separates the cliques: constant sign
     within each side, opposite signs across the bridge *)
  let sgn x = x >= 0.0 in
  for v = 1 to 5 do
    Alcotest.(check bool) "left side coherent" (sgn vec.(0)) (sgn vec.(v));
    Alcotest.(check bool) "right side coherent" (sgn vec.(6)) (sgn vec.(6 + v))
  done;
  Alcotest.(check bool) "sides are separated" true (sgn vec.(0) <> sgn vec.(6))

let test_cheeger_sandwich () =
  (* gap(lazy) ≤ Φ ≤ sqrt(2·2·gap(lazy)) on graphs we can brute force *)
  let graphs =
    [ Gen.cycle 10; Gen.complete 8; Gen.barbell ~clique:5 ~bridge:0; Gen.grid 3 4 ]
  in
  List.iter
    (fun g ->
      let gap, _ = Mixing.spectral_gap ~iters:500 g (Rng.create 3) in
      let phi, _ = Exact.min_conductance g in
      Alcotest.(check bool) "lower" true (gap <= phi +. 0.02);
      Alcotest.(check bool) "upper" true (phi <= sqrt (4.0 *. Float.max 0.0 gap) +. 0.05))
    graphs

(* ---------- exact enumeration ---------- *)

let test_exact_complete_graph () =
  (* K_6: min conductance cut is the balanced 3-3 split: 9/15 = 0.6 *)
  let phi, witness = Exact.min_conductance (Gen.complete 6) in
  Alcotest.(check (float 1e-9)) "phi" 0.6 phi;
  Alcotest.(check int) "balanced witness" 3 (Array.length witness)

let test_exact_barbell () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  let phi, witness = Exact.min_conductance g in
  Alcotest.(check int) "clique side" 6 (Array.length witness);
  Alcotest.(check bool) "tiny" true (phi < 0.04)

let test_most_balanced_sparse_cut () =
  let g = Gen.barbell ~clique:6 ~bridge:0 in
  (match Reference.most_balanced_sparse_cut g ~phi:0.05 with
  | None -> Alcotest.fail "expected a cut"
  | Some (bal, witness) ->
    Alcotest.(check (float 0.01)) "balance 1/2" 0.5 bal;
    Alcotest.(check int) "witness size" 6 (Array.length witness));
  (* no 0.01-sparse cut in K_8 *)
  Alcotest.(check bool) "complete graph has none" true
    (Reference.most_balanced_sparse_cut (Gen.complete 8) ~phi:0.01 = None)

let test_exact_too_large () =
  Alcotest.check_raises "n > 24" (Invalid_argument "Exact: graph too large for subset enumeration")
    (fun () -> ignore (Exact.min_conductance (Gen.cycle 30)))

let prop_mass_conserved_sparse =
  QCheck.Test.make ~name:"sparse step conserves mass (no truncation)" ~count:60
    QCheck.(pair (Reference.int_range 3 25) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.connectivize rng (Gen.gnp rng ~n ~p:0.2) in
      let p = (Walk.truncated_walk g ~src:(seed mod n) ~eps:0.0 ~steps:5).(5) in
      Float.abs (W.mass p -. 1.0) < 1e-9)

(* Mixing.mixing_time, which steps a walker at ε = 0, against the
   reference loop over the bit-exact reference step: the same start
   draws, and the same threshold test (1/4 of π) before each step, for
   three starts; an edgeless graph never mixes. *)
let prop_mixing_time_matches_dense =
  QCheck.Test.make ~name:"mixing_time = dense reference loop" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, _, _ = random_instance seed in
      (* half the graphs connected, so that the walks mix *)
      let g = if seed mod 2 = 0 then g else Gen.connectivize (Rng.create seed) g in
      Mixing.mixing_time g (Rng.create seed) = Reference.mixing_time g (Rng.create seed))

(* Mixing.mixing_times against [runs] successive reference runs on one
   stream, twice on each graph with two caps drawn independently, and
   the stream's next draw after each call: the same τ per run, and the
   stream left where the runs leave it. The graphs are multigraphs
   with self-loops and isolated vertices on n ∈ 0..40, half of them
   connected, and one in eight has all its edges as loops at one
   vertex, whose start is stationary before any step. The caps are
   the default 4·n, one to four steps, or anything up to 8·n. *)
let prop_mixing_times_matches_reference =
  QCheck.Test.make ~name:"mixing_times = successive reference runs on one stream" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int rng 41 in
      let g =
        if n = 0 then Graph.of_edges ~n []
        else if Rng.int rng 8 = 0 then
          let v = Rng.int rng n in
          Graph.of_edges ~n (List.init (1 + Rng.int rng 3) (fun _ -> (v, v)))
        else
          let g = random_multigraph rng n in
          if Rng.bool rng then Gen.connectivize rng g else g
      in
      let cap () =
        match Rng.int rng 3 with
        | 0 -> None
        | 1 -> Some (1 + Rng.int rng 4)
        | _ -> Some (1 + Rng.int rng (8 * n + 1))
      in
      let actual = Rng.create (seed + 1) and expected = Rng.create (seed + 1) in
      List.for_all
        (fun max_steps ->
          let runs = 1 + Rng.int rng 5 in
          let taus = Mixing.mixing_times ?max_steps g actual ~runs in
          let reference = Array.init runs (fun _ -> Reference.mixing_time ?max_steps g expected) in
          taus = reference && Rng.int actual 1_000_000 = Rng.int expected 1_000_000)
        [ cap (); cap () ])

(* n ≤ 1 and an edgeless graph take no draw: the stream's next draw is
   a fresh stream's first *)
let test_mixing_times_no_draw () =
  List.iter
    (fun (name, g, max_steps, expected) ->
      let rng = Rng.create 5 in
      Alcotest.(check (array int)) name expected (Mixing.mixing_times ?max_steps g rng ~runs:3);
      Alcotest.(check int) (name ^ ": no draw") (Rng.int (Rng.create 5) 1_000_000)
        (Rng.int rng 1_000_000))
    [ ("n = 0", Graph.of_edges ~n:0 [], None, [| 0; 0; 0 |]);
      ("n = 1", Graph.of_edges ~n:1 [ (0, 0) ], None, [| 0; 0; 0 |]);
      ("edgeless, 4·n", Graph.of_edges ~n:5 [], None, [| 20; 20; 20 |]);
      ("edgeless, max_steps", Graph.of_edges ~n:5 [], Some 7, [| 7; 7; 7 |]) ]

let () =
  Alcotest.run "spectral"
    [ ( "walk",
        [ Alcotest.test_case "mass conservation" `Quick test_mass_conservation;
          Alcotest.test_case "sparse/dense agree" `Quick test_sparse_dense_agree;
          Alcotest.test_case "self-loop mass returns" `Quick test_self_loop_mass_returns;
          Alcotest.test_case "stationary fixpoint" `Quick test_stationary_fixpoint;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "truncated ≤ exact" `Quick test_truncated_below_exact;
          Alcotest.test_case "rho symmetry (Lemma 3)" `Quick test_rho_symmetry;
          QCheck_alcotest.to_alcotest prop_mass_conserved_sparse ] );
      ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_step_matches_reference;
          QCheck_alcotest.to_alcotest prop_truncated_walk_matches_reference;
          QCheck_alcotest.to_alcotest prop_walker_matches_reference;
          QCheck_alcotest.to_alcotest prop_advance_pair_matches_advance;
          QCheck_alcotest.to_alcotest prop_rescan_reuses_workspace;
          QCheck_alcotest.to_alcotest prop_seeded_rescan_matches_scan;
          QCheck_alcotest.to_alcotest prop_rescan_fast_path_matches_scan;
          Alcotest.test_case "walker + rescan allocate no arrays" `Quick
            test_walker_rescan_allocation_free;
          Alcotest.test_case "kernels check once, before any write" `Quick test_kernel_guards;
          Alcotest.test_case "walker full-support step" `Quick test_walker_full_support_step;
          QCheck_alcotest.to_alcotest prop_four_term_blocks_match_reference;
          QCheck_alcotest.to_alcotest prop_share_hand_off_matches_reference;
          Alcotest.test_case "shares follow the view" `Quick test_shares_follow_the_view;
          Alcotest.test_case "rows built on first sweep" `Quick test_rows_built_on_first_sweep;
          Alcotest.test_case "zero-mass support entries" `Quick test_zero_mass_support;
          Alcotest.test_case "of_assoc validation" `Quick test_of_assoc_validation;
          QCheck_alcotest.to_alcotest prop_sweep_order_matches_float_compare ] );
      ( "sweep",
        [ Alcotest.test_case "prefix stats match metrics" `Quick test_sweep_cut_matches_metrics;
          Alcotest.test_case "order decreasing" `Quick test_sweep_order_decreasing_rho;
          Alcotest.test_case "finds barbell cut" `Quick test_sweep_finds_barbell_cut;
          Alcotest.test_case "vector sweep boundary" `Quick test_vector_sweep_boundary ] );
      ( "mixing",
        [ Alcotest.test_case "mixing time ordering" `Quick test_mixing_time_ordering;
          Alcotest.test_case "edgeless graph never mixes" `Quick test_mixing_time_edgeless;
          QCheck_alcotest.to_alcotest prop_mixing_time_matches_dense;
          QCheck_alcotest.to_alcotest prop_mixing_times_matches_reference;
          Alcotest.test_case "mixing_times: n ≤ 1 and edgeless draw nothing" `Quick
            test_mixing_times_no_draw;
          Alcotest.test_case "gap: complete vs ring" `Quick test_spectral_gap_complete_vs_ring;
          Alcotest.test_case "second eigenvector splits barbell" `Quick
            test_second_eigenvector_splits_barbell;
          Alcotest.test_case "cheeger sandwich" `Quick test_cheeger_sandwich ] );
      ( "exact",
        [ Alcotest.test_case "complete graph" `Quick test_exact_complete_graph;
          Alcotest.test_case "barbell" `Quick test_exact_barbell;
          Alcotest.test_case "most balanced sparse cut" `Quick test_most_balanced_sparse_cut;
          Alcotest.test_case "too large raises" `Quick test_exact_too_large ] ) ]
