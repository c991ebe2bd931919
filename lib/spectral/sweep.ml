module Graph = Dex_graph.Graph
module Bits = Dex_util.Bits

(* [stamp.(v) = epoch] marks v in the prefix being measured, or in the
   support being seeded; [prefix] is the measured prefix as a bit row
   when the bit-row pass runs; [tmp_v] and [tmp_r] are the merge sort's
   second buffer, and [tmp_r] also holds the seed's ρ per vertex.
   [order_of] is the degrees array of the view the last rescan ran on,
   [\[||\]] before the first: with [length = n] on that view, [ordered]
   is a permutation of all its n vertices. *)
type scratch = {
  stamp : int array;
  mutable epoch : int;
  prefix : int array;
  tmp_v : int array;
  tmp_r : float array;
  mutable order_of : float array;
}

type t = {
  ordered : int array;
  volume : int array;
  cut : int array;
  conductance : float array;
  last_rho : float array;
  mutable length : int;
  scratch : scratch;
}

(* bits per row word, as in [View.rows] *)
let word_bits = Sys.int_size

let workspace g =
  let n = Graph.num_vertices g in
  { ordered = Array.make n 0;
    volume = Array.make n 0;
    cut = Array.make n 0;
    conductance = Array.make n 0.0;
    last_rho = Array.make n 0.0;
    length = 0;
    scratch =
      { stamp = Array.make n 0;
        epoch = 0;
        prefix = Array.make ((n + word_bits - 1) / word_bits) 0;
        tmp_v = Array.make n 0;
        tmp_r = Array.make n 0.0;
        order_of = [||] } }

let take sweep j =
  if j < 0 || j > sweep.length then invalid_arg "Sweep.take";
  Array.sub sweep.ordered 0 j

(* (r1, v1) comes before (r2, v2) in the sweep order: ρ descending in
   [Float.compare]'s total order (NaN equal to itself, below all else),
   ties by vertex ascending, so every correct sort yields the same
   permutation even on NaN. Two branches decide a non-NaN pair. *)
let[@inline] before (r1 : float) (v1 : int) (r2 : float) (v2 : int) =
  if r1 > r2 then true
  else if r1 < r2 then false
  else if r1 = r2 then v1 < v2
  else if r1 <> r1 then r2 <> r2 && v1 < v2
  else true

(* The sorts and passes below index without bounds checks. [rescan]
   checks at entry what makes that safe: the workspace's arrays, of
   one length (see [workspace]), cover the view's n vertices, and p's
   support, ascending, lies in 0..n−1. Every range they touch is then
   within [length] ≤ n cells, every vertex of [ordered] is below the
   workspace's length (rescans place only vertices of their graph),
   and a view's rows hold ⌈n/word_bits⌉ words per vertex, no more
   than the prefix row has. *)

(* merges the sorted runs [lo, mid) and [mid, hi) of (sv, sr) into the
   same range of (dv, dr) *)
let merge (sv : int array) (sr : float array) (dv : int array) (dr : float array) lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if
      !i < mid
      && (!j >= hi
         || not
              (before (Array.unsafe_get sr !j) (Array.unsafe_get sv !j) (Array.unsafe_get sr !i)
                 (Array.unsafe_get sv !i)))
    then begin
      Array.unsafe_set dv k (Array.unsafe_get sv !i);
      Array.unsafe_set dr k (Array.unsafe_get sr !i);
      incr i
    end
    else begin
      Array.unsafe_set dv k (Array.unsafe_get sv !j);
      Array.unsafe_set dr k (Array.unsafe_get sr !j);
      incr j
    end
  done

(* insertion-sorts (v, r).(lo .. hi-1) by [before] until it has spent
   more than [budget] shifts: whether it finished. A range it stops in
   holds a permutation of its entries. *)
let insertion_sort (v : int array) (r : float array) ~lo ~hi ~budget =
  let shifts = ref 0 and i = ref (lo + 1) in
  while !i < hi && !shifts <= budget do
    let x = Array.unsafe_get v !i and rx = Array.unsafe_get r !i in
    let j = ref (!i - 1) in
    while !j >= lo && before rx x (Array.unsafe_get r !j) (Array.unsafe_get v !j) do
      Array.unsafe_set v (!j + 1) (Array.unsafe_get v !j);
      Array.unsafe_set r (!j + 1) (Array.unsafe_get r !j);
      decr j
    done;
    Array.unsafe_set v (!j + 1) x;
    Array.unsafe_set r (!j + 1) rx;
    shifts := !shifts + (!i - 1 - !j);
    incr i
  done;
  !i >= hi

let insertion_run = 8

(* merge sort of (ordered, last_rho).(0 .. length-1) by [before]:
   insertion-sorted runs of [insertion_run] entries, then bottom-up
   merges that alternate between the sweep's arrays and the scratch *)
let merge_sort t =
  let n = t.length and v = t.ordered and r = t.last_rho in
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min n (!lo + insertion_run) in
    ignore (insertion_sort v r ~lo:!lo ~hi ~budget:max_int : bool);
    lo := hi
  done;
  let s = t.scratch in
  let width = ref insertion_run and in_scratch = ref false in
  while !width < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min n (!lo + !width) in
      let hi = Int.min n (mid + !width) in
      if !in_scratch then merge s.tmp_v s.tmp_r v r !lo mid hi
      else merge v r s.tmp_v s.tmp_r !lo mid hi;
      lo := hi
    done;
    in_scratch := not !in_scratch;
    width := 2 * !width
  done;
  if !in_scratch then begin
    Array.blit s.tmp_v 0 v 0 n;
    Array.blit s.tmp_r 0 r 0 n
  end

(* the entries of [nbrs] that [stamp] marks with [epoch] *)
let[@inline] inside_by_stamps (stamp : int array) (epoch : int) (nbrs : int array) =
  let inside = ref 0 in
  (* branch-free: whether a neighbour is already inside is close to a
     coin flip, which a branch would mispredict *)
  for i = 0 to Array.length nbrs - 1 do
    inside := !inside + Bool.to_int (Array.unsafe_get stamp (Array.unsafe_get nbrs i) = epoch)
  done;
  !inside

(* the neighbours of [v] in the bit row [prefix] *)
let[@inline] inside_by_rows (r : View.rows) (prefix : int array) v =
  let inside = ref 0 in
  let base = v * r.words in
  for w = 0 to r.words - 1 do
    inside :=
      !inside + Bits.popcount (Array.unsafe_get r.bits (base + w) land Array.unsafe_get prefix w)
  done;
  !inside

(* measures every prefix of [t.ordered.(0 .. length-1)] in the view's
   graph. Both passes count the prefix's neighbours of each vertex as
   an integer, so they give the same cuts and conductances bit for
   bit. A vertex's degree is its view degree, exact as a float, and
   its plain degree the length of its neighbour array: one adjacency
   read per vertex. *)
let measure t (view : View.t) =
  let g = view.graph and degrees = view.degrees and rows = Lazy.force view.rows in
  let total_volume = Graph.total_volume g in
  let s = t.scratch in
  s.epoch <- s.epoch + 1;
  let stamp = s.stamp and epoch = s.epoch and prefix = s.prefix in
  (match rows with Some r -> Array.fill prefix 0 r.words 0 | None -> ());
  let volume = ref 0 and cut = ref 0 in
  for j = 0 to t.length - 1 do
    let v = Array.unsafe_get t.ordered j in
    let nbrs = Graph.neighbors g v in
    let inside =
      match rows with
      | None ->
        let inside = inside_by_stamps stamp epoch nbrs in
        Array.unsafe_set stamp v epoch;
        inside
      | Some r ->
        let inside = inside_by_rows r prefix v in
        let w = v / word_bits in
        Array.unsafe_set prefix w (Array.unsafe_get prefix w lor (1 lsl (v - (w * word_bits))));
        inside
    in
    volume := !volume + int_of_float (Array.unsafe_get degrees v);
    cut := !cut + Array.length nbrs - (2 * inside);
    let small = Int.min !volume (total_volume - !volume) in
    Array.unsafe_set t.volume j !volume;
    Array.unsafe_set t.cut j !cut;
    Array.unsafe_set t.conductance j
      (if small <= 0 then Float.infinity else float_of_int !cut /. float_of_int small)
  done

(* what the unchecked loops rely on (see above [merge]) *)
let check t n (p : Walk.sparse) =
  if n > Array.length t.ordered then invalid_arg "Sweep.rescan: workspace smaller than the graph";
  if p.len > 0 && (p.support.(0) < 0 || p.support.(p.len - 1) >= n) then
    invalid_arg "Sweep.rescan: distribution outside the graph"

(* shifts the seeded insertion sort may spend, per entry, before the
   merge sort takes over. A shift is a few times cheaper than a merge
   step, whose branch is a coin flip: at n = 200 the sort's time fell
   as this budget rose from 2 to 16 and stayed flat above it
   (EXPERIMENTS.md, "Seeded sweeps"). *)
let shift_budget = 16

(* The seed: the previous order's vertices still in p's support of
   positive degree, in their order, then the support's new vertices
   ascending, each with its ρ; sets [t.length] to the support's size
   and returns how many entries carried over. *)
let seed t (degrees : float array) (p : Walk.sparse) =
  (* stamp p's support of positive degree, with its ρ per vertex *)
  let s = t.scratch in
  let stamp = s.stamp and rho = s.tmp_r in
  let support = s.epoch + 1 and carried = s.epoch + 2 in
  s.epoch <- carried;
  let size = ref 0 in
  for i = 0 to p.len - 1 do
    let v = Array.unsafe_get p.support i in
    let deg = Array.unsafe_get degrees v in
    if deg > 0.0 then begin
      Array.unsafe_set stamp v support;
      Array.unsafe_set rho v (Array.unsafe_get p.masses i /. deg);
      incr size
    end
  done;
  let k = ref 0 in
  for j = 0 to t.length - 1 do
    let v = Array.unsafe_get t.ordered j in
    if Array.unsafe_get stamp v = support then begin
      Array.unsafe_set stamp v carried;
      Array.unsafe_set t.ordered !k v;
      Array.unsafe_set t.last_rho !k (Array.unsafe_get rho v);
      incr k
    end
  done;
  let kept = !k in
  for i = 0 to p.len - 1 do
    let v = Array.unsafe_get p.support i in
    if Array.unsafe_get stamp v = support then begin
      Array.unsafe_set t.ordered !k v;
      Array.unsafe_set t.last_rho !k (Array.unsafe_get rho v);
      incr k
    end
  done;
  t.length <- !size;
  kept

let rescan t (view : View.t) (p : Walk.sparse) =
  let degrees = view.degrees in
  let n = Array.length degrees in
  check t n p;
  let s = t.scratch in
  (* A support on all of 0..n−1 after a rescan that placed all n
     vertices of this view: every vertex has positive degree and
     carries over, so [seed] would rebuild the order as it stands.
     Only the ρ are new, each [seed]'s expression on p's mass at v. *)
  let kept =
    if s.order_of == degrees && t.length = n && p.len = n then begin
      for j = 0 to n - 1 do
        let v = Array.unsafe_get t.ordered j in
        Array.unsafe_set t.last_rho j (Array.unsafe_get p.masses v /. Array.unsafe_get degrees v)
      done;
      n
    end
    else seed t degrees p
  in
  s.order_of <- degrees;
  let size = t.length in
  (* an order that hardly changed costs few shifts; a seed that is
     mostly new goes straight to the merge sort *)
  if
    2 * kept < size
    || not (insertion_sort t.ordered t.last_rho ~lo:0 ~hi:size ~budget:(shift_budget * size))
  then merge_sort t;
  measure t view

let scan g p =
  let t = workspace g in
  rescan t (View.make g) p;
  t

let best t =
  let best = ref (-1) in
  for j = 0 to t.length - 1 do
    let c = t.conductance.(j) in
    if Float.is_finite c && (!best < 0 || c < t.conductance.(!best)) then best := j
  done;
  if !best < 0 then None else Some (!best + 1)
