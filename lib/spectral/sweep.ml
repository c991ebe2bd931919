module Graph = Dex_graph.Graph

(* [stamp.(v) = epoch] marks v in the prefix being measured, or in the
   support being seeded; [prefix] is the measured prefix as a bit row
   when the bit-row pass runs; [tmp_v] and [tmp_r] are the merge sort's
   second buffer, and [tmp_r] also holds the seed's ρ per vertex *)
type scratch = {
  stamp : int array;
  mutable epoch : int;
  prefix : int array;
  tmp_v : int array;
  tmp_r : float array;
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

(* ---------- bit rows ---------- *)

(* bits per row word: all of an OCaml int's *)
let word_bits = Sys.int_size

let row_words n = (n + word_bits - 1) / word_bits

(* The bit-row prefix pass runs on a graph with no parallel edges whose
   mean plain degree is at least [dense_degree] per row word. The stamp
   loop reads one stamp per neighbour; the bit-row pass ANDs and
   popcounts each word of the vertex's row, about a dozen operations
   per word. Timing full-support rescans both ways, the two broke even
   near 3-4 neighbours per word (random regular graphs on 200 and 1000
   vertices, G(128, p)), and at 7-8 the bit rows took 1.7-2.6x less
   time. G(128, 1/2) has ~21 neighbours per word, a random 8-regular
   graph on 200 vertices 2 (EXPERIMENTS.md, "Dense sweeps"). *)
let dense_degree = 8

(* [bits.(v·words + u / word_bits)] has bit [u mod word_bits] set iff
   [u] is a neighbour of [v]; [n] and [m] are the graph's vertex and
   plain edge counts *)
type rows = { n : int; m : int; words : int; bits : int array }

let simple g =
  let ok = ref true and v = ref 0 in
  while !ok && !v < Graph.num_vertices g do
    let a = Graph.neighbors g !v in
    for i = 1 to Array.length a - 1 do
      if a.(i - 1) = a.(i) then ok := false
    done;
    incr v
  done;
  !ok

let rows g =
  let n = Graph.num_vertices g in
  let words = row_words n in
  if n = 0 || 2 * Graph.num_plain_edges g < dense_degree * words * n || not (simple g) then None
  else begin
    let bits = Array.make (n * words) 0 in
    for v = 0 to n - 1 do
      Array.iter
        (fun u ->
          let i = (v * words) + (u / word_bits) in
          bits.(i) <- bits.(i) lor (1 lsl (u mod word_bits)))
        (Graph.neighbors g v)
    done;
    Some { n; m = Graph.num_plain_edges g; words; bits }
  end

(* the set bits of a word, all [word_bits] of them (SWAR: pair, nibble
   and byte sums, then the bytes summed into the top byte) *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

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
        prefix = Array.make (row_words n) 0;
        tmp_v = Array.make n 0;
        tmp_r = Array.make n 0.0 } }

let take sweep j =
  if j < 0 || j > sweep.length then invalid_arg "Sweep.take";
  Array.sub sweep.ordered 0 j

(* (r1, v1) comes before (r2, v2) in the sweep order: ρ descending,
   ties by vertex ascending. [Float.compare] makes it a total order
   even on NaN, so every correct sort yields the same permutation. *)
let[@inline] before (r1 : float) (v1 : int) (r2 : float) (v2 : int) =
  let c = Float.compare r1 r2 in
  c > 0 || (c = 0 && v1 < v2)

(* merges the sorted runs [lo, mid) and [mid, hi) of (sv, sr) into the
   same range of (dv, dr) *)
let merge sv sr dv dr lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i < mid && (!j >= hi || not (before sr.(!j) sv.(!j) sr.(!i) sv.(!i))) then begin
      dv.(k) <- sv.(!i);
      dr.(k) <- sr.(!i);
      incr i
    end
    else begin
      dv.(k) <- sv.(!j);
      dr.(k) <- sr.(!j);
      incr j
    end
  done

(* insertion-sorts (v, r).(lo .. hi-1) by [before] until it has spent
   more than [budget] shifts: whether it finished. A range it stops in
   holds a permutation of its entries. *)
let insertion_sort v r ~lo ~hi ~budget =
  let shifts = ref 0 and i = ref (lo + 1) in
  while !i < hi && !shifts <= budget do
    let x = v.(!i) and rx = r.(!i) in
    let j = ref (!i - 1) in
    while !j >= lo && before rx x r.(!j) v.(!j) do
      v.(!j + 1) <- v.(!j);
      r.(!j + 1) <- r.(!j);
      decr j
    done;
    v.(!j + 1) <- x;
    r.(!j + 1) <- rx;
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

(* the neighbours of [v] that [stamp] marks with [epoch] *)
let[@inline] inside_by_stamps stamp (epoch : int) g v =
  let inside = ref 0 in
  let nbrs = Graph.neighbors g v in
  (* branch-free: whether a neighbour is already inside is close to a
     coin flip, which a branch would mispredict *)
  for i = 0 to Array.length nbrs - 1 do
    inside := !inside + Bool.to_int (stamp.(nbrs.(i)) = epoch)
  done;
  !inside

(* the neighbours of [v] in the bit row [prefix] *)
let[@inline] inside_by_rows r prefix v =
  let inside = ref 0 in
  let base = v * r.words in
  for w = 0 to r.words - 1 do
    inside := !inside + popcount (r.bits.(base + w) land prefix.(w))
  done;
  !inside

(* measures every prefix of [t.ordered.(0 .. length-1)] in [g]. Both
   passes count the prefix's neighbours of each vertex as an integer,
   so they give the same cuts and conductances bit for bit. *)
let measure t rows g =
  let total_volume = Graph.total_volume g in
  let s = t.scratch in
  s.epoch <- s.epoch + 1;
  let stamp = s.stamp and epoch = s.epoch and prefix = s.prefix in
  (match rows with Some r -> Array.fill prefix 0 r.words 0 | None -> ());
  let volume = ref 0 and cut = ref 0 in
  for j = 0 to t.length - 1 do
    let v = t.ordered.(j) in
    let inside =
      match rows with
      | None ->
        let inside = inside_by_stamps stamp epoch g v in
        stamp.(v) <- epoch;
        inside
      | Some r ->
        let inside = inside_by_rows r prefix v in
        let w = v / word_bits in
        prefix.(w) <- prefix.(w) lor (1 lsl (v - (w * word_bits)));
        inside
    in
    volume := !volume + Graph.degree g v;
    cut := !cut + Graph.plain_degree g v - (2 * inside);
    let small = Int.min !volume (total_volume - !volume) in
    t.volume.(j) <- !volume;
    t.cut.(j) <- !cut;
    t.conductance.(j) <-
      (if small <= 0 then Float.infinity else float_of_int !cut /. float_of_int small)
  done

let check_size t g =
  if Graph.num_vertices g > Array.length t.ordered then
    invalid_arg "Sweep: workspace smaller than the graph"

let check_rows g = function
  | Some r when r.n <> Graph.num_vertices g || r.m <> Graph.num_plain_edges g ->
    invalid_arg "Sweep: rows of another graph"
  | _ -> ()

(* shifts the seeded insertion sort may spend, per entry, before the
   merge sort takes over. A shift is a few times cheaper than a merge
   step, whose branch is a coin flip: at n = 200 the sort's time fell
   as this budget rose from 2 to 16 and stayed flat above it
   (EXPERIMENTS.md, "Seeded sweeps"). *)
let shift_budget = 16

let rescan ?rows t g p =
  check_size t g;
  check_rows g rows;
  (* stamp p's support of positive degree, with its ρ per vertex *)
  let s = t.scratch in
  let stamp = s.stamp and rho = s.tmp_r in
  let support = s.epoch + 1 and carried = s.epoch + 2 in
  s.epoch <- carried;
  let size = ref 0 in
  for i = 0 to p.Walk.len - 1 do
    let v = p.Walk.support.(i) in
    let deg = Graph.degree g v in
    if deg > 0 then begin
      stamp.(v) <- support;
      rho.(v) <- p.Walk.masses.(i) /. float_of_int deg;
      incr size
    end
  done;
  (* the seed: the previous order's vertices still in the support, in
     their order, then the support's new vertices ascending *)
  let k = ref 0 in
  for j = 0 to t.length - 1 do
    let v = t.ordered.(j) in
    if stamp.(v) = support then begin
      stamp.(v) <- carried;
      t.ordered.(!k) <- v;
      t.last_rho.(!k) <- rho.(v);
      incr k
    end
  done;
  let kept = !k in
  for i = 0 to p.Walk.len - 1 do
    let v = p.Walk.support.(i) in
    if stamp.(v) = support then begin
      t.ordered.(!k) <- v;
      t.last_rho.(!k) <- rho.(v);
      incr k
    end
  done;
  t.length <- !size;
  (* an order that hardly changed costs few shifts; a seed that is
     mostly new goes straight to the merge sort *)
  if
    2 * kept < !size
    || not (insertion_sort t.ordered t.last_rho ~lo:0 ~hi:!size ~budget:(shift_budget * !size))
  then merge_sort t;
  measure t rows g

let scan g p =
  let t = workspace g in
  rescan ?rows:(rows g) t g p;
  t

let best t =
  let best = ref (-1) in
  for j = 0 to t.length - 1 do
    let c = t.conductance.(j) in
    if Float.is_finite c && (!best < 0 || c < t.conductance.(!best)) then best := j
  done;
  if !best < 0 then None else Some (!best + 1)
