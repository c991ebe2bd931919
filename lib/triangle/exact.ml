module Graph = Dex_graph.Graph
module View = Dex_spectral.View
module Bits = Dex_util.Bits

type triangle = int * int * int

let max_vertices = 1 lsl 20

let check_size g =
  let n = Graph.num_vertices g in
  if n > max_vertices then
    invalid_arg
      (Printf.sprintf "Exact: %d vertices exceed the triangle-id bound n <= 2^20" n);
  n

(* the degree order: plain degree, ties by id *)
let precedes g u v =
  let du = Graph.plain_degree g u and dv = Graph.plain_degree g v in
  du < dv || (du = dv && u < v)

(* out.(u): the distinct neighbours after u in the degree order,
   ascending. The sorted adjacency makes parallel copies adjacent, so
   skipping repeats drops them; self-loops are not in the adjacency. *)
let forward_lists g =
  Array.init (Graph.num_vertices g) (fun u ->
      let a = Graph.neighbors g u in
      let forward i = (i = 0 || a.(i - 1) <> a.(i)) && precedes g u a.(i) in
      let len = ref 0 in
      for i = 0 to Array.length a - 1 do
        if forward i then incr len
      done;
      let out = Array.make !len 0 in
      let k = ref 0 in
      for i = 0 to Array.length a - 1 do
        if forward i then begin
          out.(!k) <- a.(i);
          incr k
        end
      done;
      out)

(* [f a b c] once per triangle, a < b < c; the callback order is the
   forward algorithm's and [iter] (hence Dlp) depends on it *)
let iter_sorted g f =
  let out = forward_lists g in
  let n = Graph.num_vertices g in
  let mark = Array.make n false in
  for u = 0 to n - 1 do
    let ou = out.(u) in
    Array.iter (fun v -> mark.(v) <- true) ou;
    Array.iter
      (fun v ->
        Array.iter
          (fun w ->
            if mark.(w) then begin
              let a = Int.min u (Int.min v w) and c = Int.max u (Int.max v w) in
              f a (u + v + w - a - c) c
            end)
          out.(v))
      ou;
    Array.iter (fun v -> mark.(v) <- false) ou
  done

let iter g f = iter_sorted g (fun a b c -> f (a, b, c))

(* ---------- dense graphs: bit-row intersections ---------- *)

(* bits per row word, as in [View.rows] *)
let word_bits = Sys.int_size

(* [f a b base x] for each edge a < b, in (a, b) order, and each word
   of the rows of a and b above b, ascending, whose AND [x] is not
   zero: bit i of [x] is set iff c = base + i is adjacent to both, and
   every such c is above b *)
let iter_common g (r : View.rows) f =
  let words = r.words and bits = r.bits in
  for a = 0 to Graph.num_vertices g - 1 do
    let nbrs = Graph.neighbors g a in
    for i = 0 to Array.length nbrs - 1 do
      let b = nbrs.(i) in
      if b > a then begin
        let w0 = b / word_bits in
        (* the bits above b's own *)
        let above = -2 lsl (b - (w0 * word_bits)) in
        for w = w0 to words - 1 do
          let x = bits.((a * words) + w) land bits.((b * words) + w) in
          let x = if w = w0 then x land above else x in
          if x <> 0 then f a b (w * word_bits) x
        done
      end
    done
  done

(* the index of [x]'s lowest set bit, [x <> 0] *)
let[@inline] lowest x = Bits.popcount ((x land -x) - 1)

(* the number of triangles a < b < c with [pred a b || pred b c ||
   pred a c]: a popcount per word where [pred a b] holds *)
let dense_count g r pred =
  let total = ref 0 in
  iter_common g r (fun a b base x ->
      if pred a b then total := !total + Bits.popcount x
      else begin
        let x = ref x in
        while !x <> 0 do
          let c = base + lowest !x in
          if pred b c || pred a c then incr total;
          x := !x land (!x - 1)
        done
      end);
  !total

let count g =
  match Lazy.force (View.make g).rows with
  | Some r -> dense_count g r (fun _ _ -> true)
  | None ->
    let c = ref 0 in
    iter_sorted g (fun _ _ _ -> incr c);
    !c

(* ---------- packed ids ---------- *)

(* LSD radix sort of non-negative ints, 11-bit digits: one temp array,
   no comparator; as many passes as the largest value has digits *)
let radix_sort a =
  let len = Array.length a in
  if len > 1 then begin
    let bits = 11 in
    let buckets = 1 lsl bits in
    let maxv = Array.fold_left Int.max 0 a in
    let count = Array.make (buckets + 1) 0 in
    let src = ref a and dst = ref (Array.make len 0) in
    let shift = ref 0 in
    while !shift < Sys.int_size && maxv lsr !shift > 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 (buckets + 1) 0;
      for i = 0 to len - 1 do
        let b = ((s.(i) lsr sh) land (buckets - 1)) + 1 in
        count.(b) <- count.(b) + 1
      done;
      for b = 1 to buckets do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      for i = 0 to len - 1 do
        let b = (s.(i) lsr sh) land (buckets - 1) in
        d.(count.(b)) <- s.(i);
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s;
      shift := sh + bits
    done;
    if !src != a then Array.blit !src 0 a 0 len
  end

(* a growable int buffer for the ids *)
type buf = { mutable data : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make ((2 * b.len) + 64) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let sorted_contents b =
  let a = Array.sub b.data 0 b.len in
  radix_sort a;
  a

(* an id packs a < b < c into the bit fields (a, b, c), each [s] bits
   wide with 2^s >= n, so integer order is lexicographic order *)
let id_bits n = Dex_sparsecut.Params.ceil_log2 n

(* the ids of the hits, ascending as listed: (a, b) ascending from
   [iter_common], then c ascending within each word *)
let dense_ids g r s pred =
  let ids = Array.make (dense_count g r pred) 0 in
  let k = ref 0 in
  iter_common g r (fun a b base x ->
      let ab = (a lsl (2 * s)) lor (b lsl s) and all = pred a b in
      let x = ref x in
      while !x <> 0 do
        let c = base + lowest !x in
        if all || pred b c || pred a c then begin
          ids.(!k) <- ab lor c;
          incr k
        end;
        x := !x land (!x - 1)
      done);
  ids

let triangle_ids_with_edge_pred g pred =
  let s = id_bits (check_size g) in
  match Lazy.force (View.make g).rows with
  | Some r -> dense_ids g r s pred
  | None ->
    let hit = { data = [||]; len = 0 } in
    iter_sorted g (fun a b c ->
        if pred a b || pred b c || pred a c then
          push hit ((a lsl (2 * s)) lor (b lsl s) lor c));
    sorted_contents hit

let triangle_ids g = triangle_ids_with_edge_pred g (fun _ _ -> true)

let filter_ids ~n ids pred =
  let s = id_bits n in
  let mask = (1 lsl s) - 1 in
  let keep id =
    let a = id lsr (2 * s) and b = (id lsr s) land mask and c = id land mask in
    pred a b || pred b c || pred a c
  in
  if Array.for_all keep ids then ids
  else begin
    let kept = { data = [||]; len = 0 } in
    Array.iter (fun id -> if keep id then push kept id) ids;
    Array.sub kept.data 0 kept.len
  end

let triangles_of_ids ~n ids =
  let s = id_bits n in
  let mask = (1 lsl s) - 1 in
  let acc = ref [] in
  for i = Array.length ids - 1 downto 0 do
    let id = ids.(i) in
    acc := (id lsr (2 * s), (id lsr s) land mask, id land mask) :: !acc
  done;
  !acc

let enumerate g = triangles_of_ids ~n:(Graph.num_vertices g) (triangle_ids g)
