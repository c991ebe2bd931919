module Graph = Dex_graph.Graph

(* [support.(0 .. len-1)] ascends strictly; [masses.(i)] is the mass at
   [support.(i)]. Cells at [len] and beyond are unused: a walker's
   views are buffers of capacity n whose [len] it rewrites. *)
type sparse = { support : int array; masses : float array; mutable len : int }

let indicator v = { support = [| v |]; masses = [| 1.0 |]; len = 1 }

let of_assoc pairs =
  let a = Array.of_list pairs in
  Array.sort (fun (u, _) (v, _) -> Int.compare u v) a;
  Array.iteri
    (fun i (v, _) ->
      if v < 0 then invalid_arg "Walk.of_assoc: negative vertex";
      if i > 0 && fst a.(i - 1) = v then invalid_arg "Walk.of_assoc: duplicate vertex")
    a;
  { support = Array.map fst a; masses = Array.map snd a; len = Array.length a }

let size p = p.len

(* ---------------- the double-buffered walker ---------------- *)

(* [cur] is the current distribution, [spare] the buffer the next
   advance writes; both have capacity n and swap on every advance.
   The step kernel's dense scratch: [acc.(v)] is meaningful only while
   [stamp.(v) = epoch], so bumping [epoch] clears it in O(1);
   [touched.(0 .. count-1)] lists the vertices stamped in the current
   epoch, in first-touch order (a paired full-support step lists its
   dropped vertices there). [share.(v)] is v's per-edge share in a
   paired full-support step. That step writes the next step's shares
   into [acc], which the pull never reads as an accumulator, and swaps
   the two arrays; [shares_of] is then the degrees array of the view
   they were computed on, and the next paired full step on that view
   skips its share pass. A push step and [start] set it to [\[||\]],
   which no view on n > 0 vertices holds, and the pull never runs at
   n = 0. [change.(0)] is the last advance's ‖p̃_t − p̃_{t−1}‖₁, kept
   in a float array so that neither path boxes it on return. Every
   array but [change] and [shares_of] has the walker's n cells, which
   the kernels' one bounds check relies on. *)
type walker = {
  mutable acc : float array;
  stamp : int array;
  touched : int array;
  mutable epoch : int;
  mutable count : int;
  mutable share : float array;
  mutable shares_of : float array;
  change : float array;
  mutable cur : sparse;
  mutable spare : sparse;
}

let walker g =
  let n = Graph.num_vertices g in
  let buffer () = { support = Array.make n 0; masses = Array.make n 0.0; len = 0 } in
  { acc = Array.make n 0.0;
    stamp = Array.make n 0;
    touched = Array.make n 0;
    epoch = 0;
    count = 0;
    share = Array.make n 0.0;
    shares_of = [||];
    change = [| 0.0 |];
    cur = buffer ();
    spare = buffer () }

let start w p =
  if p.len > Array.length w.cur.support then invalid_arg "Walk.start: walker smaller than p";
  Array.blit p.support 0 w.cur.support 0 p.len;
  Array.blit p.masses 0 w.cur.masses 0 p.len;
  w.cur.len <- p.len;
  w.shares_of <- [||]

let current w = w.cur

(* ---------------- the kernels ----------------

   The loops below index without bounds checks; [check] makes that
   safe once per call, before anything is written. Every walker array
   has the one length [Array.length w.stamp] (see [walker]), [acc] and
   [share] whichever way they last swapped, and it must cover the
   view's n vertices, as must the mask. The current
   support ascends strictly (every [sparse] does), so its two ends
   bound all of it within 0..n−1, and so within the view's n degrees.
   The rest holds by construction: a view's degrees have n cells, a
   graph's neighbours lie in 0..n−1, and the kernel touches each
   vertex once per epoch, so its touched count stays within n. The
   paired full-support pull reads a neighbour array four cells at a
   time only while [j + 3 < len], so [nbrs.(j + 3)] and the three
   before it lie within it. *)
let check w n ~mask =
  if n > Array.length w.stamp then invalid_arg "Walk.advance: walker smaller than the graph";
  if Array.length mask < n then invalid_arg "Walk.advance: mask shorter than the graph";
  let p = w.cur in
  if p.len > 0 && (p.support.(0) < 0 || p.support.(p.len - 1) >= n) then
    invalid_arg "Walk.advance: distribution outside the graph"

(* a first touch stores [0.0 +. x], the sum a 0.0-defaulted table
   accumulator computes (it differs from [x] only at -0.0) *)
let[@inline] add w v x =
  if Array.unsafe_get w.stamp v = w.epoch then
    Array.unsafe_set w.acc v (Array.unsafe_get w.acc v +. x)
  else begin
    Array.unsafe_set w.stamp v w.epoch;
    Array.unsafe_set w.acc v (0.0 +. x);
    Array.unsafe_set w.touched w.count v;
    w.count <- w.count + 1
  end

(* The step kernel: accumulates M·p into [w]'s scratch, orders the
   touched set and keeps the entries that survive [\[·\]_eps] (all of
   them at eps = 0, masses being >= 0). It returns the kept count; the
   kept vertices ascend in [w.touched.(0 .. kept-1)] and [w.acc.(v)]
   is the new mass at each. [advance_sparse] copies them out. The
   threshold [(2.0 *. eps) *. d] is [2.0 *. eps *. d] as written,
   left-associated. *)
let kernel w (view : View.t) p ~eps n =
  let g = view.graph and degrees = view.degrees in
  w.epoch <- w.epoch + 1;
  w.count <- 0;
  (* ascending support, neighbours in adjacency order: this fixes the
     order of the terms summed into each vertex (DESIGN.md §12) *)
  for i = 0 to p.len - 1 do
    let v = Array.unsafe_get p.support i and mass = Array.unsafe_get p.masses i in
    let deg = Array.unsafe_get degrees v in
    if deg = 0.0 then add w v mass
    else begin
      let share = mass /. (2.0 *. deg) in
      add w v ((mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v)));
      let nbrs = Graph.neighbors g v in
      for j = 0 to Array.length nbrs - 1 do
        add w (Array.unsafe_get nbrs j) share
      done
    end
  done;
  Dex_util.Stamped.sort ~stamp:w.stamp ~epoch:w.epoch ~n w.touched w.count;
  (* compact the survivors in place *)
  let threshold = 2.0 *. eps in
  let k = ref 0 in
  for i = 0 to w.count - 1 do
    let v = Array.unsafe_get w.touched i in
    if Array.unsafe_get w.acc v >= threshold *. Array.unsafe_get degrees v then begin
      Array.unsafe_set w.touched !k v;
      incr k
    end
  done;
  !k

(* the share pass of a paired full-support step: [w.share.(v)] is
   v's per-edge share of p̃_{t−1}, unless the last step on this view
   handed them over *)
let shares w (degrees : float array) n =
  if w.shares_of != degrees then begin
    let share = w.share and masses = w.cur.masses in
    for v = 0 to n - 1 do
      Array.unsafe_set share v (Array.unsafe_get masses v /. (2.0 *. Array.unsafe_get degrees v))
    done
  end

(* the walker's shares after a paired full-support step that wrote
   the next ones into [acc]: they hold when it dropped no vertex *)
let[@inline] hand_over w (degrees : float array) ~dropped =
  let share = w.share in
  w.share <- w.acc;
  w.acc <- share;
  w.shares_of <- (if dropped = 0 then degrees else [||])

(* [s] plus the shares of a, b, c and d, added left to right, one
   at a time: the paired full-support pull's four-term block
   (DESIGN.md §12) *)
let[@inline] add4 (share : float array) s a b c d =
  s
  +. Array.unsafe_get share a
  +. Array.unsafe_get share b
  +. Array.unsafe_get share c
  +. Array.unsafe_get share d

let advance_sparse w view ~eps ~mask n =
  let prev = w.cur and next = w.spare in
  let kept = kernel w view prev ~eps n in
  (* one pass writes p̃_t, marks the mask and sums |p̃_t − p̃_{t−1}|
     over p̃_t ascending, merging against the ascending p̃_{t−1} *)
  let np = prev.len in
  let acc = ref 0.0 in
  let j = ref 0 in
  for i = 0 to kept - 1 do
    let v = Array.unsafe_get w.touched i in
    let x = Array.unsafe_get w.acc v in
    Array.unsafe_set next.support i v;
    Array.unsafe_set next.masses i x;
    Array.unsafe_set mask v true;
    while !j < np && Array.unsafe_get prev.support !j < v do
      incr j
    done;
    let y =
      if !j < np && Array.unsafe_get prev.support !j = v then Array.unsafe_get prev.masses !j
      else 0.0
    in
    acc := !acc +. Float.abs (x -. y)
  done;
  next.len <- kept;
  (* then the entries of p̃_{t−1} that left the support, ascending: the
     order of the old two-pass merge, which the fixpoint step and so
     the pinned outputs depend on (DESIGN.md §12) *)
  let i = ref 0 in
  for j = 0 to np - 1 do
    let v = Array.unsafe_get prev.support j in
    while !i < kept && Array.unsafe_get next.support !i < v do
      incr i
    done;
    if not (!i < kept && Array.unsafe_get next.support !i = v) then
      acc := !acc +. Array.unsafe_get prev.masses j
  done;
  w.shares_of <- [||];
  w.cur <- next;
  w.spare <- prev;
  w.change.(0) <- !acc

(* inlined, so the caller reads [change.(0)] unboxed *)
let[@inline] advance w (view : View.t) ~eps ~mask =
  let n = Graph.num_vertices view.graph in
  check w n ~mask;
  advance_sparse w view ~eps ~mask n;
  w.change.(0)

let[@inline] change w = w.change.(0)

(* [advance] for two walkers whose p̃_{t−1} is supported on all of
   0..n−1, in one pass over the adjacency: each vertex pulls its new
   masses from its sorted adjacency instead of the kernel pushing
   them, keeping two sums, [s1] and [s2]. The terms reaching u arrive
   in push order — ascending source, u's own term at u's place,
   parallel edges consecutively — and each sum starts at [0.0] like
   push's first touch, so every float is the kernel's (DESIGN.md §12).
   The same pass truncates, writes p̃_t, marks the mask, sums
   |p̃_t − p̃_{t−1}| over the kept vertices and writes each kept
   vertex's next share into [acc], the share pass's own expression on
   the same float; the dropped ones, listed in [touched], add their
   old masses afterwards, ascending, as the push path's tail does.
   The two copies of the truncate-and-write tail stay inline: passing
   the counters to a helper would box the L1 sums. *)
let advance_full_pair w1 w2 (view : View.t) ~eps1 ~eps2 ~mask1 ~mask2 n =
  let g = view.graph and degrees = view.degrees in
  shares w1 degrees n;
  shares w2 degrees n;
  let prev1 = w1.cur and next1 = w1.spare and share1 = w1.share and dropped1 = w1.touched in
  let prev2 = w2.cur and next2 = w2.spare and share2 = w2.share and dropped2 = w2.touched in
  let masses1 = prev1.masses and masses2 = prev2.masses in
  let share1' = w1.acc and share2' = w2.acc in
  let threshold1 = 2.0 *. eps1 and threshold2 = 2.0 *. eps2 in
  let acc1 = ref 0.0 and kept1 = ref 0 and ndropped1 = ref 0 in
  let acc2 = ref 0.0 and kept2 = ref 0 and ndropped2 = ref 0 in
  for u = 0 to n - 1 do
    let mass1 = Array.unsafe_get masses1 u and mass2 = Array.unsafe_get masses2 u in
    let deg = Array.unsafe_get degrees u in
    let s1 = ref 0.0 and s2 = ref 0.0 in
    if deg = 0.0 then begin
      s1 := 0.0 +. mass1;
      s2 := 0.0 +. mass2
    end
    else begin
      let nbrs = Graph.neighbors g u in
      let len = Array.length nbrs in
      let j = ref 0 in
      (* four terms a pass while all four lie below u, then one at a
         time; the same above u *)
      while !j + 3 < len && Array.unsafe_get nbrs (!j + 3) < u do
        let j0 = !j in
        let a = Array.unsafe_get nbrs j0 and b = Array.unsafe_get nbrs (j0 + 1) in
        let c = Array.unsafe_get nbrs (j0 + 2) and d = Array.unsafe_get nbrs (j0 + 3) in
        s1 := add4 share1 !s1 a b c d;
        s2 := add4 share2 !s2 a b c d;
        j := j0 + 4
      done;
      while !j < len && Array.unsafe_get nbrs !j < u do
        let x = Array.unsafe_get nbrs !j in
        s1 := !s1 +. Array.unsafe_get share1 x;
        s2 := !s2 +. Array.unsafe_get share2 x;
        incr j
      done;
      let loops = float_of_int (Graph.self_loops g u) in
      s1 := !s1 +. ((mass1 /. 2.0) +. (Array.unsafe_get share1 u *. loops));
      s2 := !s2 +. ((mass2 /. 2.0) +. (Array.unsafe_get share2 u *. loops));
      while !j + 3 < len do
        let j0 = !j in
        let a = Array.unsafe_get nbrs j0 and b = Array.unsafe_get nbrs (j0 + 1) in
        let c = Array.unsafe_get nbrs (j0 + 2) and d = Array.unsafe_get nbrs (j0 + 3) in
        s1 := add4 share1 !s1 a b c d;
        s2 := add4 share2 !s2 a b c d;
        j := j0 + 4
      done;
      for k = !j to len - 1 do
        let x = Array.unsafe_get nbrs k in
        s1 := !s1 +. Array.unsafe_get share1 x;
        s2 := !s2 +. Array.unsafe_get share2 x
      done
    end;
    let x1 = !s1 and x2 = !s2 and d = 2.0 *. deg in
    if x1 >= threshold1 *. deg then begin
      Array.unsafe_set next1.support !kept1 u;
      Array.unsafe_set next1.masses !kept1 x1;
      Array.unsafe_set share1' u (x1 /. d);
      Array.unsafe_set mask1 u true;
      acc1 := !acc1 +. Float.abs (x1 -. mass1);
      incr kept1
    end
    else begin
      Array.unsafe_set dropped1 !ndropped1 u;
      incr ndropped1
    end;
    if x2 >= threshold2 *. deg then begin
      Array.unsafe_set next2.support !kept2 u;
      Array.unsafe_set next2.masses !kept2 x2;
      Array.unsafe_set share2' u (x2 /. d);
      Array.unsafe_set mask2 u true;
      acc2 := !acc2 +. Float.abs (x2 -. mass2);
      incr kept2
    end
    else begin
      Array.unsafe_set dropped2 !ndropped2 u;
      incr ndropped2
    end
  done;
  for i = 0 to !ndropped1 - 1 do
    acc1 := !acc1 +. Array.unsafe_get masses1 (Array.unsafe_get dropped1 i)
  done;
  for i = 0 to !ndropped2 - 1 do
    acc2 := !acc2 +. Array.unsafe_get masses2 (Array.unsafe_get dropped2 i)
  done;
  next1.len <- !kept1;
  next2.len <- !kept2;
  hand_over w1 degrees ~dropped:!ndropped1;
  hand_over w2 degrees ~dropped:!ndropped2;
  w1.cur <- next1;
  w1.spare <- prev1;
  w1.change.(0) <- !acc1;
  w2.cur <- next2;
  w2.spare <- prev2;
  w2.change.(0) <- !acc2

(* an ascending support of n entries ending at n−1 is all of 0..n−1 *)
let[@inline] covers_all w n = n > 0 && w.cur.len = n && w.cur.support.(n - 1) = n - 1

(* both walkers are checked before either moves, so a rejected call
   leaves both as they were *)
let advance_pair w1 w2 (view : View.t) ~eps1 ~eps2 ~mask1 ~mask2 =
  if w1 == w2 then invalid_arg "Walk.advance_pair: one walker twice";
  let n = Graph.num_vertices view.graph in
  check w1 n ~mask:mask1;
  check w2 n ~mask:mask2;
  if covers_all w1 n && covers_all w2 n then
    advance_full_pair w1 w2 view ~eps1 ~eps2 ~mask1 ~mask2 n
  else begin
    advance_sparse w1 view ~eps:eps1 ~mask:mask1 n;
    advance_sparse w2 view ~eps:eps2 ~mask:mask2 n
  end

let truncated_walk g ~src ~eps ~steps =
  let view = View.make g in
  let w = walker g and mask = Array.make (Graph.num_vertices g) false in
  start w (indicator src);
  Array.init (steps + 1) (fun t ->
      if t > 0 then ignore (advance w view ~eps ~mask : float);
      let p = current w in
      { support = Array.sub p.support 0 p.len; masses = Array.sub p.masses 0 p.len; len = p.len })
