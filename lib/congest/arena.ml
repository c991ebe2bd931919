(* CSR slot-addressed message arena: the zero-allocation data plane of
   the CONGEST kernel (DESIGN.md §11).

   Every directed edge (v, adj(v).(i)) owns one preallocated message
   slot at the dense CSR index off(v) + i, on two flat planes:

   - the staging plane (src-side slots): a vertex's sends land in its
     own slots during the step phase;
   - the inbox plane (dst-side slots): the delivery phase copies each
     staged message through the [mirror] table into the receiver's
     slot for the next round. Keeping the planes apart is what lets a
     round step every vertex against the previous round's inboxes.

   A message is one word (PAPER.md §2: one O(log n)-bit message per
   incident edge), so each slot of a plane holds one int.

   Occupancy is stamp-based rather than bitmap-cleared: each slot
   carries the tick at which it was last filled, the tick is a
   per-arena monotonic counter that never resets, and a slot is live
   exactly when its stamp matches the current tick — so rounds (and
   whole protocol runs reusing one network) never pay an O(m) clear.
   Together the two planes are the double buffer: steady-state
   execution allocates nothing.

   Timed wake-ups (DESIGN.md §11.5) live in a calendar: a binary
   min-heap of pending (round, vertex) pairs on two flat int arrays.
   A round that delivers nothing and wakes nobody is never stepped —
   [finish_round] jumps straight to the calendar's next round. *)

module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex

type violation =
  | Not_a_neighbor of { vertex : int; dst : int }
  | Duplicate_edge of { vertex : int; dst : int }

exception Congestion_violation of { round : int; violation : violation }

let describe = function
  | Not_a_neighbor { vertex; dst } -> Printf.sprintf "vertex %d: %d is not a neighbor" vertex dst
  | Duplicate_edge { vertex; dst } ->
    Printf.sprintf "vertex %d: two messages on edge to %d in one round" vertex dst

type t = {
  n : int;
  off : int array; (* n+1 CSR offsets *)
  nbr : int array; (* slot -> other endpoint of its directed edge *)
  mirror : int array; (* src-side slot -> matching dst-side slot *)
  to_orig : int -> int; (* violation messages in caller coordinates *)
  (* inbox plane (dst-side slots) *)
  data : int array; (* one message word per slot *)
  cnt : Bytes.t; (* deliveries into the slot this round: 0/1/2 *)
  stamp : int array; (* tick at which the slot was filled *)
  (* staging plane (src-side slots) *)
  out_data : int array;
  enq : int array; (* tick at which the slot was staged; doubles as
                      the duplicate-send detector *)
  sent : int array; (* per-vertex tick of its last staged message *)
  (* active set *)
  wake : int array; (* per-vertex self-wake stamp *)
  listed : int array; (* per-vertex already-on-next-worklist stamp *)
  mutable work : int array; (* this round's active vertices, sorted *)
  mutable work_n : int;
  mutable next : int array; (* next round's worklist, being built *)
  mutable next_n : int;
  mutable tick : int; (* monotonic round counter; never reset *)
  mutable round : int; (* protocol round of the current worklist *)
  (* calendar: min-heap of timed wakes keyed by (round, vertex) *)
  mutable cal_round : int array;
  mutable cal_vertex : int array;
  mutable cal_n : int;
}

let create ?(to_orig = fun v -> v) g =
  let n = Graph.num_vertices g in
  let off = Graph.csr_offsets g in
  let m2 = off.(n) in
  let nbr = Array.make m2 0 in
  for v = 0 to n - 1 do
    let a = Graph.neighbors g v in
    Array.blit a 0 nbr off.(v) (Array.length a)
  done;
  (* the mirror of a slot on (v, u) is u's leftmost slot on (u, v).
     With v ascending, [next.(u)] moves one slot of u on per slot of a
     smaller vertex to u, so at v's first slot to u it is u's first
     slot to v (the adjacency is sorted); v's parallel slots to u
     take that one too *)
  let mirror = Array.make m2 0 in
  let next = Array.sub off 0 n in
  for v = 0 to n - 1 do
    for s = off.(v) to off.(v + 1) - 1 do
      let u = nbr.(s) in
      mirror.(s) <- (if s > off.(v) && nbr.(s - 1) = u then mirror.(s - 1) else next.(u));
      next.(u) <- next.(u) + 1
    done
  done;
  { n;
    off;
    nbr;
    mirror;
    to_orig;
    data = Array.make m2 0;
    cnt = Bytes.make m2 '\000';
    stamp = Array.make m2 0;
    out_data = Array.make m2 0;
    enq = Array.make m2 0;
    sent = Array.make n 0;
    wake = Array.make n 0;
    listed = Array.make n 0;
    work = Array.make n 0;
    work_n = 0;
    next = Array.make n 0;
    next_n = 0;
    tick = 1;
    round = 0;
    cal_round = Array.make (Int.max n 1) 0;
    cal_vertex = Array.make (Int.max n 1) 0;
    cal_n = 0 }

let slot_count a = Array.length a.nbr
let mirror a s = a.mirror.(s)
let round a = a.round

(* leftmost slot of the directed edge (v, u), or -1 *)
let rank_slot a v u =
  let lo = ref a.off.(v) and hi = ref a.off.(v + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.nbr.(mid) < u then lo := mid + 1 else hi := mid
  done;
  if !lo < a.off.(v + 1) && a.nbr.(!lo) = u then !lo else -1

(* ---------------- calendar ---------------- *)

(* (round, vertex) lexicographic order on heap positions i and j *)
let cal_less a i j =
  let ri = a.cal_round.(i) and rj = a.cal_round.(j) in
  ri < rj || (ri = rj && a.cal_vertex.(i) < a.cal_vertex.(j))

let cal_swap a i j =
  let r = a.cal_round.(i) and v = a.cal_vertex.(i) in
  a.cal_round.(i) <- a.cal_round.(j);
  a.cal_vertex.(i) <- a.cal_vertex.(j);
  a.cal_round.(j) <- r;
  a.cal_vertex.(j) <- v

let cal_push a r v =
  if a.cal_n = Array.length a.cal_round then begin
    let grow arr =
      let bigger = Array.make (2 * a.cal_n) 0 in
      Array.blit arr 0 bigger 0 a.cal_n;
      bigger
    in
    a.cal_round <- grow a.cal_round;
    a.cal_vertex <- grow a.cal_vertex
  end;
  a.cal_round.(a.cal_n) <- r;
  a.cal_vertex.(a.cal_n) <- v;
  let i = ref a.cal_n in
  a.cal_n <- a.cal_n + 1;
  while !i > 0 && cal_less a !i ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    cal_swap a !i parent;
    i := parent
  done

let cal_pop a =
  a.cal_n <- a.cal_n - 1;
  cal_swap a 0 a.cal_n;
  let i = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    let smallest = if l < a.cal_n && cal_less a l !i then l else !i in
    let smallest =
      if l + 1 < a.cal_n && cal_less a (l + 1) smallest then l + 1 else smallest
    in
    if smallest = !i then settled := true
    else begin
      cal_swap a !i smallest;
      i := smallest
    end
  done

(* ---------------- cursors ---------------- *)

(* [order] holds the vertex's slots in a random order when the cursor
   was aimed with a shuffle; the canonical cursor walks the slot range *)
type inbox = { ia : t; mutable iv : int; mutable order : int array; mutable shuffled : bool }
type outbox = { oa : t; mutable ov : int }

let make_inbox a = { ia = a; iv = 0; order = [||]; shuffled = false }

let make_outbox a = { oa = a; ov = 0 }

let set_inbox ?shuffle ib v =
  ib.iv <- v;
  match shuffle with
  | None -> ib.shuffled <- false
  | Some rng ->
    let lo = ib.ia.off.(v) and len = ib.ia.off.(v + 1) - ib.ia.off.(v) in
    if Array.length ib.order < len then ib.order <- Array.make ib.ia.n 0;
    for k = 0 to len - 1 do
      ib.order.(k) <- lo + k
    done;
    Dex_util.Rng.shuffle ~len rng ib.order;
    ib.shuffled <- true

let set_outbox ob v = ob.ov <- v

module Inbox = struct
  (* the deliveries in slot [s]: once, or twice when duplicated *)
  let[@inline] visit1 a s f =
    if a.stamp.(s) = a.tick then begin
      let src = a.nbr.(s) in
      let w = a.data.(s) in
      f src w;
      if Char.code (Bytes.unsafe_get a.cnt s) > 1 then f src w
    end

  let iter1 ib f =
    let a = ib.ia in
    if ib.shuffled then
      for k = 0 to a.off.(ib.iv + 1) - a.off.(ib.iv) - 1 do
        visit1 a ib.order.(k) f
      done
    else
      for s = a.off.(ib.iv) to a.off.(ib.iv + 1) - 1 do
        visit1 a s f
      done
end

module Outbox = struct
  (* raise [make vertex dst] in original ids; an out-of-range [u] has
     no original id and is reported as given *)
  let fail ob u make =
    let a = ob.oa in
    let dst = if u >= 0 && u < a.n then a.to_orig u else u in
    raise (Congestion_violation { round = a.round; violation = make (a.to_orig ob.ov) dst })

  let send1 ob ~dst w =
    let a = ob.oa in
    let v = ob.ov and u = Vertex.local_int dst in
    let s = if u = v then -1 else rank_slot a v u in
    if s < 0 then fail ob u (fun vertex dst -> Not_a_neighbor { vertex; dst });
    if a.enq.(s) = a.tick then fail ob u (fun vertex dst -> Duplicate_edge { vertex; dst });
    a.enq.(s) <- a.tick;
    a.sent.(v) <- a.tick;
    a.out_data.(s) <- w

  let wake ob =
    let a = ob.oa in
    a.wake.(ob.ov) <- a.tick

  let wake_at ob r =
    let a = ob.oa in
    if r <= a.round then
      Dex_util.Invariant.failf ~where:"Arena.Outbox.wake_at"
        "vertex %d: wake round %d is not after the current round %d" (a.to_orig ob.ov) r
        a.round;
    cal_push a r ob.ov
end

(* ---------------- active set ---------------- *)

let begin_run a =
  (* a fresh tick retires whatever a previous (possibly aborted) run
     left stamped: staleness is impossible because ticks are monotone *)
  a.tick <- a.tick + 1;
  a.round <- 1;
  a.cal_n <- 0;
  for v = 0 to a.n - 1 do
    a.work.(v) <- v
  done;
  a.work_n <- a.n;
  a.next_n <- 0

let active_count a = a.work_n
let active_get a i = a.work.(i)

let push_active a v =
  if a.listed.(v) <> a.tick then begin
    a.listed.(v) <- a.tick;
    a.next.(a.next_n) <- v;
    a.next_n <- a.next_n + 1
  end

(* most active vertices were woken by a delivery and staged nothing:
   only one whose [sent] stamp is this tick has slots to scan *)
let deliver_staged a src verdict =
  let t = a.tick in
  if a.sent.(src) = t then
    for s = a.off.(src) to a.off.(src + 1) - 1 do
      if a.enq.(s) = t then begin
        let dst = a.nbr.(s) in
        match verdict src dst s with
        | `Drop -> ()
        | (`Deliver | `Duplicate) as v ->
          let d = a.mirror.(s) in
          a.data.(d) <- a.out_data.(s);
          a.stamp.(d) <- t + 1;
          Bytes.unsafe_set a.cnt d
            (match v with `Duplicate -> '\002' | `Deliver -> '\001');
          push_active a dst
      end
    done;
  if a.wake.(src) = t then push_active a src

(* move every calendar entry due by round [r] onto the next worklist *)
let drain_due a r =
  while a.cal_n > 0 && a.cal_round.(0) <= r do
    push_active a a.cal_vertex.(0);
    cal_pop a
  done

let finish_round a =
  let next_round = a.round + 1 in
  drain_due a next_round;
  (* nothing delivered and nobody woke: the rounds up to the next
     calendar entry would step nobody, so skip them *)
  let next_round =
    if a.next_n = 0 && a.cal_n > 0 then begin
      let r = a.cal_round.(0) in
      drain_due a r;
      r
    end
    else next_round
  in
  a.round <- next_round;
  let listed = a.tick in
  a.tick <- a.tick + 1;
  let w = a.work in
  a.work <- a.next;
  a.next <- w;
  a.work_n <- a.next_n;
  a.next_n <- 0;
  (* deliveries appended the next worklist in (src, slot) order, not
     vertex order; steps run in ascending vertex order *)
  Dex_util.Stamped.sort ~stamp:a.listed ~epoch:listed ~n:a.n a.work a.work_n
