module Graph = Dex_graph.Graph
module Walk = Dex_spectral.Walk
module Sweep = Dex_spectral.Sweep
module View = Dex_spectral.View
module Bits = Dex_util.Bits

type cut = {
  vertices : int array;
  volume : int;
  cut_edges : int;
  conductance : float;
  found_t : int;
  found_j : int;
}

type outcome = {
  result : cut option;
  src : int;
  b : int;
  steps_executed : int;
  candidates_tested : int;
  rounds : int;
  participants : int array;
}

(* one copy's walk: the double-buffered walker, a mask of every vertex
   any of its p̃_t has supported (all false between runs) and its sweep,
   which each rescan sorts from the order of the copy's previous
   checked step *)
type lane = { walker : Walk.walker; seen : bool array; sweep : Sweep.t }

(* one lane per copy that runs at a time *)
type workspace = lane array

let workspace ?(copies = 1) g =
  if copies < 1 then invalid_arg "Nibble.workspace: copies < 1";
  let n = Graph.num_vertices g in
  Array.init copies (fun _ ->
      { walker = Walk.walker g; seen = Array.make n false; sweep = Sweep.workspace g })

(* cost of one "random binary search" for a sweep prefix (Lemma 9):
   O(log n) sampling iterations, each a traversal of the spanning tree
   of P-star, whose depth at walk step t is at most 2t + 1. *)
let candidate_cost ~t ~support = (Params.ceil_log2 support + 1) * ((2 * t) + 1)

(* copies π(1..j) out of the sweep, whose buffers the next rescan
   overwrites *)
let cut_of_prefix (sweep : Sweep.t) j ~t =
  let vertices = Sweep.take sweep j in
  Array.sort Int.compare vertices;
  { vertices;
    volume = sweep.volume.(j - 1);
    cut_edges = sweep.cut.(j - 1);
    conductance = sweep.conductance.(j - 1);
    found_t = t;
    found_j = j }

(* the thresholds of one variant of (C.1)–(C.3): Φ ≤ [phi_max] and
   [ceil_num]·Vol(V) ≥ [ceil_den]·Vol *)
type conditions = {
  phi_max : float;
  ceil_num : int;
  ceil_den : int;
  gamma : float;
  vol_lower : float;
  total_volume : int;
}

(* whether π(1..j) passes [c], with (C.2) read at the ρ of π(r) *)
let passes c (sweep : Sweep.t) ~j ~r =
  let vol = sweep.volume.(j - 1) in
  sweep.conductance.(j - 1) <= c.phi_max
  && sweep.last_rho.(r - 1) >= c.gamma /. float_of_int (Int.max 1 vol)
  && float_of_int vol >= c.vol_lower
  && c.ceil_num * c.total_volume >= c.ceil_den * vol

(* one Nibble run in progress: its lane, its stop rules and its
   counters *)
type copy = {
  params : Params.t;
  view : View.t;
  lane : lane;
  src : int;
  b : int;
  eps : float;
  strict : conditions;
  relaxed : conditions;
  mutable t : int;
  mutable rounds : int;
  mutable candidates : int;
  mutable result : cut option;
  mutable deadline : int;
  mutable converged : bool;
}

(* once a candidate passes we keep walking for [patience] more steps
   and return the best passing cut — the paper returns the first hit;
   the refinement only improves the (C.1)/(C.1-star) quality *)
let patience = 192

let start (params : Params.t) (view : View.t) lane ~src ~b =
  let total_volume = Graph.total_volume view.graph in
  Walk.start lane.walker (Walk.indicator src);
  lane.seen.(src) <- true;
  (* (C.1)–(C.3) on sequence-dense indices, the starred ones elsewhere *)
  let vol_lower = 5.0 /. 7.0 *. (2.0 ** float_of_int (b - 1)) in
  let strict =
    { phi_max = params.phi; ceil_num = 5; ceil_den = 6; gamma = params.gamma; vol_lower;
      total_volume }
  in
  let relaxed =
    { strict with phi_max = params.c1_relaxed_factor *. params.phi; ceil_num = 11; ceil_den = 12 }
  in
  { params; view; lane; src; b; eps = Params.eps_b params b; strict; relaxed;
    t = 0; rounds = 0; candidates = 0; result = None; deadline = params.t0; converged = false }

(* the better of the best-so-far cut and π(1..j) *)
let keep_better best (sweep : Sweep.t) j ~t =
  match best with
  | Some (b : cut) when b.conductance <= sweep.conductance.(j - 1) -> best
  | _ -> Some (cut_of_prefix sweep j ~t)

(* ApproximateNibble's candidate search over the sweep (Appendix A.2),
   charged to [rounds] and [candidates]: the j-sequence, each index
   tested against (C.1)–(C.3) where the sequence is dense and against
   the starred conditions elsewhere *)
let approximate_select c =
  let sweep = c.lane.sweep and t = c.t in
  let n = sweep.length in
  let cost = candidate_cost ~t ~support:n in
  let best = ref None in
  (* j_1 = 1, then [Params.next_j] until the sequence reaches n *)
  let prev = ref 0 and j = ref 1 in
  while !j <= n do
    c.candidates <- c.candidates + 1;
    c.rounds <- c.rounds + cost;
    let dense = !j = 1 || !j = !prev + 1 in
    let ok =
      if dense then passes c.strict sweep ~j:!j ~r:!j else passes c.relaxed sweep ~j:!j ~r:!prev
    in
    if ok then best := keep_better !best sweep !j ~t;
    prev := !j;
    j := if !j < n then Params.next_j c.params sweep.volume ~length:n !j else n + 1
  done;
  !best

let live c =
  (match c.result with Some cut -> not (cut.conductance <= c.params.phi) | None -> true)
  && (not c.converged)
  && c.t < Int.min c.params.t0 c.deadline

(* the rest of a step once the walker has advanced: one diffusion step
   is one communication round; fixpoint detection: once the truncated
   walk stops moving no later sweep can differ, so scanning further
   steps is pointless *)
let checkpoint c =
  c.t <- c.t + 1;
  if Walk.change c.lane.walker <= 1e-12 then c.converged <- true;
  c.rounds <- c.rounds + 1;
  let p = Walk.current c.lane.walker in
  if Walk.size p > 0 && Params.should_sweep c.params c.t then begin
    Sweep.rescan c.lane.sweep c.view p;
    match approximate_select c with
    | None -> ()
    | Some cut ->
      (match c.result with
      | None ->
        c.result <- Some cut;
        c.deadline <- c.t + patience
      | Some best -> if cut.conductance < best.conductance then c.result <- Some cut)
  end

let step c =
  ignore (Walk.advance c.lane.walker c.view ~eps:c.eps ~mask:c.lane.seen : float);
  checkpoint c

let step_pair c d =
  Walk.advance_pair c.lane.walker d.lane.walker c.view ~eps1:c.eps ~eps2:d.eps ~mask1:c.lane.seen
    ~mask2:d.lane.seen;
  checkpoint c;
  checkpoint d

let finish c =
  (* on early convergence, one last sweep in case the stride skipped
     the fixpoint step *)
  let p = Walk.current c.lane.walker in
  if Option.is_none c.result && c.converged && Walk.size p > 0 then begin
    Sweep.rescan c.lane.sweep c.view p;
    match approximate_select c with
    | None -> ()
    | Some cut -> c.result <- Some cut
  end;
  (* the participants ascending; clearing them leaves the mask all
     false for the next run *)
  let seen = c.lane.seen in
  let n = Graph.num_vertices c.view.graph in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if seen.(v) then incr count
  done;
  let participants = Array.make !count 0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if seen.(v) then begin
      participants.(!k) <- v;
      incr k;
      seen.(v) <- false
    end
  done;
  { result = c.result;
    src = c.src;
    b = c.b;
    steps_executed = c.t;
    candidates_tested = c.candidates;
    rounds = c.rounds;
    participants }

(* advances every live copy one step, pairing copies 0-1, 2-3, …: a
   pair whose walks both cover every vertex shares one adjacency pass;
   the copy of a pair that stopped, and an odd one out, step alone *)
let step_all copies =
  let k = Array.length copies in
  let i = ref 0 in
  while !i < k do
    let c = copies.(!i) in
    (if !i + 1 < k then begin
       let d = copies.(!i + 1) in
       match (live c, live d) with
       | true, true -> step_pair c d
       | true, false -> step c
       | false, true -> step d
       | false, false -> ()
     end
     else if live c then step c);
    i := !i + 2
  done

(* The one Nibble loop: the copies of [draws], a (src, b) each, run in
   lockstep, as many at a time as [ws] has lanes, and their outcomes
   come back in draw order. Every draw is checked before any mask is
   marked, so a rejected call leaves [ws] clean. The lanes share
   [view]. *)
let approximate_copies ws (params : Params.t) (view : View.t) draws =
  Array.iter
    (fun (_, b) -> if b < 1 || b > params.ell then invalid_arg "Nibble: b out of range")
    draws;
  if Graph.num_vertices view.graph > Array.length ws.(0).seen then
    invalid_arg "Nibble: workspace smaller than the graph";
  let lanes = Array.length ws in
  let total = Array.length draws in
  let outcomes = ref [] in
  let first = ref 0 in
  while !first < total do
    let copies =
      Array.init (Int.min lanes (total - !first)) (fun i ->
          let src, b = draws.(!first + i) in
          start params view ws.(i) ~src ~b)
    in
    while Array.exists live copies do
      step_all copies
    done;
    Array.iter (fun c -> outcomes := finish c :: !outcomes) copies;
    first := !first + Array.length copies
  done;
  List.rev !outcomes

let only = function [ o ] -> o | _ -> invalid_arg "Nibble: one draw, one outcome"

let approximate ?workspace:ws params g ~src ~b =
  let ws = match ws with Some ws -> ws | None -> workspace g in
  only (approximate_copies ws params (View.make g) [| (src, b) |])

(* copies per mask word: bits 0..61, so a mask word is never negative *)
let copies_per_word = 62

let mask_words k = (k + copies_per_word - 1) / copies_per_word

(* copy c at bit c mod 62 of word c / 62 of a vertex's words *)
type masks = int array

let masks ~copies g = Array.make (Graph.num_vertices g * mask_words copies) 0

(* the copies that share edge (u, v) are the bits of [mask u lor
   mask v]; each edge is read from its smaller endpoint, and none can
   exceed k *)
let max_overlap masks g outcomes =
  let n = Graph.num_vertices g and k = List.length outcomes in
  let words = mask_words k in
  let masks = if n * words <= Array.length masks then masks else Array.make (n * words) 0 in
  Array.fill masks 0 (n * words) 0;
  List.iteri
    (fun c o ->
      let word = c / copies_per_word and bit = 1 lsl (c mod copies_per_word) in
      Array.iter (fun v -> masks.((v * words) + word) <- masks.((v * words) + word) lor bit)
        o.participants)
    outcomes;
  let best = ref 0 and v = ref 0 in
  while !best < k && !v < n do
    let a = Graph.neighbors g !v and mv = !v * words in
    let i = ref (Array.length a - 1) in
    while !best < k && !i >= 0 && a.(!i) > !v do
      let mu = a.(!i) * words and c = ref 0 in
      for w = 0 to words - 1 do
        c := !c + Bits.popcount (masks.(mv + w) lor masks.(mu + w))
      done;
      if !c > !best then best := !c;
      decr i
    done;
    incr v
  done;
  !best
