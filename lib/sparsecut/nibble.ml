module Graph = Dex_graph.Graph
module Walk = Dex_spectral.Walk
module Sweep = Dex_spectral.Sweep

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

(* one run's scratch: the double-buffered walk, the sweep buffers and
   a mask of every vertex any p̃_t has supported (all false between
   runs) *)
type workspace = { walker : Walk.walker; sweep : Sweep.t; seen : bool array }

let workspace g =
  { walker = Walk.walker g;
    sweep = Sweep.workspace g;
    seen = Array.make (Graph.num_vertices g) false }

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
  && sweep.last_rho.(r - 1) >= c.gamma /. float_of_int (max 1 vol)
  && float_of_int vol >= c.vol_lower
  && c.ceil_num * c.total_volume >= c.ceil_den * vol

let get_workspace g = function Some ws -> ws | None -> workspace g

let run_generic ?workspace (params : Params.t) g ~src ~b ~select =
  if b < 1 || b > params.ell then invalid_arg "Nibble: b out of range";
  let { walker; sweep; seen } = get_workspace g workspace in
  (* checked before anything is marked: the mask must stay clean *)
  if Graph.num_vertices g > Array.length seen then
    invalid_arg "Nibble: workspace smaller than the graph";
  let total_volume = Graph.total_volume g in
  let eps = Params.eps_b params b in
  Walk.start walker (Walk.indicator src);
  seen.(src) <- true;
  let rounds = ref 0 in
  let candidates = ref 0 in
  let result = ref None in
  let t = ref 0 in
  (* conditions shared by the exact and approximate variants *)
  let vol_lower = 5.0 /. 7.0 *. (2.0 ** float_of_int (b - 1)) in
  let strict =
    { phi_max = params.phi; ceil_num = 5; ceil_den = 6; gamma = params.gamma; vol_lower;
      total_volume }
  in
  let relaxed =
    { strict with phi_max = params.c1_relaxed_factor *. params.phi; ceil_num = 11; ceil_den = 12 }
  in
  let converged = ref false in
  (* once a candidate passes we keep walking for [patience] more steps
     and return the best passing cut — the paper returns the first
     hit; the refinement only improves the (C.1)/(C.1-star) quality *)
  let patience = 192 in
  let deadline = ref params.t0 in
  let good_enough () =
    match !result with
    | Some c -> c.conductance <= params.phi
    | None -> false
  in
  while
    (not (good_enough ())) && (not !converged) && !t < min params.t0 !deadline
  do
    incr t;
    (* one diffusion step = one communication round; fixpoint
       detection: once the truncated walk stops moving no later sweep
       can differ, so scanning further steps is pointless *)
    if Walk.advance walker g ~eps ~mask:seen <= 1e-12 then converged := true;
    incr rounds;
    let p = Walk.current walker in
    if Walk.size p > 0 && Params.should_sweep params !t then begin
      Sweep.rescan sweep g p;
      match select ~strict ~relaxed ~sweep ~t:!t ~rounds ~candidates with
      | None -> ()
      | Some cut ->
        (match !result with
        | None ->
          result := Some cut;
          deadline := !t + patience
        | Some best -> if cut.conductance < best.conductance then result := Some cut)
    end
  done;
  (* on early convergence, one last sweep in case the stride skipped
     the fixpoint step *)
  let p = Walk.current walker in
  if !result = None && !converged && Walk.size p > 0 then begin
    Sweep.rescan sweep g p;
    match select ~strict ~relaxed ~sweep ~t:!t ~rounds ~candidates with
    | None -> ()
    | Some cut -> result := Some cut
  end;
  (* the participants ascending; clearing them leaves the mask all
     false for the next run *)
  let n = Graph.num_vertices g in
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
  { result = !result;
    src;
    b;
    steps_executed = !t;
    candidates_tested = !candidates;
    rounds = !rounds;
    participants }

(* the better of the best-so-far cut and π(1..j) *)
let keep_better best (sweep : Sweep.t) j ~t =
  match best with
  | Some (b : cut) when b.conductance <= sweep.conductance.(j - 1) -> best
  | _ -> Some (cut_of_prefix sweep j ~t)

let nibble params g ~src ~b =
  let select ~strict ~relaxed:_ ~(sweep : Sweep.t) ~t ~rounds ~candidates =
    let n = sweep.length in
    let cost = candidate_cost ~t ~support:n in
    let best = ref None in
    for j = 1 to n do
      incr candidates;
      rounds := !rounds + cost;
      if passes strict sweep ~j ~r:j then best := keep_better !best sweep j ~t
    done;
    !best
  in
  run_generic params g ~src ~b ~select

(* the index after [cur] in the geometric sequence (j_x) of Appendix
   A.2: the largest j with Vol(1..j) ≤ (1+φ)·Vol(1..cur), at least
   cur + 1 *)
let next_j (params : Params.t) (sweep : Sweep.t) cur =
  let budget = (1.0 +. params.phi) *. float_of_int sweep.volume.(cur - 1) in
  let lo = ref cur and hi = ref sweep.length in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if float_of_int sweep.volume.(mid - 1) <= budget then lo := mid else hi := mid - 1
  done;
  max (cur + 1) !lo

let approximate ?workspace params g ~src ~b =
  let select ~strict ~relaxed ~(sweep : Sweep.t) ~t ~rounds ~candidates =
    let n = sweep.length in
    let cost = candidate_cost ~t ~support:n in
    let best = ref None in
    (* j_1 = 1, then [next_j] until the sequence reaches n *)
    let prev = ref 0 and j = ref 1 in
    while !j <= n do
      incr candidates;
      rounds := !rounds + cost;
      let dense = !j = 1 || !j = !prev + 1 in
      let ok =
        if dense then passes strict sweep ~j:!j ~r:!j else passes relaxed sweep ~j:!j ~r:!prev
      in
      if ok then best := keep_better !best sweep !j ~t;
      prev := !j;
      j := if !j < n then next_j params sweep !j else n + 1
    done;
    !best
  in
  run_generic ?workspace params g ~src ~b ~select

(* each edge of P-star once, from its participating endpoint (the
   smaller one when both participate); the sorted adjacency makes
   parallel copies adjacent, so skipping repeats drops them *)
let iter_participating_edges g outcome f =
  let mask = Array.make (Graph.num_vertices g) false in
  Array.iter (fun v -> mask.(v) <- true) outcome.participants;
  Array.iter
    (fun v ->
      let a = Graph.neighbors g v in
      for i = 0 to Array.length a - 1 do
        let u = a.(i) in
        if (i = 0 || a.(i - 1) <> u) && (u > v || not mask.(u)) then
          if u > v then f v u else f u v
      done)
    outcome.participants

let participating_edges g outcome =
  let acc = ref [] in
  iter_participating_edges g outcome (fun u v -> acc := (u, v) :: !acc);
  !acc
