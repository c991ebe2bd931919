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

let ceil_log2 x = int_of_float (Float.ceil (log (Float.max 2.0 x) /. log 2.0))

(* cost of one "random binary search" for a sweep prefix (Lemma 9):
   O(log n) sampling iterations, each a traversal of the spanning tree
   of P-star, whose depth at walk step t is at most 2t + 1. *)
let candidate_cost ~t ~support = (ceil_log2 (float_of_int (max 2 support)) + 1) * ((2 * t) + 1)

let cut_of_prefix sweep (pref : Sweep.prefix) ~t =
  let vertices = Sweep.take sweep pref.Sweep.len in
  Array.sort Int.compare vertices;
  { vertices;
    volume = pref.Sweep.volume;
    cut_edges = pref.Sweep.cut;
    conductance = pref.Sweep.conductance;
    found_t = t;
    found_j = pref.Sweep.len }

(* ‖next − prev‖₁ as a two-pointer merge of the ascending supports.
   The sum runs over [next] ascending, then over the entries of [prev]
   that left the support, ascending; the fixpoint step, and so the
   pinned outputs, depend on this order (DESIGN.md §12). *)
let l1_change ~prev ~next =
  let acc = ref 0.0 in
  let np = Walk.size prev in
  let j = ref 0 in
  for i = 0 to Walk.size next - 1 do
    let v = Walk.nth_vertex next i in
    while !j < np && Walk.nth_vertex prev !j < v do
      incr j
    done;
    let y = if !j < np && Walk.nth_vertex prev !j = v then Walk.nth_mass prev !j else 0.0 in
    acc := !acc +. Float.abs (Walk.nth_mass next i -. y)
  done;
  let i = ref 0 in
  let nn = Walk.size next in
  for j = 0 to np - 1 do
    let v = Walk.nth_vertex prev j in
    while !i < nn && Walk.nth_vertex next !i < v do
      incr i
    done;
    if not (!i < nn && Walk.nth_vertex next !i = v) then acc := !acc +. Walk.nth_mass prev j
  done;
  !acc

type conditions = {
  c1 : Sweep.prefix -> bool;
  c2 : Sweep.prefix -> float -> bool;
  (* prefix, rho at the reference index *)
  c3 : Sweep.prefix -> bool;
}

let run_generic (params : Params.t) g ~src ~b ~select =
  if b < 1 || b > params.ell then invalid_arg "Nibble: b out of range";
  let total_volume = Graph.total_volume g in
  let eps = Params.eps_b params b in
  (* per-run scratch: the walk's dense accumulator and a mask of every
     vertex any p̃_t has supported *)
  let ws = Walk.workspace g in
  let seen = Array.make (Graph.num_vertices g) false in
  let note_support p = Walk.iter (fun v _ -> seen.(v) <- true) p in
  let p = ref (Walk.indicator src) in
  note_support !p;
  let rounds = ref 0 in
  let candidates = ref 0 in
  let result = ref None in
  let t = ref 0 in
  (* conditions shared by the exact and approximate variants *)
  let vol_lower = 5.0 /. 7.0 *. (2.0 ** float_of_int (b - 1)) in
  let strict =
    { c1 = (fun pref -> pref.Sweep.conductance <= params.phi);
      c2 =
        (fun pref rho_j ->
          rho_j >= params.gamma /. float_of_int (max 1 pref.Sweep.volume));
      c3 =
        (fun pref ->
          float_of_int pref.Sweep.volume >= vol_lower
          && 5 * total_volume >= 6 * pref.Sweep.volume) }
  in
  let relaxed =
    { c1 = (fun pref -> pref.Sweep.conductance <= params.c1_relaxed_factor *. params.phi);
      c2 =
        (fun pref rho_prev ->
          rho_prev >= params.gamma /. float_of_int (max 1 pref.Sweep.volume));
      c3 =
        (fun pref ->
          float_of_int pref.Sweep.volume >= vol_lower
          && 11 * total_volume >= 12 * pref.Sweep.volume) }
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
    let next = Walk.step ~eps ws g !p in
    incr rounds;
    (* one diffusion step = one communication round *)
    (* fixpoint detection: once the truncated walk stops moving no
       later sweep can differ, so scanning further steps is pointless *)
    let l1_change = l1_change ~prev:!p ~next in
    if l1_change <= 1e-12 then converged := true;
    p := next;
    note_support !p;
    if Walk.size !p > 0 && Params.should_sweep params !t then begin
      let sweep = Sweep.scan g !p in
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
  if !result = None && !converged && Walk.size !p > 0 then begin
    let sweep = Sweep.scan g !p in
    match select ~strict ~relaxed ~sweep ~t:!t ~rounds ~candidates with
    | None -> ()
    | Some cut -> result := Some cut
  end;
  let participants = Dex_graph.Metrics.vertices_of_mask seen in
  { result = !result;
    src;
    b;
    steps_executed = !t;
    candidates_tested = !candidates;
    rounds = !rounds;
    participants }

let nibble params g ~src ~b =
  let select ~strict ~relaxed:_ ~sweep ~t ~rounds ~candidates =
    let prefixes = sweep.Sweep.prefixes in
    let n = Array.length prefixes in
    let best = ref None in
    for j = 0 to n - 1 do
      let pref = prefixes.(j) in
      incr candidates;
      rounds := !rounds + candidate_cost ~t ~support:n;
      if strict.c1 pref && strict.c2 pref pref.Sweep.last_rho && strict.c3 pref then
        match !best with
        | Some (b : cut) when b.conductance <= pref.Sweep.conductance -> ()
        | _ -> best := Some (cut_of_prefix sweep pref ~t)
    done;
    !best
  in
  run_generic params g ~src ~b ~select

(* the geometric index sequence (j_x) of Appendix A.2 *)
let j_sequence (params : Params.t) (sweep : Sweep.t) =
  let prefixes = sweep.Sweep.prefixes in
  let jmax = Array.length prefixes in
  if jmax = 0 then []
  else begin
    let vol j = prefixes.(j - 1).Sweep.volume in
    let seq = ref [ 1 ] in
    let cur = ref 1 in
    while !cur < jmax do
      let budget =
        (1.0 +. params.phi) *. float_of_int (vol !cur)
      in
      (* largest j with Vol(1..j) <= (1+φ)·Vol(1..j_{x-1}) *)
      let lo = ref !cur and hi = ref jmax in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if float_of_int (vol mid) <= budget then lo := mid else hi := mid - 1
      done;
      let next = max (!cur + 1) !lo in
      seq := next :: !seq;
      cur := next
    done;
    List.rev !seq
  end

let approximate params g ~src ~b =
  let select ~strict ~relaxed ~sweep ~t ~rounds ~candidates =
    let prefixes = sweep.Sweep.prefixes in
    let n = Array.length prefixes in
    let seq = j_sequence params sweep in
    let best = ref None in
    let prev = ref 0 in
    List.iter
      (fun jx ->
        incr candidates;
        rounds := !rounds + candidate_cost ~t ~support:n;
        let pref = prefixes.(jx - 1) in
        let dense = jx = 1 || jx = !prev + 1 in
        let ok =
          if dense then
            strict.c1 pref && strict.c2 pref pref.Sweep.last_rho && strict.c3 pref
          else begin
            let rho_prev = prefixes.(!prev - 1).Sweep.last_rho in
            relaxed.c1 pref && relaxed.c2 pref rho_prev && relaxed.c3 pref
          end
        in
        (if ok then
           match !best with
           | Some (b : cut) when b.conductance <= pref.Sweep.conductance -> ()
           | _ -> best := Some (cut_of_prefix sweep pref ~t));
        prev := jx)
      seq;
    !best
  in
  run_generic params g ~src ~b ~select

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
