module Graph = Dex_graph.Graph
module Mixing = Dex_spectral.Mixing
module Invariant = Dex_util.Invariant

type t = {
  k : int;
  beta : float;
  tau_mix : int;
  preprocess_rounds : int;
  query_rounds : int;
  n : int;
  m : int;
}

(* the trade-off at depth [k] for a measured τ_mix *)
let instantiate g ~k ~tau_mix =
  let n = Graph.num_vertices g in
  let m = max 1 (Graph.num_edges g) in
  let tau_mix = max 1 tau_mix in
  let beta = float_of_int m ** (1.0 /. float_of_int k) in
  (* the polylog base *)
  let polylog = Float.max 1.0 (log (Float.max 2.0 (float_of_int n)) /. log 2.0) in
  let per_level = polylog ** float_of_int k in
  let pre_hier = float_of_int k *. beta *. per_level *. float_of_int tau_mix in
  let pre_portal =
    float_of_int k *. beta *. beta
    *. (log (Float.max 2.0 (float_of_int n)) /. log 2.0)
    *. float_of_int tau_mix
  in
  let query = per_level *. float_of_int tau_mix in
  let clamp x = if x >= float_of_int max_int then max_int else int_of_float (Float.ceil x) in
  { k;
    beta;
    tau_mix;
    preprocess_rounds = clamp (pre_hier +. pre_portal);
    query_rounds = clamp query;
    n;
    m }

let require_nonempty g =
  Invariant.require (Graph.num_vertices g > 0) ~where:"Hierarchy.build" "empty graph"

let build g rng ~k =
  Invariant.require (k >= 1) ~where:"Hierarchy.build" "k >= 1";
  require_nonempty g;
  instantiate g ~k ~tau_mix:(Mixing.mixing_times g rng ~runs:1).(0)

let total_rounds t ~queries =
  let total = float_of_int t.preprocess_rounds +. (float_of_int queries *. float_of_int t.query_rounds) in
  if total >= float_of_int max_int then max_int else int_of_float total

(* the k_max mixing times that k_max [build]s would measure, from one
   [Mixing.mixing_times] call that draws the same starts in the same
   order *)
let best_k_for g rng ~queries ~k_max =
  Invariant.require (k_max >= 1) ~where:"Hierarchy.best_k_for" "k_max >= 1";
  require_nonempty g;
  let taus = Mixing.mixing_times g rng ~runs:k_max in
  let best = ref (instantiate g ~k:1 ~tau_mix:taus.(0)) in
  for k = 2 to k_max do
    let cand = instantiate g ~k ~tau_mix:taus.(k - 1) in
    if total_rounds cand ~queries < total_rounds !best ~queries then best := cand
  done;
  !best
