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

let build g rng ~k =
  Invariant.require (k >= 1) ~where:"Hierarchy.build" "k >= 1";
  let n = Graph.num_vertices g in
  Invariant.require (n > 0) ~where:"Hierarchy.build" "empty graph";
  let m = max 1 (Graph.num_edges g) in
  let tau_mix = max 1 (Mixing.mixing_time g rng) in
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

let total_rounds t ~queries =
  let total = float_of_int t.preprocess_rounds +. (float_of_int queries *. float_of_int t.query_rounds) in
  if total >= float_of_int max_int then max_int else int_of_float total

let best_k_for g rng ~queries ~k_max =
  Invariant.require (k_max >= 1) ~where:"Hierarchy.best_k_for" "k_max >= 1";
  let candidates = List.init k_max (fun i -> build g rng ~k:(i + 1)) in
  match candidates with
  | [] ->
    (* unreachable: k_max >= 1 gives a non-empty candidate list *)
    Invariant.fail ~where:"Hierarchy.best_k_for" "no candidates"
  | first :: rest ->
    List.fold_left
      (fun best cand ->
        if total_rounds cand ~queries < total_rounds best ~queries then cand else best)
      first rest
