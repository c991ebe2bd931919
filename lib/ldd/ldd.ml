module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Network = Dex_congest.Network
module Rounds = Dex_congest.Rounds

type t = {
  parts : int array list;
  cut_edges : (int * int) list;
  rounds : int;
  messages : int;
  beta : float;
}

let run net ~beta rng =
  let g = Network.graph net in
  let ledger = Network.rounds net in
  let before = Rounds.total ledger in
  let msgs_before = Network.messages_sent net in
  let refine = Refine.run g ~beta in
  Network.charge net ~label:"ldd-refine" refine.Refine.rounds;
  let clustering = Clustering.run net ~beta rng in
  (* keep inter-cluster edges whose endpoints are both deep in V_D *)
  let cut = ref [] in
  Graph.iter_edges g (fun u v ->
      if
        u <> v
        && clustering.Clustering.cluster.(u) <> clustering.Clustering.cluster.(v)
        && ((not refine.Refine.in_vd.(u)) || not refine.Refine.in_vd.(v))
      then cut := (u, v) :: !cut);
  let remaining = Graph.remove_edges g !cut in
  let parts = Metrics.connected_components remaining in
  let after = Rounds.total ledger in
  { parts;
    cut_edges = !cut;
    rounds = after - before;
    messages = Network.messages_sent net - msgs_before;
    beta }

let run_graph ?ledger ?vertex_map g ~beta rng =
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  let net = Network.create ?vertex_map g ledger in
  run net ~beta rng

let max_part_diameter g t =
  List.fold_left (fun acc part -> max acc (Metrics.subset_diameter g part)) 0 t.parts

let diameter_bound ~n ~beta =
  (* Lemma 13: diameter ≤ 2(d₁+1) + d₂ with d₁ = 4·ln n/β the cluster
     diameter bound and d₂ ≤ 20·a·b the invariant-H bound on V_D
     components (a = b = ⌈5·ln n/β⌉, Refine's constants) — Θ(log²n/β²). *)
  let lf = log (Float.max 2.0 (float_of_int n)) in
  let a = Float.ceil (5.0 *. lf /. beta) in
  let b = Float.ceil (5.0 *. lf /. beta) in
  let d1 = Float.ceil (4.0 *. lf /. beta) in
  int_of_float ((2.0 *. (d1 +. 1.0)) +. (20.0 *. a *. b))

let failure_probability ~m ~beta ~k_ln =
  if m < 1 then invalid_arg "Ldd.failure_probability: m >= 1";
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "Ldd.failure_probability: beta in (0,1)";
  if k_ln <= 0.0 then invalid_arg "Ldd.failure_probability: k_ln > 0";
  let mu = 2.0 *. beta *. float_of_int m in
  let d = Float.max 1.0 (beta *. float_of_int m /. k_ln) in
  Float.min 1.0 (d *. exp (-.(0.25 *. mu) /. (3.0 *. d)))
