module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Arena = Dex_congest.Arena
module Network = Dex_congest.Network
module Conformance = Dex_congest.Conformance
module Rng = Dex_util.Rng

type t = {
  cluster : int array;
  start : int array;
  epochs : int;
  rounds : int;
}

type state = {
  start_epoch : int;
  cluster : int; (* -1 while unclustered *)
  announced : bool;
}

let horizon ~n ~beta =
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "Clustering.run: beta in (0,1)";
  max 1 (int_of_float (Float.ceil (2.0 *. log (Float.max 2.0 (float_of_int n)) /. beta)))

let draw_starts rng ~n ~beta ~horizon =
  Array.init n (fun i ->
      let local = Rng.split rng i in
      let delta = Rng.exponential local ~rate:beta in
      max 1 (horizon - int_of_float (Float.floor delta)))

let protocol_of g starts =
  let init v = { start_epoch = starts.(v); cluster = -1; announced = false } in
  (* the smallest cluster id announced to the vertex being stepped; one
     closure for the whole run folds each inbox into it *)
  let best = ref max_int in
  let note _ c = if c < !best then best := c in
  (* a vertex acts in at most two rounds — its start epoch and the
     round after a neighbour announces — so round 1 books the start
     epoch as a timed wake and every other round is skipped unless a
     message arrives *)
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    let st =
      if st.cluster >= 0 then st
      else if st.start_epoch = round then { st with cluster = v }
      else if st.start_epoch > round then begin
        if round = 1 then Arena.Outbox.wake_at ob st.start_epoch;
        (* join the smallest-id cluster among announcing neighbors *)
        best := max_int;
        Arena.Inbox.iter1 ib note;
        if !best = max_int then st else { st with cluster = !best }
      end
      else st
    in
    if st.cluster >= 0 && not st.announced then begin
      let nbrs = Graph.neighbors g v in
      for i = 0 to Array.length nbrs - 1 do
        Arena.Outbox.send1 ob ~dst:(Vertex.local nbrs.(i)) st.cluster
      done;
      { st with announced = true }
    end
    else st
  in
  { Conformance.init; step }

let protocol g ~beta rng =
  let n = Graph.num_vertices g in
  protocol_of g (draw_starts rng ~n ~beta ~horizon:(horizon ~n ~beta))

let run net ~beta rng =
  let g = Network.graph net in
  let n = Graph.num_vertices g in
  let horizon = horizon ~n ~beta in
  let starts = draw_starts rng ~n ~beta ~horizon in
  let p = protocol_of g starts in
  let states =
    Network.run_active_rounds net ~label:"mpx-clustering" ~init:p.init ~step:p.step horizon
  in
  (* every vertex self-clusters at its start epoch at the latest, and
     start epochs are <= horizon, so no vertex can be left over *)
  let cluster = Array.map (fun st -> st.cluster) states in
  Array.iteri
    (fun v c ->
      if c < 0 then
        Dex_util.Invariant.failf ~where:"Clustering.run" "vertex %d unclustered" v)
    cluster;
  { cluster; start = starts; epochs = horizon; rounds = horizon }
