module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Baselines = Dex_sparsecut.Baselines

type t = {
  parts : int array list;
  edge_fraction_removed : float;
  recursion_depth : int;
  cut_calls : int;
}

let run ~phi g rng =
  Dex_util.Invariant.require (phi > 0.0) ~where:"Recursive_baseline.run" "phi > 0";
  let m = max 1 (Graph.num_edges g) in
  let removed = ref 0 in
  let cut_calls = ref 0 in
  let parts = ref [] in
  let max_depth = ref 0 in
  (* worklist of (component, depth); components processed level-free
     but depth tracked per branch *)
  let work = Queue.create () in
  List.iter
    (fun comp -> Queue.add (comp, 1) work)
    (Metrics.connected_components g);
  while not (Queue.is_empty work) do
    let members, depth = Queue.take work in
    if depth > !max_depth then max_depth := depth;
    if Array.length members <= 1 then parts := members :: !parts
    else begin
      let sub, mapping = Graph.saturated_subgraph g members in
      incr cut_calls;
      match Baselines.spectral sub rng with
      | Some c when c.Baselines.conductance <= phi ->
        removed :=
          !removed + Metrics.cut_size sub c.Baselines.vertices;
        let side = Array.map (fun v -> mapping.(v)) c.Baselines.vertices in
        let rest = Array.map (fun v -> mapping.(v)) (Metrics.complement sub c.Baselines.vertices) in
        Queue.add (side, depth + 1) work;
        Queue.add (rest, depth + 1) work
      | Some _ | None -> parts := members :: !parts
    end
  done;
  { parts = !parts;
    edge_fraction_removed = float_of_int !removed /. float_of_int m;
    recursion_depth = !max_depth;
    cut_calls = !cut_calls }
