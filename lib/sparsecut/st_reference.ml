module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics

type t = {
  cut : int array;
  conductance : float;
  balance : float;
  rounds : int;
  nibbles : int;
}

let max_nibbles = 64

let run params g rng =
  let n = Graph.num_vertices g in
  let total_volume = Graph.total_volume g in
  if total_volume = 0 then
    { cut = [||]; conductance = Float.infinity; balance = 0.0; rounds = 0; nibbles = 0 }
  else begin
    let threshold = 47 * total_volume / 48 in
    let in_w = Array.make n true in
    let w_volume = ref total_volume in
    let removed = ref [] in
    let rounds = ref 0 in
    let nibbles = ref 0 in
    let idle = ref 0 in
    let continue = ref true in
    while !continue && !nibbles < max_nibbles do
      incr nibbles;
      let w = Metrics.vertices_of_mask in_w in
      if Array.length w = 0 then continue := false
      else begin
        let gw, mapping = Graph.saturated_subgraph g w in
        let outcome = Parallel_nibble.random_nibble params gw rng in
        (* serialized: every nibble's rounds accumulate *)
        rounds := !rounds + outcome.Nibble.rounds;
        match outcome.Nibble.result with
        | None ->
          incr idle;
          if !idle >= params.Params.idle_limit then continue := false
        | Some found ->
          idle := 0;
          (* peel the smaller side of the cut, as in Partition *)
          let vertices =
            if 2 * found.Nibble.volume > Graph.total_volume gw then begin
              let outside = Array.make (Graph.num_vertices gw) true in
              Array.iter (fun v -> outside.(v) <- false) found.Nibble.vertices;
              Metrics.vertices_of_mask outside
            end
            else found.Nibble.vertices
          in
          Array.iter
            (fun sub_v ->
              let v = mapping.(sub_v) in
              if in_w.(v) then begin
                in_w.(v) <- false;
                w_volume := !w_volume - Graph.degree g v;
                removed := v :: !removed
              end)
            vertices;
          if !w_volume <= threshold then continue := false
      end
    done;
    let cut = Array.of_list !removed in
    Array.sort Int.compare cut;
    let conductance =
      if Array.length cut = 0 then Float.infinity else Metrics.conductance g cut
    in
    let balance = if Array.length cut = 0 then 0.0 else Metrics.balance g cut in
    { cut; conductance; balance; rounds = !rounds; nibbles = !nibbles }
  end
