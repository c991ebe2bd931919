module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics

let enumerate g f =
  let n = Graph.num_vertices g in
  if n > 24 then invalid_arg "Exact: graph too large for subset enumeration";
  if n >= 2 then begin
    (* fix vertex n-1 outside S: each cut {S, S̄} visited once *)
    let limit = 1 lsl (n - 1) in
    let members = Array.make n 0 in
    for mask = 1 to limit - 1 do
      let k = ref 0 in
      for v = 0 to n - 2 do
        if mask land (1 lsl v) <> 0 then begin
          members.(!k) <- v;
          incr k
        end
      done;
      f (Array.sub members 0 !k)
    done
  end

let min_conductance g =
  let best = ref None in
  enumerate g (fun s ->
      let c = Metrics.conductance g s in
      if Float.is_finite c then
        match !best with
        | Some (bc, _) when bc <= c -> ()
        | _ -> best := Some (c, Array.copy s));
  match !best with
  | Some (c, s) -> (c, s)
  | None -> invalid_arg "Exact.min_conductance: no non-degenerate cut"
