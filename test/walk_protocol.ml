module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Arena = Dex_congest.Arena
module Network = Dex_congest.Network

(* mass shares travel as one word each: the 63-bit payload of the
   positive IEEE double — the simulation's stand-in for the O(log n)-bit
   fixed-point values a real implementation would ship *)
let encode x = Int64.to_int (Int64.bits_of_float x)
let decode w = Int64.float_of_bits (Int64.of_int w)

type state = {
  mass : float; (* p̃_{t} at this vertex after the last completed step *)
  kept : float; (* lazy + self-loop share waiting for incoming mass *)
}

let run net ~src ~eps ~steps =
  if steps < 0 then invalid_arg "Walk_protocol.run: steps >= 0";
  let g = Network.graph net in
  let n = Graph.num_vertices g in
  if src < 0 || src >= n then invalid_arg "Walk_protocol.run: src out of range";
  let truncate v x = if x >= 2.0 *. eps *. float_of_int (Graph.degree g v) then x else 0.0 in
  let init v = { mass = (if v = src then 1.0 else 0.0); kept = 0.0 } in
  let step ~round ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    (* complete step (round - 1): the shares sent last round plus the
       kept share, summed in ascending order of the vertex they come
       from — the order the walker's step kernel sums them in *)
    let mass =
      if round = 1 then st.mass
      else begin
        let acc = ref 0.0 and own = ref false in
        Arena.Inbox.iter1 ib (fun sender w ->
            if sender > v && not !own then begin
              acc := !acc +. st.kept;
              own := true
            end;
            acc := !acc +. decode w);
        truncate v (if !own then !acc else !acc +. st.kept)
      end
    in
    (* a vertex holding mass is stepped next round to fold its kept
       share into what arrives *)
    if mass > 0.0 then Arena.Outbox.wake ob;
    (* launch the next step: split the current mass *)
    let deg = float_of_int (Graph.degree g v) in
    if round > steps || mass = 0.0 || deg = 0.0 then { mass; kept = mass }
    else begin
      let share = mass /. (2.0 *. deg) in
      let kept = (mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v)) in
      Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) (encode share));
      { mass; kept }
    end
  in
  let states =
    Network.run_active_rounds net ~label:"walk-protocol" ~init ~step (steps + 1)
  in
  let pairs = ref [] in
  Array.iteri (fun v st -> if st.mass > 0.0 then pairs := (v, st.mass) :: !pairs) states;
  (List.rev !pairs, steps + 1)

let distribution_table = Dex_spectral.Walk.of_assoc
