module Graph = Dex_graph.Graph
module Network = Dex_congest.Network

(* mass shares travel as one word each: the 63-bit payload of the
   positive IEEE double — the simulation's stand-in for the O(log n)-bit
   fixed-point values a real implementation would ship *)
let encode x = [| Int64.to_int (Int64.bits_of_float x) |]
let decode (msg : Network.message) = Int64.float_of_bits (Int64.of_int msg.(0))

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
  let step ~round ~vertex:v st inbox =
    let v = Dex_graph.Vertex.local_int v in
    (* complete step (round - 1): collect shares sent last round *)
    let arrived = List.fold_left (fun acc (_, msg) -> acc +. decode msg) 0.0 inbox in
    let mass = if round = 1 then st.mass else truncate v (st.kept +. arrived) in
    (* launch the next step: split the current mass *)
    if round > steps then ({ mass; kept = mass }, [])
    else begin
      let deg = float_of_int (Graph.degree g v) in
      if mass = 0.0 || deg = 0.0 then ({ mass; kept = mass }, [])
      else begin
        let share = mass /. (2.0 *. deg) in
        let kept =
          (mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v))
        in
        let outbox = ref [] in
        Graph.iter_neighbors g v (fun u -> outbox := (u, encode share) :: !outbox);
        ({ mass; kept }, !outbox)
      end
    end
  in
  let states = Network.run_rounds net ~label:"walk-protocol" ~init ~step (steps + 1) in
  let pairs = ref [] in
  Array.iteri (fun v st -> if st.mass > 0.0 then pairs := (v, st.mass) :: !pairs) states;
  (List.rev !pairs, steps + 1)

let distribution_table = Dex_spectral.Walk.of_assoc
