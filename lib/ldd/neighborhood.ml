module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics

let ball_edge_count g ~d v =
  if d < 0 then invalid_arg "Neighborhood.ball_edge_count: negative radius";
  (* depth-bounded BFS collecting the ball, then count internal edges;
     self-loops of ball members count as edges of the ball *)
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist v 0;
  let queue = Queue.create () in
  Queue.add v queue;
  while not (Queue.is_empty queue) do
    let x = Queue.take queue in
    let dx = Hashtbl.find dist x in
    if dx < d then
      Graph.iter_neighbors g x (fun y ->
          if not (Hashtbl.mem dist y) then begin
            Hashtbl.replace dist y (dx + 1);
            Queue.add y queue
          end)
  done;
  let count = ref 0 in
  Dex_util.Table.iter_sorted ~compare:Int.compare
    (fun x _ ->
      count := !count + Graph.self_loops g x;
      Graph.iter_neighbors g x (fun y ->
          if (y > x || (y = x)) && Hashtbl.mem dist y then incr count))
    dist;
  !count

let all_ball_edge_counts g ~d =
  let n = Graph.num_vertices g in
  let out = Array.make n 0 in
  let comps = Metrics.connected_components g in
  List.iter
    (fun comp ->
      (* total edges inside the component *)
      let mask = Metrics.mask_of g comp in
      let total = ref 0 in
      Graph.iter_edges g (fun u v -> if mask.(u) && (u = v || mask.(v)) then incr total);
      (* if the radius covers the component, every ball is the component *)
      let representative = comp.(0) in
      let ecc =
        let dist = Metrics.bfs_distances g representative in
        Array.fold_left
          (fun acc v -> max acc (if dist.(v) = max_int then 0 else dist.(v)))
          0 (Array.init (Array.length comp) (fun i -> comp.(i)))
      in
      if d >= 2 * ecc then Array.iter (fun v -> out.(v) <- !total) comp
      else Array.iter (fun v -> out.(v) <- ball_edge_count g ~d v) comp)
    comps;
  out

let lemma16_rounds ~n ~d ~f =
  if f <= 0.0 || f >= 1.0 then invalid_arg "Neighborhood.lemma16_rounds: f in (0,1)";
  let lf = log (Float.max 2.0 (float_of_int n)) in
  int_of_float (Float.ceil (float_of_int d *. lf *. lf /. (f ** 3.0)))
