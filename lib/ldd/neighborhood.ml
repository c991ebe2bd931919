module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics

let all_ball_edge_counts g ~d =
  if d < 0 then invalid_arg "Neighborhood.all_ball_edge_counts: negative radius";
  let n = Graph.num_vertices g in
  let out = Array.make n (-1) in
  let dist = Array.make n max_int in
  let queue = Array.make n 0 in
  (* the edges inside the ball of radius [limit] around [v]: a search
     from [v], then its entered vertices' edges, whose distances it
     resets; self-loops of ball members count as edges of the ball.
     [entered] and [farthest] keep the search's size and last depth. *)
  let entered = ref 0 and farthest = ref 0 in
  let ball ~limit v =
    queue.(0) <- v;
    let k = Metrics.bfs g ~dist ~queue ~sources:1 ~limit in
    entered := k;
    farthest := dist.(queue.(k - 1));
    let count = ref 0 in
    for i = 0 to k - 1 do
      let x = queue.(i) in
      count := !count + Graph.self_loops g x;
      let a = Graph.neighbors g x in
      for j = 0 to Array.length a - 1 do
        if a.(j) > x && dist.(a.(j)) <> max_int then incr count
      done
    done;
    for i = 0 to k - 1 do
      dist.(queue.(i)) <- max_int
    done;
    !count
  in
  (* a vertex not yet counted is the least of its component; the
     unbounded ball around it is the component *)
  for v = 0 to n - 1 do
    if out.(v) < 0 then begin
      let total = ball ~limit:max_int v in
      let comp = Array.sub queue 0 !entered in
      (* if the radius covers the component, every ball is the component *)
      if d >= 2 * !farthest then Array.iter (fun u -> out.(u) <- total) comp
      else Array.iter (fun u -> out.(u) <- ball ~limit:d u) comp
    end
  done;
  out

let lemma16_rounds ~n ~d ~f =
  if f <= 0.0 || f >= 1.0 then invalid_arg "Neighborhood.lemma16_rounds: f in (0,1)";
  let lf = log (Float.max 2.0 (float_of_int n)) in
  int_of_float (Float.ceil (float_of_int d *. lf *. lf /. (f ** 3.0)))
