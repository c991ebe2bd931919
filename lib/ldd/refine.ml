module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Union_find = Dex_util.Union_find

type t = {
  in_vd : bool array;
  a : int;
  b : int;
  iterations : int;
  rounds : int;
}

(* multi-source BFS restricted to depth [limit]; returns (dist, label)
   where label is the source-set label of the nearest source. Each
   vertex enters [queue] (n ints of scratch) at most once. *)
let labeled_bfs g queue sources labels ~limit =
  let n = Graph.num_vertices g in
  let dist = Array.make n max_int in
  let label = Array.make n (-1) in
  let tail = ref 0 in
  for i = 0 to Array.length sources - 1 do
    let v = sources.(i) in
    if dist.(v) <> 0 then begin
      dist.(v) <- 0;
      label.(v) <- labels.(i);
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    if dist.(v) < limit then begin
      let a = Graph.neighbors g v in
      for i = 0 to Array.length a - 1 do
        let u = a.(i) in
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          label.(u) <- label.(v);
          queue.(!tail) <- u;
          incr tail
        end
      done
    end
  done;
  (dist, label)

(* the radius constants of a = ⌈ka·ln n/β⌉ and b = ⌈kb·ln n/β⌉: the
   paper's ka = 5 and kb = K = 5 *)
let ka = 5.0
let kb = 5.0

let run g ~beta =
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "Refine.run: beta in (0,1)";
  let n = Graph.num_vertices g in
  if n = 0 then { in_vd = [||]; a = 1; b = 1; iterations = 0; rounds = 0 }
  else begin
    let ln_n = log (Float.max 2.0 (float_of_int n)) in
    let a = max 1 (int_of_float (Float.ceil (ka *. ln_n /. beta))) in
    let b = max 1 (int_of_float (Float.ceil (kb *. ln_n /. beta))) in
    let rounds = ref 0 in
    (* auxiliary partition: V'_D by ball density at radii a vs 100ab *)
    let near = Neighborhood.all_ball_edge_counts g ~d:a in
    let cap r = min r (2 * n) in
    let far = Neighborhood.all_ball_edge_counts g ~d:(cap (100 * a * b)) in
    rounds := !rounds + Neighborhood.lemma16_rounds ~n ~d:a ~f:0.5;
    (* a vertex in the overlap region (far/2b ≤ near ≤ far/b) may go to
       either side; prefer V'_S so the clustering cuts materialize.
       V'_D members then satisfy near > far/b ≥ far/2b as required. *)
    let in_vd_aux = Array.init n (fun v -> b * near.(v) > far.(v)) in
    (* W_0 = radius-a ball around V'_D *)
    let vd_aux = Metrics.vertices_of_mask in_vd_aux in
    let in_w = Array.make n false in
    let queue = Array.make n 0 in
    if Array.length vd_aux > 0 then begin
      let dist0, _ =
        labeled_bfs g queue vd_aux (Array.make (Array.length vd_aux) 0) ~limit:a
      in
      Array.iteri (fun v d -> if d <> max_int && d <= a then in_w.(v) <- true) dist0
    end;
    rounds := !rounds + a;
    (* grow W: merge components within distance a, inflate by radius a *)
    let iterations = ref 0 in
    let stable = ref false in
    while not !stable do
      incr iterations;
      let w = Metrics.vertices_of_mask in_w in
      if Array.length w = 0 then stable := true
      else begin
        (* component labels inside W *)
        let comp_of = Array.make n (-1) in
        let comps = ref 0 in
        for s = 0 to Array.length w - 1 do
          let src = w.(s) in
          if comp_of.(src) = -1 then begin
            let c = !comps in
            incr comps;
            comp_of.(src) <- c;
            queue.(0) <- src;
            let head = ref 0 and tail = ref 1 in
            while !head < !tail do
              let nbrs = Graph.neighbors g queue.(!head) in
              incr head;
              for i = 0 to Array.length nbrs - 1 do
                let u = nbrs.(i) in
                if in_w.(u) && comp_of.(u) = -1 then begin
                  comp_of.(u) <- c;
                  queue.(!tail) <- u;
                  incr tail
                end
              done
            done
          end
        done;
        let labels = Array.map (fun v -> comp_of.(v)) w in
        let dist, label = labeled_bfs g queue w labels ~limit:a in
        (* two components merge when some edge joins their ≤a halos *)
        let uf = Union_find.create !comps in
        let merged_any = ref false in
        Graph.iter_edges g (fun x y ->
            if
              x <> y && label.(x) >= 0 && label.(y) >= 0
              && label.(x) <> label.(y)
              && dist.(x) <> max_int && dist.(y) <> max_int
              && dist.(x) + dist.(y) + 1 <= a
            then if Union_find.union uf label.(x) label.(y) then merged_any := true);
        rounds := !rounds + (2 * a);
        if not !merged_any then stable := true
        else begin
          (* inflate exactly the components that found a near neighbor *)
          let group_size = Array.make !comps 0 in
          for c = 0 to !comps - 1 do
            let r = Union_find.find uf c in
            group_size.(r) <- group_size.(r) + 1
          done;
          let inflating c = group_size.(Union_find.find uf c) > 1 in
          let sources = Array.of_list (List.filter (fun v -> inflating comp_of.(v)) (Array.to_list w)) in
          let dist2, _ =
            labeled_bfs g queue sources (Array.make (Array.length sources) 0) ~limit:a
          in
          Array.iteri
            (fun v d -> if d <> max_int && d <= a then in_w.(v) <- true)
            dist2;
          rounds := !rounds + (2 * a)
        end
      end
    done;
    { in_vd = in_w; a; b; iterations = !iterations; rounds = !rounds }
  end
