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
    let in_w = Array.make n false in
    (* the searches' scratch: each search leaves [dist] at max_int again
       by resetting the vertices it entered *)
    let dist = Array.make n max_int in
    let queue = Array.make n 0 in
    let reset k =
      for i = 0 to k - 1 do
        dist.(queue.(i)) <- max_int
      done
    in
    (* the vertices of [vs] that [keep] admits become the sources
       queue.(0 .. k - 1); returns k *)
    let sources keep vs =
      Array.fold_left
        (fun k v ->
          if keep v then begin
            queue.(k) <- v;
            k + 1
          end
          else k)
        0 vs
    in
    let all _ = true in
    (* W grows by the radius-a ball around queue.(0 .. sources - 1) *)
    let inflate sources =
      let k = Metrics.bfs g ~dist ~queue ~sources ~limit:a in
      for i = 0 to k - 1 do
        in_w.(queue.(i)) <- true
      done;
      reset k
    in
    (* W_0 = radius-a ball around V'_D *)
    inflate (sources all (Metrics.vertices_of_mask in_vd_aux));
    rounds := !rounds + a;
    (* grow W: merge components within distance a, inflate by radius a *)
    let iterations = ref 0 in
    let stable = ref false in
    let w_mask = Some in_w in
    while not !stable do
      incr iterations;
      let w = Metrics.vertices_of_mask in_w in
      if Array.length w = 0 then stable := true
      else begin
        (* component labels inside W *)
        let comp_of = Array.make n (-1) in
        let comps = ref 0 in
        Array.iter
          (fun src ->
            if comp_of.(src) < 0 then begin
              queue.(0) <- src;
              let k = Metrics.bfs ?mask:w_mask g ~dist ~queue ~sources:1 ~limit:max_int in
              for i = 0 to k - 1 do
                comp_of.(queue.(i)) <- !comps
              done;
              incr comps
            end)
          w;
        Array.iter (fun v -> dist.(v) <- max_int) w;
        (* the ≤a halo of W, each vertex labelled by the component it
           was reached from *)
        let k = Metrics.bfs ~label:comp_of g ~dist ~queue ~sources:(sources all w) ~limit:a in
        (* two components merge when some edge joins their ≤a halos *)
        let uf = Union_find.create !comps in
        let merged_any = ref false in
        Graph.iter_edges g (fun x y ->
            if
              x <> y && comp_of.(x) >= 0 && comp_of.(y) >= 0
              && comp_of.(x) <> comp_of.(y)
              && dist.(x) + dist.(y) + 1 <= a
            then if Union_find.union uf comp_of.(x) comp_of.(y) then merged_any := true);
        reset k;
        rounds := !rounds + (2 * a);
        if not !merged_any then stable := true
        else begin
          (* inflate exactly the components that found a near neighbor *)
          let group_size = Array.make !comps 0 in
          for c = 0 to !comps - 1 do
            let r = Union_find.find uf c in
            group_size.(r) <- group_size.(r) + 1
          done;
          inflate (sources (fun v -> group_size.(Union_find.find uf comp_of.(v)) > 1) w);
          rounds := !rounds + (2 * a)
        end
      end
    done;
    { in_vd = in_w; a; b; iterations = !iterations; rounds = !rounds }
  end
