module Graph = Dex_graph.Graph
module Rng = Dex_util.Rng

let trivial_rounds g =
  let n = Graph.num_vertices g in
  let worst = ref 0 in
  for v = 0 to n - 1 do
    let deg = Graph.plain_degree g v in
    if deg > 0 then begin
      let incoming = ref 0 in
      Graph.iter_neighbors g v (fun u -> incoming := !incoming + Graph.plain_degree g u);
      worst := Int.max !worst ((!incoming + deg - 1) / deg)
    end
  done;
  !worst

let dlp_clique_rounds g rng =
  let n = Graph.num_vertices g in
  if n = 0 then 0
  else begin
    let groups = Int.max 1 (int_of_float (Float.ceil (float_of_int n ** (1.0 /. 3.0)))) in
    let group_of = Array.init n (fun _ -> Rng.int rng groups) in
    (* pairwise edge counts between groups, from the actual graph *)
    let pair_edges = Array.make_matrix groups groups 0 in
    Graph.iter_edges g (fun u v ->
        if u <> v then begin
          let a = group_of.(u) and b = group_of.(v) in
          pair_edges.(a).(b) <- pair_edges.(a).(b) + 1;
          if a <> b then pair_edges.(b).(a) <- pair_edges.(b).(a) + 1
        end);
    (* each vertex handles ~g³/n group triples; words per triple are
       the three pair edge sets; bandwidth n-1 words/round all-to-all *)
    let triples_total = groups * groups * groups in
    let per_vertex = (triples_total + n - 1) / n in
    (* average triple cost: sample the worst vertex as the one with the
       heaviest triples — conservatively use the max pair count *)
    let max_pair = ref 0 in
    for a = 0 to groups - 1 do
      for b = 0 to groups - 1 do
        if pair_edges.(a).(b) > !max_pair then max_pair := pair_edges.(a).(b)
      done
    done;
    let words = per_vertex * 3 * !max_pair in
    Int.max 1 ((words + n - 2) / Int.max 1 (n - 1))
  end

let izumi_le_gall_rounds ~n =
  let nf = float_of_int n in
  Int.max 1 (int_of_float (Float.ceil ((nf ** 0.75) *. (log nf /. log 2.0))))

let lower_bound_rounds ~n =
  let nf = float_of_int n in
  Int.max 1 (int_of_float (Float.ceil ((nf ** (1.0 /. 3.0)) /. (log nf /. log 2.0))))
