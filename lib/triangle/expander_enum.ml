module Graph = Dex_graph.Graph
module Decomposition = Dex_decomp.Decomposition
module Hierarchy = Dex_routing.Hierarchy
module Rounds = Dex_congest.Rounds
module Rng = Dex_util.Rng

type level_report = {
  level : int;
  edges : int;
  components : int;
  detected : int;
  decomposition_rounds : int;
  routing_preprocess_rounds : int;
  routing_query_rounds : int;
  max_instances : int;
}

type result = {
  triangles : Exact.triangle list;
  levels : level_report list;
  total_rounds : int;
  enumeration_rounds : int;
  messages : int;
  words : int;
  complete : bool;
}

let instances_for ~n ~incident ~volume =
  let groups = Int.max 1 (int_of_float (Float.ceil (float_of_int n ** (1.0 /. 3.0)))) in
  Int.max 1 (int_of_float (Float.ceil (3.0 *. float_of_int groups *. float_of_int incident /. float_of_int (Int.max 1 volume))))

(* [merge_ids a b]: the ascending union of two ascending id arrays,
   and how many ids of [b] were not in [a]; [b] itself when [a] is
   empty *)
let merge_ids a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then (b, lb)
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 and fresh = ref 0 in
    while !i < la || !j < lb do
      if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
        out.(!k) <- a.(!i);
        incr i
      end
      else begin
        if !i >= la || b.(!j) < a.(!i) then incr fresh else incr i;
        out.(!k) <- b.(!j);
        incr j
      end;
      incr k
    done;
    (Array.sub out 0 !k, !fresh)
  end

let run ?ledger ?(epsilon = 1.0 /. 6.0) ?(k_decomp = 2) g rng =
  let charge label k =
    match ledger with Some l -> Rounds.charge l ~label k | None -> ()
  in
  let n = Graph.num_vertices g in
  let ground_truth = Exact.triangle_ids g in
  let detected = ref [||] in
  let levels = ref [] in
  let total_rounds = ref 0 in
  let enumeration_rounds = ref 0 in
  let messages = ref 0 in
  let current = ref g in
  let level = ref 0 in
  let max_levels =
    2 * Int.max 1 (int_of_float (Float.ceil (log (Float.max 2.0 (float_of_int (Graph.num_edges g))) /. log 2.0)))
  in
  let continue = ref (Graph.num_plain_edges g > 0) in
  Rounds.span ledger "triangles" @@ fun () ->
  while !continue && !level < max_levels do
    incr level;
    Rounds.span ledger (Printf.sprintf "level-%d" !level) @@ fun () ->
    let gcur = !current in
    let decomp = Decomposition.run ?ledger ~epsilon ~k:k_decomp gcur rng in
    total_rounds := !total_rounds + decomp.Decomposition.stats.Decomposition.rounds;
    messages := !messages + decomp.Decomposition.stats.Decomposition.messages;
    let part_of = decomp.Decomposition.part_of in
    (* triangles of the current graph with ≥1 intra-component edge are
       detected at this level: the component owning that edge learns
       every edge incident to itself, which includes the other two *)
    let intra u v = part_of.(u) = part_of.(v) in
    (* E-star = inter-component edges, on which the next level runs *)
    let estar = ref [] in
    Graph.iter_edges gcur (fun u v ->
        if u <> v && part_of.(u) <> part_of.(v) then estar := (u, v) :: !estar);
    (* level 1 runs on [g], whose triangles the ground truth already
       lists: filtering it spares a second enumeration, and with E-star
       empty every edge is intra-component and the filter keeps all *)
    let found =
      if !level = 1 then
        if List.is_empty !estar then ground_truth else Exact.filter_ids ~n ground_truth intra
      else Exact.triangle_ids_with_edge_pred gcur intra
    in
    let merged, fresh = merge_ids !detected found in
    detected := merged;
    (* edges of the current graph incident to each component, all
       components in one pass *)
    let incident = Array.make (List.length decomp.Decomposition.parts) 0 in
    Graph.iter_edges gcur (fun u v ->
        if u <> v then begin
          let pu = part_of.(u) and pv = part_of.(v) in
          incident.(pu) <- incident.(pu) + 1;
          if pv <> pu then incident.(pv) <- incident.(pv) + 1
        end);
    (* measured routing cost per component, components in parallel *)
    let max_pre = ref 0 and max_query = ref 0 and max_inst = ref 0 in
    List.iteri
      (fun i part ->
        if Array.length part > 1 then begin
          (* a part on all of 0..n−1 in order is gcur itself, not a copy *)
          let rec whole j = j = Array.length part || (part.(j) = j && whole (j + 1)) in
          let sub =
            if Array.length part = Graph.num_vertices gcur && whole 0 then gcur
            else fst (Graph.induced_subgraph gcur part)
          in
          if Graph.num_plain_edges sub > 0 then begin
            let volume = Graph.volume gcur part in
            let instances = instances_for ~n ~incident:incident.(i) ~volume in
            let hierarchy = Hierarchy.best_k_for sub rng ~queries:instances ~k_max:4 in
            max_pre := Int.max !max_pre hierarchy.Hierarchy.preprocess_rounds;
            max_query := Int.max !max_query (instances * hierarchy.Hierarchy.query_rounds);
            max_inst := Int.max !max_inst instances
          end
        end)
      decomp.Decomposition.parts;
    total_rounds := !total_rounds + !max_pre + !max_query;
    enumeration_rounds := !enumeration_rounds + !max_pre + !max_query;
    charge "routing-preprocess" !max_pre;
    charge "routing-query" !max_query;
    levels :=
      { level = !level;
        edges = Graph.num_plain_edges gcur;
        components = List.length decomp.Decomposition.parts;
        detected = fresh;
        decomposition_rounds = decomp.Decomposition.stats.Decomposition.rounds;
        routing_preprocess_rounds = !max_pre;
        routing_query_rounds = !max_query;
        max_instances = !max_inst }
      :: !levels;
    (* recurse on E-star *)
    let next = Graph.of_edges ~n !estar in
    if Graph.num_plain_edges next = 0 then continue := false
    else if Graph.num_plain_edges next >= Graph.num_plain_edges gcur then begin
      (* no progress (decomposition kept everything separate):
         fall back to detecting the rest locally — costs the trivial
         exchange on the residual graph *)
      detected := fst (merge_ids !detected (Exact.triangle_ids next));
      let cost = Baselines.trivial_rounds next in
      total_rounds := !total_rounds + cost;
      enumeration_rounds := !enumeration_rounds + cost;
      charge "residual-trivial" cost;
      continue := false
    end
    else current := next
  done;
  let detected = !detected in
  { triangles = Exact.triangles_of_ids ~n detected;
    levels = List.rev !levels;
    total_rounds = !total_rounds;
    enumeration_rounds = !enumeration_rounds;
    messages = !messages;
    words = !messages (* one word per message *);
    complete =
      detected == ground_truth
      || Array.length detected = Array.length ground_truth
         && Array.for_all2 Int.equal detected ground_truth }

let run_verified ?ledger g rng =
  Rounds.las_vegas ?ledger ~label:"triangles" ~where:"Expander_enum.run_verified" ~attempts:3
    ~rounds:(fun r -> r.total_rounds) ~accept:(fun r -> r.complete)
  @@ fun i -> run ?ledger g (Rng.split rng i)
