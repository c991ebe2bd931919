module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Metrics = Dex_graph.Metrics
module Params = Dex_sparsecut.Params
module Partition = Dex_sparsecut.Partition
module Rounds = Dex_congest.Rounds
module Ldd = Dex_ldd.Ldd
module Rng = Dex_util.Rng

type removal_ledger = { remove1 : int; remove2 : int; remove3 : int }

type stats = {
  removals : removal_ledger;
  rounds : int;
  messages : int;
  words : int;
  phase1_depth : int;
  phase2_components : int;
  phase2_max_iterations : int;
  partition_calls : int;
  discarded_cuts : int;
}

type result = {
  parts : int array list;
  part_of : int array;
  removed_edges : (int * int) list;
  edge_fraction_removed : float;
  phi_target : float;
  schedule : Schedule.t;
  stats : stats;
}

(* mutable driver state shared by both phases *)
type driver = {
  mutable current : Graph.t; (* remaining graph; removed edges became self-loops *)
  schedule : Schedule.t;
  rng : Rng.t;
  ledger : Rounds.t option; (* observability ledger, when the caller passed one *)
  mutable remove1 : int;
  mutable remove2 : int;
  mutable remove3 : int;
  mutable removed : (int * int) list;
  mutable rounds : int;
  mutable messages : int;
  mutable partition_calls : int;
  mutable discarded : int;
  mutable phase2_components : int;
  mutable phase2_max_iterations : int;
}

let remove_edges_tracked d kind edges =
  let plain = List.filter (fun (u, v) -> u <> v) edges in
  let count = List.length plain in
  if count > 0 then begin
    d.current <- Graph.remove_edges d.current plain;
    d.removed <- List.rev_append plain d.removed;
    match kind with
    | `Remove1 -> d.remove1 <- d.remove1 + count
    | `Remove2 -> d.remove2 <- d.remove2 + count
    | `Remove3 -> d.remove3 <- d.remove3 + count
  end

(* G{U} of [g] and its id mapping. A U that is all of 0..n−1 in order
   is [g] itself, not a copy: its saturated subgraph has [g]'s
   adjacency and loops, and a graph is never written after it is
   built. Graph's own subgraphs always copy. *)
let saturated_on g members =
  let rec whole i = i = Array.length members || (members.(i) = i && whole (i + 1)) in
  if Array.length members = Graph.num_vertices g && whole 0 then (g, members)
  else Graph.saturated_subgraph g members

(* run Partition on G{U} of the current graph; returns the cut in
   original vertex ids together with its measured conductance inside
   G{U}, applying the h(φ) acceptance filter *)
let sparse_cut_on d ~phi members =
  let gu, mapping = saturated_on d.current members in
  let m = max 1 (Graph.num_edges gu) in
  let params = Schedule.params_for ~phi ~m in
  let res = Partition.run ?ledger:d.ledger params gu d.rng in
  d.partition_calls <- d.partition_calls + 1;
  let cut = res.Partition.cut in
  let rounds = res.Partition.rounds in
  if Array.length cut = 0 then (`Empty, rounds)
  else begin
    let bound = Schedule.h_of ~preset:Params.Practical ~n:d.schedule.Schedule.n phi in
    if res.Partition.conductance > bound then begin
      d.discarded <- d.discarded + 1;
      (`Empty, rounds)
    end
    else begin
      (* conductance is min-side normalized, so the returned set may be
         the large side of the cut; the removal/recursion logic always
         wants the smaller-volume side *)
      let cut = Metrics.smaller_side gu cut in
      let original = Vertex.Map.translate (Vertex.Map.of_array mapping) cut in
      Array.sort compare original;
      (`Cut (original, res.Partition.conductance), rounds)
    end
  end

let volume_of d members = Graph.volume d.current members
(* degrees never change (removals add self-loops), so this equals the
   original-graph volume of [members] *)

(* monomorphic normalized-edge comparator: these sorts run once per
   carved cluster on edge lists proportional to cut volume, so the
   polymorphic-compare dispatch overhead is measurable *)
let compare_edge (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let cut_edges_between d inside =
  let mask = Metrics.mask_of d.current inside in
  let acc = ref [] in
  Array.iter
    (fun v ->
      Graph.iter_neighbors d.current v (fun u ->
          if not mask.(u) then acc := (min u v, max u v) :: !acc))
    inside;
  List.sort_uniq compare_edge !acc

(* every non-loop edge with at least one endpoint inside — Remove-3
   isolates the carved set completely *)
let incident_edges d inside =
  let acc = ref [] in
  Array.iter
    (fun v -> Graph.iter_neighbors d.current v (fun u -> acc := (min u v, max u v) :: !acc))
    inside;
  List.sort_uniq compare_edge !acc

(* ---- Phase 2 (one component): returns (rounds, iterations) ---- *)
let phase2 d members =
  let sched = d.schedule in
  let eps = sched.Schedule.epsilon in
  let k = sched.Schedule.k in
  let vol_u = float_of_int (volume_of d members) in
  let m1 = eps /. 6.0 *. vol_u in
  let tau = Float.max 1.0000001 (m1 ** (1.0 /. float_of_int k)) in
  let m_level l = m1 /. (tau ** float_of_int (l - 1)) in
  let level = ref 1 in
  let remaining = ref (Array.copy members) in
  let rounds = ref 0 in
  let iterations = ref 0 in
  let finished = ref false in
  (* the paper bounds the per-level iteration count by 2τ; the cap
     below is a numerical backstop for the practical preset *)
  let iteration_cap = 64 + (4 * k) in
  while (not !finished) && Array.length !remaining > 0 && !iterations < iteration_cap do
    incr iterations;
    let phi = sched.Schedule.phi.(min k !level) in
    let verdict, cost = sparse_cut_on d ~phi !remaining in
    rounds := !rounds + cost;
    (match verdict with
    | `Empty -> finished := true
    | `Cut (cut, _cond) ->
      let vol_c = float_of_int (volume_of d cut) in
      if vol_c <= m_level !level /. (2.0 *. tau) && !level < k then incr level
      else begin
        (* Remove-3: carve the cut out entirely; its vertices become
           singleton parts of the final decomposition *)
        remove_edges_tracked d `Remove3 (incident_edges d cut);
        remaining := Metrics.difference d.current !remaining cut
      end)
  done;
  (!rounds, !iterations)

(* ---- Phase 1 (level-synchronous recursion) ---- *)
let run ?ledger ~epsilon ~k g rng =
  let schedule = Schedule.make ~preset:Params.Practical ~epsilon ~k g in
  let d =
    { current = g;
      schedule;
      rng;
      ledger;
      remove1 = 0;
      remove2 = 0;
      remove3 = 0;
      removed = [];
      rounds = 0;
      messages = 0;
      partition_calls = 0;
      discarded = 0;
      phase2_components = 0;
      phase2_max_iterations = 0 }
  in
  let phase2_queue = ref [] in
  let depth_reached = ref 0 in
  (* initial active set: connected components of the input *)
  let active = ref (Metrics.connected_components g) in
  let depth = ref 0 in
  Rounds.span d.ledger "decompose" (fun () ->
      Rounds.span d.ledger "phase1" (fun () ->
          while !active <> [] && !depth < schedule.Schedule.d do
            incr depth;
            depth_reached := !depth;
            let next = ref [] in
            let level_cost = ref 0 in
            Rounds.span d.ledger (Printf.sprintf "level-%d" !depth) (fun () ->
                List.iter
                  (fun members ->
                    if Array.length members > 1 then begin
                      (* Step 1: low-diameter decomposition of G{U}; Remove-1 *)
                      let gu, mapping = saturated_on d.current members in
                      let mapping = Vertex.Map.of_array mapping in
                      let ldd =
                        Ldd.run_graph ?ledger:d.ledger ~vertex_map:mapping gu
                          ~beta:schedule.Schedule.beta d.rng
                      in
                      d.messages <- d.messages + ldd.Ldd.messages;
                      let ldd_cut =
                        List.map (Vertex.Map.translate_edge mapping) ldd.Ldd.cut_edges
                      in
                      remove_edges_tracked d `Remove1 ldd_cut;
                      let clusters =
                        List.map (Vertex.Map.translate mapping) ldd.Ldd.parts
                      in
                      (* Step 2: sparse cut per cluster; clusters run concurrently *)
                      let cluster_cost = ref 0 in
                      List.iter
                        (fun cluster ->
                          if Array.length cluster > 1 then begin
                            let verdict, cost =
                              sparse_cut_on d ~phi:schedule.Schedule.phi.(0) cluster
                            in
                            cluster_cost := max !cluster_cost cost;
                            match verdict with
                            | `Empty -> () (* finished component *)
                            | `Cut (cut, _) ->
                              let vol_c = volume_of d cut in
                              let vol_u = volume_of d cluster in
                              if
                                float_of_int (12 * vol_c)
                                <= epsilon *. float_of_int vol_u
                              then begin
                                (* Step 2b: small cut — enter Phase 2, keep edges *)
                                phase2_queue := cluster :: !phase2_queue
                              end
                              else begin
                                (* Step 2c: remove the cut and recurse on both sides *)
                                remove_edges_tracked d `Remove2 (cut_edges_between d cut);
                                let rest = Metrics.difference d.current cluster cut in
                                next := cut :: rest :: !next
                              end
                          end)
                        clusters;
                      level_cost := max !level_cost (ldd.Ldd.rounds + !cluster_cost)
                    end)
                  !active);
            d.rounds <- d.rounds + !level_cost;
            active := !next
          done);
      (* Phase 2: all queued components run concurrently *)
      Rounds.span d.ledger "phase2" (fun () ->
          let phase2_cost = ref 0 in
          List.iter
            (fun members ->
              d.phase2_components <- d.phase2_components + 1;
              let cost, iters =
                Rounds.span d.ledger
                  (Printf.sprintf "component-%d" d.phase2_components)
                  (fun () -> phase2 d members)
              in
              if iters > d.phase2_max_iterations then d.phase2_max_iterations <- iters;
              if cost > !phase2_cost then phase2_cost := cost)
            !phase2_queue;
          d.rounds <- d.rounds + !phase2_cost));
  (* final parts = connected components of the remaining graph *)
  let parts = Metrics.connected_components d.current in
  let part_of = Array.make (Graph.num_vertices g) (-1) in
  List.iteri (fun i part -> Array.iter (fun v -> part_of.(v) <- i) part) parts;
  let m = max 1 (Graph.num_edges g) in
  let removed_count = d.remove1 + d.remove2 + d.remove3 in
  { parts;
    part_of;
    removed_edges = d.removed;
    edge_fraction_removed = float_of_int removed_count /. float_of_int m;
    phi_target = Schedule.phi_final schedule;
    schedule;
    stats =
      { removals = { remove1 = d.remove1; remove2 = d.remove2; remove3 = d.remove3 };
        rounds = d.rounds;
        messages = d.messages;
        words = d.messages (* one word per message *);
        phase1_depth = !depth_reached;
        phase2_components = d.phase2_components;
        phase2_max_iterations = d.phase2_max_iterations;
        partition_calls = d.partition_calls;
        discarded_cuts = d.discarded } }
