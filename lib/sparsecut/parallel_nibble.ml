module Graph = Dex_graph.Graph
module Rng = Dex_util.Rng

type t = {
  cut : int array;
  rounds : int;
  copies : int;
  aborted : bool;
  max_overlap : int;
  nibbles : Nibble.outcome list;
}

let sample_scale params rng =
  (* Pr[b = i] = 2^{-i} / (1 - 2^{-ℓ}) for i in 1..ℓ *)
  let ell = params.Params.ell in
  let weights = Array.init ell (fun i -> 2.0 ** float_of_int (-(i + 1))) in
  1 + Rng.weighted_index rng weights

(* the weights of ψ_V, which a start vertex is drawn from *)
let degree_weights g = Array.init (Graph.num_vertices g) (fun v -> float_of_int (Graph.degree g v))

let draw_nibble ?workspace params g degrees rng =
  let src = Rng.weighted_index rng degrees in
  let b = sample_scale params rng in
  Nibble.approximate ?workspace params g ~src ~b

let random_nibble params g rng = draw_nibble params g (degree_weights g) rng

let run ?k ?ledger ?workspace params g rng =
  let total_volume = Graph.total_volume g in
  if total_volume = 0 then
    { cut = [||]; rounds = 0; copies = 0; aborted = false; max_overlap = 0; nibbles = [] }
  else begin
    let k = match k with Some k -> k | None -> Params.parallel_copies params ~volume:total_volume in
    let w = Params.overlap_bound params ~volume:total_volume in
    let degrees = degree_weights g in
    let outcomes = List.init k (fun _ -> draw_nibble ?workspace params g degrees rng) in
    (* per-edge participation counts over P-star of each copy, one
       counter per edge at the CSR slot of (u, v), u < v; the leftmost
       rank gives parallel edges one shared counter *)
    let off = Graph.csr_offsets g in
    let overlap = Array.make off.(Graph.num_vertices g) 0 in
    let max_overlap = ref 0 in
    List.iter
      (fun outcome ->
        Nibble.iter_participating_edges g outcome (fun u v ->
            let slot = off.(u) + Graph.neighbor_rank g u v in
            let c = overlap.(slot) + 1 in
            overlap.(slot) <- c;
            if c > !max_overlap then max_overlap := c))
      outcomes;
    let aborted = !max_overlap > w in
    (* Lemma 10 cost model, fully measured:
       - instance generation: one BFS-tree build + token descent,
         charged as the height of an actual BFS tree would be; we use
         the max nibble walk length as the tree-depth proxy measured
         from this very run (every participant sits within that hop
         distance of its start vertex);
       - simultaneous execution: the k copies time-share each edge, so
         the wall-clock is the per-copy max times the realized
         congestion (capped at w);
       - selection of i*: a log-many binary search of broadcasts. *)
    let max_copy_rounds =
      List.fold_left (fun acc (o : Nibble.outcome) -> max acc o.Nibble.rounds) 0 outcomes
    in
    let depth_proxy =
      List.fold_left
        (fun acc (o : Nibble.outcome) -> max acc o.Nibble.steps_executed)
        1 outcomes
    in
    let congestion = max 1 (min !max_overlap w) in
    let gen_rounds = depth_proxy + Params.ceil_log2 k in
    let select_rounds = depth_proxy * Params.ceil_log2 k in
    let exec_rounds = congestion * max_copy_rounds in
    let rounds = gen_rounds + exec_rounds + select_rounds in
    (match ledger with
    | Some l ->
      let module Rounds = Dex_congest.Rounds in
      Rounds.charge l ~label:"nibble-generate" gen_rounds;
      Rounds.charge l ~label:"nibble-execute" exec_rounds;
      Rounds.charge l ~label:"nibble-select" select_rounds
    | None -> ());
    if aborted then
      { cut = [||]; rounds; copies = k; aborted; max_overlap = !max_overlap; nibbles = outcomes }
    else begin
      (* prefix-union selection: largest i* with Vol(U_{i*}) ≤ 23/24·Vol *)
      let threshold = 23 * total_volume / 24 in
      let is_member = Array.make (Graph.num_vertices g) false in
      let members = ref [] in
      let vol = ref 0 in
      (* [best]: the members of the longest prefix of cuts within the
         threshold *)
      let rec select best = function
        | [] -> best
        | (o : Nibble.outcome) :: rest ->
          (match o.Nibble.result with
          | None -> ()
          | Some cut ->
            Array.iter
              (fun v ->
                if not is_member.(v) then begin
                  is_member.(v) <- true;
                  members := v :: !members;
                  vol := !vol + Graph.degree g v
                end)
              cut.Nibble.vertices);
          if !vol <= threshold then select !members rest else best
      in
      let cut = Array.of_list (select [] outcomes) in
      Array.sort Int.compare cut;
      { cut; rounds; copies = k; aborted; max_overlap = !max_overlap; nibbles = outcomes }
    end
  end
