module Graph = Dex_graph.Graph
module Rng = Dex_util.Rng
module View = Dex_spectral.View

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

(* Nibble's lanes, the copy masks and a vertex mask, false between
   uses, for the prefix union *)
type workspace = { copies : Nibble.workspace; masks : Nibble.masks; member : bool array }

let workspace ~copies g =
  (* first, so that copies < 1 is rejected with its own message *)
  let lanes = Nibble.workspace ~copies g in
  { copies = lanes;
    masks = Nibble.masks ~copies g;
    member = Array.make (Graph.num_vertices g) false }

(* the start vertex, then the scale *)
let draw params (view : View.t) rng =
  let src = Rng.weighted_index rng view.degrees in
  let b = sample_scale params rng in
  (src, b)

let random_nibble ws params view rng =
  List.hd (Nibble.approximate_copies ws params view [| draw params view rng |])

let run ?k ?ledger ?workspace:ws params (view : View.t) rng =
  (match k with Some k when k < 1 -> invalid_arg "Parallel_nibble.run: k < 1" | _ -> ());
  let g = view.graph in
  let total_volume = Graph.total_volume g in
  if total_volume = 0 then
    { cut = [||]; rounds = 0; copies = 0; aborted = false; max_overlap = 0; nibbles = [] }
  else begin
    let k = match k with Some k -> k | None -> Params.parallel_copies params ~volume:total_volume in
    let w = Params.overlap_bound params ~volume:total_volume in
    let ws = match ws with Some ws -> ws | None -> workspace ~copies:k g in
    if Graph.num_vertices g > Array.length ws.member then
      invalid_arg "Parallel_nibble: workspace smaller than the graph";
    (* every (src, b) first, in copy order: the copies draw nothing
       while they run, so this is the stream of drawing each copy
       just before running it *)
    let draws = Array.init k (fun _ -> draw params view rng) in
    let outcomes = Nibble.approximate_copies ws.copies params view draws in
    let max_overlap = Nibble.max_overlap ws.masks g outcomes in
    let aborted = max_overlap > w in
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
      List.fold_left (fun acc (o : Nibble.outcome) -> Int.max acc o.Nibble.rounds) 0 outcomes
    in
    let depth_proxy =
      List.fold_left
        (fun acc (o : Nibble.outcome) -> Int.max acc o.Nibble.steps_executed)
        1 outcomes
    in
    let congestion = Int.max 1 (Int.min max_overlap w) in
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
      { cut = [||]; rounds; copies = k; aborted; max_overlap; nibbles = outcomes }
    else begin
      (* prefix-union selection: largest i* with Vol(U_{i*}) ≤ 23/24·Vol *)
      let threshold = 23 * total_volume / 24 in
      let is_member = ws.member in
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
      List.iter (fun v -> is_member.(v) <- false) !members;
      Array.sort Int.compare cut;
      { cut; rounds; copies = k; aborted; max_overlap; nibbles = outcomes }
    end
  end
