module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Rounds = Dex_congest.Rounds

type t = {
  cut : int array;
  conductance : float;
  balance : float;
  rounds : int;
  iterations : int;
  aborted_copies : int;
}

(* Spielman–Teng's peeling loop: [step] finds a cut in G{W}, whose
   smaller side leaves W, until [cap] iterations, [idle_limit] empty
   cuts in a row, or Vol(W) ≤ (47/48)·Vol(G). [step] and [workspace]
   are Partition's ParallelNibble or the sequential loop's single
   RandomNibble. *)
let peel ?ledger ~cap ~step workspace params g rng =
  let n = Graph.num_vertices g in
  let total_volume = Graph.total_volume g in
  let threshold = 47 * total_volume / 48 in
  let in_w = Array.make n true in
  let w_volume = ref total_volume in
  let removed = ref [] in
  let rounds = ref 0 in
  let iterations = ref 0 in
  let aborted = ref 0 in
  let idle = ref 0 in
  let continue = ref true in
  (* G{W}'s view, and its id mapping, kept until a cut shrinks W *)
  let sub = ref None in
  while !continue && !iterations < cap do
    incr iterations;
    if Option.is_none !sub then begin
      let w = Metrics.vertices_of_mask in_w in
      if Array.length w > 0 then begin
        (* w ascends, so n entries are all of V, and G{V} is g *)
        let gw, mapping = if Array.length w = n then (g, w) else Graph.saturated_subgraph g w in
        sub := Some (Dex_spectral.View.make gw, mapping)
      end
    end;
    match !sub with
    | None -> continue := false
    | Some (view, mapping) ->
      let pn : Parallel_nibble.t = step ledger workspace params view rng in
      rounds := !rounds + pn.rounds;
      if pn.aborted then incr aborted;
      (* a nibble prefix may be the large side of its cut (C.3-star
         allows up to 11/12 of the volume); peeling the smaller side
         keeps the running union a clean sparse cut *)
      let cut = Metrics.smaller_side view.Dex_spectral.View.graph pn.cut in
      if Array.length cut = 0 then begin
        incr idle;
        if !idle >= params.Params.idle_limit then continue := false
      end
      else begin
        idle := 0;
        sub := None;
        (* a loop, not [Array.iter]: a closure would capture, and so
           heap-allocate, [w_volume] and [removed] on every call *)
        for i = 0 to Array.length cut - 1 do
          let v = mapping.(cut.(i)) in
          if in_w.(v) then begin
            in_w.(v) <- false;
            w_volume := !w_volume - Graph.degree g v;
            removed := v :: !removed
          end
        done;
        if !w_volume <= threshold then continue := false
      end
  done;
  let cut = Array.of_list !removed in
  Array.sort Int.compare cut;
  let conductance =
    if Array.length cut = 0 then Float.infinity else Metrics.conductance g cut
  in
  let balance = if Array.length cut = 0 then 0.0 else Metrics.balance g cut in
  { cut;
    conductance;
    balance;
    rounds = !rounds;
    iterations = !iterations;
    aborted_copies = !aborted }

let empty =
  { cut = [||];
    conductance = Float.infinity;
    balance = 0.0;
    rounds = 0;
    iterations = 0;
    aborted_copies = 0 }

let parallel_nibble ledger workspace params view rng =
  Parallel_nibble.run ?ledger ~workspace params view rng

let run ?ledger params g rng =
  let total_volume = Graph.total_volume g in
  if total_volume = 0 then empty
  else
    Rounds.span ledger "partition" @@ fun () ->
    (* the failure probability behind the iteration count: 1/n² *)
    let p = 1.0 /. Float.max 4.0 (float_of_int (Graph.num_vertices g) ** 2.0) in
    let cap = Params.partition_iterations params ~volume:total_volume ~p in
    (* one workspace, sized to g, serves every G{W}: k is monotone in
       the volume, and Vol(G{W}) ≤ Vol(G) *)
    let workspace =
      Parallel_nibble.workspace ~copies:(Params.parallel_copies params ~volume:total_volume) g
    in
    peel ?ledger ~cap ~step:parallel_nibble workspace params g rng

(* one RandomNibble as a one-copy ParallelNibble that never aborts: its
   cut, or ∅ on a miss, and its own rounds *)
let random_nibble _ workspace params view rng : Parallel_nibble.t =
  let o = Parallel_nibble.random_nibble workspace params view rng in
  { cut = (match o.Nibble.result with Some c -> c.Nibble.vertices | None -> [||]);
    rounds = o.Nibble.rounds;
    copies = 1;
    aborted = false;
    max_overlap = 0;
    nibbles = [ o ] }

let run_sequential params g rng =
  if Graph.total_volume g = 0 then empty
  else peel ~cap:64 ~step:random_nibble (Nibble.workspace g) params g rng

let certified_no_sparse_cut t = Array.length t.cut = 0

let acceptable ~bound t =
  certified_no_sparse_cut t || t.conductance <= bound

let run_verified ?ledger ~bound params g rng =
  Rounds.las_vegas ?ledger ~label:"sparse-cut" ~where:"Partition.run_verified" ~attempts:3
    ~rounds:(fun r -> r.rounds) ~accept:(acceptable ~bound)
    ~better:(fun r b -> r.conductance < b.conductance)
  @@ fun i -> run ?ledger params g (Dex_util.Rng.split rng i)
