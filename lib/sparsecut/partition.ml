module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Rounds = Dex_congest.Rounds
module Trace = Dex_obs.Trace

type t = {
  cut : int array;
  conductance : float;
  balance : float;
  rounds : int;
  iterations : int;
  aborted_copies : int;
}

(* runs [f] inside a ledger span when a ledger is present *)
let in_span ledger name f =
  match ledger with Some l -> Rounds.with_span l name f | None -> f ()

let run ?p ?ledger params g rng =
  let n = Graph.num_vertices g in
  let total_volume = Graph.total_volume g in
  let p =
    match p with
    | Some p -> p
    | None -> 1.0 /. Float.max 4.0 (float_of_int n ** 2.0)
  in
  if total_volume = 0 then
    { cut = [||];
      conductance = Float.infinity;
      balance = 0.0;
      rounds = 0;
      iterations = 0;
      aborted_copies = 0 }
  else
    in_span ledger "partition" @@ fun () ->
    let s = Params.partition_iterations params ~volume:total_volume ~p in
    let threshold = 47 * total_volume / 48 in
    let in_w = Array.make n true in
    let w_volume = ref total_volume in
    let removed = ref [] in
    let rounds = ref 0 in
    let iterations = ref 0 in
    let aborted = ref 0 in
    let idle = ref 0 in
    let continue = ref true in
    (* one Nibble workspace, sized to g, serves every G{W} *)
    let workspace = Nibble.workspace g in
    (* G{W} and its id mapping, kept until a cut shrinks W *)
    let sub = ref None in
    while !continue && !iterations < s do
      incr iterations;
      if Option.is_none !sub then begin
        let w = Metrics.vertices_of_mask in_w in
        if Array.length w > 0 then sub := Some (Graph.saturated_subgraph g w)
      end;
      match !sub with
      | None -> continue := false
      | Some (gw, mapping) ->
        let pn = Parallel_nibble.run ?ledger ~workspace params gw rng in
        rounds := !rounds + pn.Parallel_nibble.rounds;
        if pn.Parallel_nibble.aborted then incr aborted;
        let cut = pn.Parallel_nibble.cut in
        (* a nibble prefix may be the large side of its cut (C.3-star
           allows up to 11/12 of the volume); peel the smaller side so
           the running union stays a clean sparse cut *)
        let cut =
          if 2 * Graph.volume gw cut > Graph.total_volume gw then begin
            let outside = Array.make (Graph.num_vertices gw) true in
            Array.iter (fun v -> outside.(v) <- false) cut;
            Metrics.vertices_of_mask outside
          end
          else cut
        in
        if Array.length cut = 0 then begin
          incr idle;
          if !idle >= params.Params.idle_limit then continue := false
        end
        else begin
          idle := 0;
          sub := None;
          Array.iter
            (fun sub_v ->
              let v = mapping.(sub_v) in
              if in_w.(v) then begin
                in_w.(v) <- false;
                w_volume := !w_volume - Graph.degree g v;
                removed := v :: !removed
              end)
            cut;
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

let certified_no_sparse_cut t = Array.length t.cut = 0

type attempt_outcome = { value : t; attempts : int; rounds_total : int }

let acceptable ~bound t =
  certified_no_sparse_cut t || t.conductance <= bound

let run_verified ?(attempts = 3) ?p ?ledger ~bound params g rng =
  if attempts < 1 then invalid_arg "Partition.run_verified: attempts must be >= 1";
  let module Rng = Dex_util.Rng in
  let retry certified i =
    match ledger with
    | Some l ->
      (match Rounds.trace l with
      | Some tr -> Trace.retry tr ~label:"sparse-cut" ~attempt:i ~certified
      | None -> ())
    | None -> ()
  in
  let rounds_total = ref 0 in
  let best = ref None in
  let rec go i =
    let r =
      in_span ledger (Printf.sprintf "attempt-%d" i) @@ fun () ->
      run ?p ?ledger params g (Rng.split rng i)
    in
    rounds_total := !rounds_total + r.rounds;
    (match !best with
    | Some b when b.conductance <= r.conductance -> ()
    | _ -> best := Some r);
    let ok = acceptable ~bound r in
    retry ok i;
    if ok then Ok { value = r; attempts = i; rounds_total = !rounds_total }
    else if i >= attempts then
      let b = match !best with Some b -> b | None -> r in
      Error { value = b; attempts = i; rounds_total = !rounds_total }
    else go (i + 1)
  in
  go 1
