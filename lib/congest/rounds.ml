module Trace = Dex_obs.Trace

type node = {
  name : string;
  mutable self : int; (* rounds charged directly at this node *)
  mutable charged : bool; (* named as a charge label, possibly for 0 rounds *)
  mutable wall_ns : int; (* simulator wall-clock spent while this span was innermost-opened *)
  mutable sub : node list; (* reversed creation order *)
}

type t = {
  mutable total : int;
  root : node;
  mutable stack : node list; (* innermost open span first *)
  mutable trace : Trace.t option;
}

type tree = { span : string; rounds : int; self : int; wall_ns : int; children : tree list }

let fresh_node name = { name; self = 0; charged = false; wall_ns = 0; sub = [] }

let create () =
  { total = 0;
    root = fresh_node "total";
    stack = [];
    trace = None }

let attach_trace t trace = t.trace <- trace
let trace t = t.trace

let current t = match t.stack with n :: _ -> n | [] -> t.root

let child_named parent name =
  match List.find_opt (fun n -> n.name = name) parent.sub with
  | Some n -> n
  | None ->
    let n = fresh_node name in
    parent.sub <- n :: parent.sub;
    n

let charge t ~label k =
  Dex_util.Invariant.require (k >= 0) ~where:"Rounds.charge" "negative round count";
  t.total <- t.total + k;
  let leaf = child_named (current t) label in
  leaf.charged <- true;
  leaf.self <- leaf.self + k

let span t name f =
  match t with
  | None -> f ()
  | Some t ->
    let node = child_named (current t) name in
    t.stack <- node :: t.stack;
    let before = t.total in
    let id =
      match t.trace with
      | Some tr -> Trace.span_open tr ~name ~rounds_before:before
      | None -> -1
    in
    let t0 = Dex_obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let wall = Dex_obs.Clock.now_ns () - t0 in
        node.wall_ns <- node.wall_ns + wall;
        (match t.stack with
        | top :: rest when top == node -> t.stack <- rest
        | stack ->
          (* an exception may have skipped inner pops: unwind past [node] *)
          let rec unwind = function
            | top :: rest -> if top == node then rest else unwind rest
            | [] -> []
          in
          t.stack <- unwind stack);
        match t.trace with
        | Some tr -> Trace.span_close tr ~id ~name ~rounds:(t.total - before) ~wall_ns:wall
        | None -> ())
      f

let total t = t.total

let by_phase t =
  (* a label's rounds are spread over one charge node per span path it
     was charged under: gather them, sum per label, then order
     descending by cost with ties on label, so bench tables are stable
     across runs *)
  let rec charges acc node =
    List.fold_left charges (if node.charged then (node.name, node.self) :: acc else acc) node.sub
  in
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) (charges [] t.root)
  |> List.fold_left
       (fun acc (label, k) ->
         match acc with
         | (l, sum) :: rest when String.equal l label -> (l, sum + k) :: rest
         | _ -> (label, k) :: acc)
       []
  |> List.sort (fun (la, a) (lb, b) ->
         if a <> b then Int.compare b a else String.compare la lb)

let tree t =
  let rec freeze node =
    let children = List.rev_map freeze node.sub in
    let rounds =
      List.fold_left (fun acc (c : tree) -> acc + c.rounds) node.self children
    in
    { span = node.name; rounds; self = node.self; wall_ns = node.wall_ns; children }
  in
  freeze t.root

type 'a verified = { value : 'a; attempts : int; rounds_total : int }

let las_vegas ?ledger ~label ~where ~attempts ~rounds ~accept ?better f =
  Dex_util.Invariant.require (attempts >= 1) ~where "attempts must be >= 1";
  let rec go i rounds_total kept =
    let v = span ledger (Printf.sprintf "attempt-%d" i) (fun () -> f i) in
    let rounds_total = rounds_total + rounds v in
    let ok = accept v in
    Option.iter (fun tr -> Trace.retry tr ~label ~attempt:i ~certified:ok)
      (Option.bind ledger trace);
    (* with [better], keep the first best attempt; otherwise the last *)
    let kept = match (kept, better) with Some k, Some b when not (b v k) -> k | _ -> v in
    if ok then Ok { value = v; attempts = i; rounds_total }
    else if i >= attempts then Error { value = kept; attempts = i; rounds_total }
    else go (i + 1) rounds_total (Some kept)
  in
  go 1 0 None
