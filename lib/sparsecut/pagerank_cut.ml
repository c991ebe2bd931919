module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Sweep = Dex_spectral.Sweep

type t = {
  cut : int array;
  conductance : float;
  balance : float;
  pushes : int;
  support : int;
}

(* teleport probability α *)
let alpha = 0.1

let approximate_pagerank g ~src =
  let m = Int.max 1 (Graph.num_edges g) in
  (* accuracy ε = 1/(20·m) *)
  let eps = 1.0 /. (20.0 *. float_of_int m) in
  let p = Hashtbl.create 64 in
  (* the keys of [p], in no particular order *)
  let support = ref [] in
  let r = Hashtbl.create 64 in
  Hashtbl.replace r src 1.0;
  let get tbl v = try Hashtbl.find tbl v with Not_found -> 0.0 in
  let add tbl v x = Hashtbl.replace tbl v (get tbl v +. x) in
  (* work queue of vertices that may violate r(v) < eps·deg(v) *)
  let queue = Queue.create () in
  let queued = Hashtbl.create 64 in
  let enqueue v =
    if not (Hashtbl.mem queued v) then begin
      Hashtbl.replace queued v ();
      Queue.add v queue
    end
  in
  enqueue src;
  let pushes = ref 0 in
  let push_limit = 64 * m in
  while (not (Queue.is_empty queue)) && !pushes < push_limit do
    let v = Queue.take queue in
    Hashtbl.remove queued v;
    let deg = float_of_int (Graph.degree g v) in
    let rv = get r v in
    if deg > 0.0 && rv >= eps *. deg then begin
      incr pushes;
      (* lazy ACL push: p += alpha·r(v); half of the rest stays, half
         spreads over incident edges (self-loops included) *)
      if not (Hashtbl.mem p v) then support := v :: !support;
      add p v (alpha *. rv);
      let rest = (1.0 -. alpha) *. rv in
      Hashtbl.replace r v (rest /. 2.0);
      let share = rest /. 2.0 /. deg in
      (* the self-loop share also stays home *)
      if Graph.self_loops g v > 0 then
        add r v (share *. float_of_int (Graph.self_loops g v));
      Graph.iter_neighbors g v (fun u ->
          add r u share;
          let du = float_of_int (Graph.degree g u) in
          if du > 0.0 && get r u >= eps *. du then enqueue u);
      let dv = float_of_int (Graph.degree g v) in
      if get r v >= eps *. dv then enqueue v
    end
  done;
  (List.map (fun v -> (v, Hashtbl.find p v)) !support, !pushes)

let run g ~src =
  let p, pushes = approximate_pagerank g ~src in
  if p = [] then None
  else begin
    let dist = Dex_spectral.Walk.of_assoc p in
    let sweep = Sweep.scan g dist in
    match Sweep.best sweep with
    | None -> None
    | Some j ->
      let vertices = Sweep.take sweep j in
      Array.sort Int.compare vertices;
      Some
        { cut = vertices;
          conductance = sweep.Sweep.conductance.(j - 1);
          balance = Metrics.balance g vertices;
          pushes;
          support = List.length p }
  end
