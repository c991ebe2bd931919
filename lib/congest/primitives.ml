module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex

type tree = {
  root : int;
  parent : int array;
  depth : int array;
  height : int;
  members : int array;
}

type bfs_state = { dist : int; par : int; pending : bool }

let bfs g ~root =
  let root = Vertex.local_int root in
  let init v =
    if v = root then { dist = 0; par = root; pending = true }
    else { dist = max_int; par = -1; pending = false }
  in
  let step ~round:_ ~vertex:v st ib ob =
    let v = Vertex.local_int v in
    (* adopt the smallest advertised distance on first contact, ties
       toward the smaller sender: the inbox order cannot matter *)
    let st =
      if st.dist = max_int then begin
        let best = ref st in
        Arena.Inbox.iter1 ib (fun sender w ->
            let d = w + 1 in
            if d < !best.dist || (d = !best.dist && sender < !best.par) then
              best := { dist = d; par = sender; pending = true });
        !best
      end
      else st
    in
    if st.pending then begin
      Graph.iter_neighbors g v (fun u ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local u) st.dist);
      { st with pending = false }
    end
    else st
  in
  { Conformance.init; step }

let tree ~root ~parent ~depth =
  let height = Array.fold_left (fun acc d -> if d = max_int then acc else Int.max acc d) 0 depth in
  let members =
    List.filter (fun v -> depth.(v) <> max_int) (List.init (Array.length depth) Fun.id)
  in
  { root = Vertex.local_int root; parent; depth; height; members = Array.of_list members }

type leader_state = { best : int; fresh : bool }

let leader g =
  let init v = { best = v; fresh = true } in
  let step ~round:_ ~vertex:v st ib ob =
    let v = Vertex.local_int v in
    let best = ref st.best in
    Arena.Inbox.iter1 ib (fun _ w -> if w < !best then best := w);
    let best = !best in
    let improved = best < st.best || st.fresh in
    if improved then
      Graph.iter_neighbors g v (fun u ->
          Arena.Outbox.send1 ob ~dst:(Vertex.local u) best);
    { best; fresh = false }
  in
  { Conformance.init; step }
