let mask_of g s =
  let mask = Array.make (Graph.num_vertices g) false in
  Array.iter
    (fun v ->
      if v < 0 || v >= Graph.num_vertices g then
        invalid_arg "Metrics: vertex out of range";
      mask.(v) <- true)
    s;
  mask

let vertices_of_mask mask =
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask in
  let out = Array.make count 0 in
  let i = ref 0 in
  Array.iteri
    (fun v b ->
      if b then begin
        out.(!i) <- v;
        incr i
      end)
    mask;
  out

let difference g u s =
  let mask = mask_of g s in
  let out = Array.make (Array.fold_left (fun k v -> if mask.(v) then k else k + 1) 0 u) 0 in
  let i = ref 0 in
  Array.iter
    (fun v ->
      if not mask.(v) then begin
        out.(!i) <- v;
        incr i
      end)
    u;
  out

let complement g s = difference g (Array.init (Graph.num_vertices g) Fun.id) s

let smaller_side g s = if 2 * Graph.volume g s > Graph.total_volume g then complement g s else s

let cut_size_mask g (mask : bool array) =
  let crossing = ref 0 in
  Graph.iter_edges g (fun u v -> if u <> v && mask.(u) <> mask.(v) then incr crossing);
  !crossing

let cut_size g s = cut_size_mask g (mask_of g s)

let conductance g s =
  let vol_s = Graph.volume g s in
  let vol_rest = Graph.total_volume g - vol_s in
  let small = Int.min vol_s vol_rest in
  if small <= 0 then Float.infinity
  else float_of_int (cut_size g s) /. float_of_int small

let balance g s =
  let total = Graph.total_volume g in
  if total = 0 then 0.0
  else begin
    let vol_s = Graph.volume g s in
    float_of_int (Int.min vol_s (total - vol_s)) /. float_of_int total
  end

(* the one breadth-first search of lib/graph and lib/ldd; see the .mli *)
let bfs ?mask ?label g ~dist ~queue ~sources ~limit =
  let tail = ref 0 in
  for i = 0 to sources - 1 do
    let s = queue.(i) in
    if dist.(s) = max_int && (match mask with None -> true | Some m -> m.(s)) then begin
      dist.(s) <- 0;
      queue.(!tail) <- s;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) in
    if dv < limit then begin
      let a = Graph.neighbors g v in
      for i = 0 to Array.length a - 1 do
        let u = a.(i) in
        if dist.(u) = max_int && (match mask with None -> true | Some m -> m.(u)) then begin
          dist.(u) <- dv + 1;
          (match label with None -> () | Some l -> l.(u) <- l.(v));
          queue.(!tail) <- u;
          incr tail
        end
      done
    end
  done;
  !tail

let connected_components g =
  let n = Graph.num_vertices g in
  let dist = Array.make n max_int in
  let queue = Array.make n 0 in
  let comps = ref [] in
  for src = 0 to n - 1 do
    if dist.(src) = max_int then begin
      queue.(0) <- src;
      let k = bfs g ~dist ~queue ~sources:1 ~limit:max_int in
      let arr = Array.sub queue 0 k in
      Array.sort Int.compare arr;
      comps := arr :: !comps
    end
  done;
  List.sort (fun a b -> Int.compare (Array.length b) (Array.length a)) !comps

let is_connected g =
  match connected_components g with [] | [ _ ] -> true | _ -> false

let bfs_distances g src =
  let n = Graph.num_vertices g in
  let dist = Array.make n max_int in
  let queue = Array.make n 0 in
  queue.(0) <- src;
  ignore (bfs g ~dist ~queue ~sources:1 ~limit:max_int : int);
  dist

let eccentricity g v =
  let dist = bfs_distances g v in
  Array.fold_left
    (fun acc d ->
      if d = max_int then failwith "Metrics.eccentricity: disconnected graph"
      else Int.max acc d)
    0 dist

let diameter g =
  let n = Graph.num_vertices g in
  if n <= 1 then 0
  else begin
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := Int.max !best (eccentricity g v)
    done;
    !best
  end

let subset_diameter g s =
  if Array.length s = 0 then failwith "Metrics.subset_diameter: empty subset";
  let sub, _ = Graph.induced_subgraph g s in
  diameter sub

let degeneracy g =
  let n = Graph.num_vertices g in
  if n = 0 then 0
  else begin
    (* standard bucket-queue core decomposition, O(n + m) *)
    let deg = Array.init n (fun v -> Graph.plain_degree g v) in
    let maxdeg = Array.fold_left Int.max 0 deg in
    let buckets = Array.make (maxdeg + 1) [] in
    Array.iteri (fun v d -> buckets.(d) <- v :: buckets.(d)) deg;
    let removed = Array.make n false in
    let result = ref 0 in
    let cursor = ref 0 in
    for _ = 1 to n do
      while !cursor <= maxdeg && buckets.(!cursor) = [] do
        incr cursor
      done;
      (* buckets may hold stale entries; skip them *)
      let rec take () =
        match buckets.(!cursor) with
        | [] ->
          incr cursor;
          while !cursor <= maxdeg && buckets.(!cursor) = [] do
            incr cursor
          done;
          take ()
        | v :: rest ->
          buckets.(!cursor) <- rest;
          if removed.(v) || deg.(v) <> !cursor then take () else v
      in
      let v = take () in
      removed.(v) <- true;
      result := Int.max !result deg.(v);
      Graph.iter_neighbors g v (fun u ->
          if not removed.(u) then begin
            deg.(u) <- deg.(u) - 1;
            buckets.(deg.(u)) <- u :: buckets.(deg.(u));
            if deg.(u) < !cursor then cursor := deg.(u)
          end)
    done;
    !result
  end

let check_partition g parts =
  let n = Graph.num_vertices g in
  let seen = Array.make n false in
  List.iter
    (fun part ->
      Array.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Metrics.check_partition: vertex out of range";
          if seen.(v) then invalid_arg "Metrics.check_partition: vertex appears twice";
          seen.(v) <- true)
        part)
    parts;
  Array.iteri
    (fun v covered ->
      if not covered then
        invalid_arg (Printf.sprintf "Metrics.check_partition: vertex %d uncovered" v))
    seen

let inter_component_edges g parts =
  check_partition g parts;
  let label = Array.make (Graph.num_vertices g) (-1) in
  List.iteri (fun i part -> Array.iter (fun v -> label.(v) <- i) part) parts;
  let crossing = ref 0 in
  Graph.iter_edges g (fun u v -> if u <> v && label.(u) <> label.(v) then incr crossing);
  !crossing
