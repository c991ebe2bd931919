module Graph = Dex_graph.Graph

(* [support] ascends strictly; [masses.(i)] is the mass at [support.(i)] *)
type sparse = { support : int array; masses : float array }

let indicator v = { support = [| v |]; masses = [| 1.0 |] }

let of_assoc pairs =
  let a = Array.of_list pairs in
  Array.sort (fun (u, _) (v, _) -> Int.compare u v) a;
  Array.iteri
    (fun i (v, _) ->
      if v < 0 then invalid_arg "Walk.of_assoc: negative vertex";
      if i > 0 && fst a.(i - 1) = v then invalid_arg "Walk.of_assoc: duplicate vertex")
    a;
  { support = Array.map fst a; masses = Array.map snd a }

let size p = Array.length p.support
let nth_vertex p i = p.support.(i)
let nth_mass p i = p.masses.(i)

let iter f p =
  for i = 0 to Array.length p.support - 1 do
    f p.support.(i) p.masses.(i)
  done

(* index of [v] in the ascending support, or -1 *)
let index p v =
  let lo = ref 0 and hi = ref (Array.length p.support) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p.support.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length p.support && p.support.(!lo) = v then !lo else -1

let mem p v = index p v >= 0

let get p v =
  let i = index p v in
  if i < 0 then 0.0 else p.masses.(i)

let degree_distribution g =
  let total = float_of_int (Graph.total_volume g) in
  Array.init (Graph.num_vertices g) (fun v -> float_of_int (Graph.degree g v) /. total)

let step_dense g p =
  let n = Graph.num_vertices g in
  let q = Array.make n 0.0 in
  for v = 0 to n - 1 do
    let mass = p.(v) in
    if mass <> 0.0 then begin
      let deg = float_of_int (Graph.degree g v) in
      if deg = 0.0 then q.(v) <- q.(v) +. mass
      else begin
        let share = mass /. (2.0 *. deg) in
        (* lazy half plus the self-loop share that walks back home *)
        q.(v) <- q.(v) +. (mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v));
        Graph.iter_neighbors g v (fun u -> q.(u) <- q.(u) +. share)
      end
    end
  done;
  q

(* ---------------- sparse steps over a dense scratch ---------------- *)

(* [acc.(v)] is meaningful only while [stamp.(v) = epoch]; bumping
   [epoch] clears the whole scratch in O(1). [touched.(0 .. count-1)]
   lists the vertices stamped in the current epoch, in first-touch
   order. *)
type workspace = {
  acc : float array;
  stamp : int array;
  touched : int array;
  mutable epoch : int;
  mutable count : int;
}

let workspace g =
  let n = Graph.num_vertices g in
  { acc = Array.make n 0.0;
    stamp = Array.make n 0;
    touched = Array.make n 0;
    epoch = 0;
    count = 0 }

(* a first touch stores [0.0 +. x], the sum a 0.0-defaulted table
   accumulator computes (it differs from [x] only at -0.0) *)
let[@inline] add ws v x =
  if ws.stamp.(v) = ws.epoch then ws.acc.(v) <- ws.acc.(v) +. x
  else begin
    ws.stamp.(v) <- ws.epoch;
    ws.acc.(v) <- 0.0 +. x;
    ws.touched.(ws.count) <- v;
    ws.count <- ws.count + 1
  end

(* Writes the touched set ascending into [ws.touched.(0 .. count-1)]:
   a stamp scan when the touched set is a large share of the vertices,
   a sort of the touched ints otherwise. *)
let sort_touched ws =
  let n = Array.length ws.stamp in
  if 8 * ws.count >= n then begin
    let j = ref 0 in
    for v = 0 to n - 1 do
      if ws.stamp.(v) = ws.epoch then begin
        ws.touched.(!j) <- v;
        incr j
      end
    done
  end
  else begin
    let sorted = Array.sub ws.touched 0 ws.count in
    Array.sort Int.compare sorted;
    Array.blit sorted 0 ws.touched 0 ws.count
  end

let step ?eps ws g p =
  if Graph.num_vertices g > Array.length ws.stamp then
    invalid_arg "Walk.step: workspace smaller than the graph";
  ws.epoch <- ws.epoch + 1;
  ws.count <- 0;
  (* ascending support, neighbours in adjacency order: this fixes the
     order of the terms summed into each vertex (DESIGN.md §12) *)
  for i = 0 to Array.length p.support - 1 do
    let v = p.support.(i) and mass = p.masses.(i) in
    let deg = float_of_int (Graph.degree g v) in
    if deg = 0.0 then add ws v mass
    else begin
      let share = mass /. (2.0 *. deg) in
      add ws v ((mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v)));
      let nbrs = Graph.neighbors g v in
      for j = 0 to Array.length nbrs - 1 do
        add ws nbrs.(j) share
      done
    end
  done;
  sort_touched ws;
  (* keep the entries that survive [\[·\]_ε], compacting in place *)
  let kept =
    match eps with
    | None -> ws.count
    | Some eps ->
      let k = ref 0 in
      for i = 0 to ws.count - 1 do
        let v = ws.touched.(i) in
        if ws.acc.(v) >= 2.0 *. eps *. float_of_int (Graph.degree g v) then begin
          ws.touched.(!k) <- v;
          incr k
        end
      done;
      !k
  in
  let support = Array.sub ws.touched 0 kept in
  let masses = Array.create_float kept in
  for i = 0 to kept - 1 do
    masses.(i) <- ws.acc.(support.(i))
  done;
  { support; masses }

let step_sparse g p = step (workspace g) g p

let truncate g ~eps p =
  let keep = ref [] in
  for i = Array.length p.support - 1 downto 0 do
    let v = p.support.(i) in
    if p.masses.(i) >= 2.0 *. eps *. float_of_int (Graph.degree g v) then keep := i :: !keep
  done;
  let keep = Array.of_list !keep in
  { support = Array.map (fun i -> p.support.(i)) keep;
    masses = Array.map (fun i -> p.masses.(i)) keep }

let walk_from g ~src ~steps =
  let n = Graph.num_vertices g in
  let p = Array.make n 0.0 in
  p.(src) <- 1.0;
  let cur = ref p in
  for _ = 1 to steps do
    cur := step_dense g !cur
  done;
  !cur

let truncated_walk g ~src ~eps ~steps =
  let ws = workspace g in
  let out = Array.make (steps + 1) (indicator src) in
  for t = 1 to steps do
    out.(t) <- step ~eps ws g out.(t - 1)
  done;
  out

let rho g p v =
  let deg = Graph.degree g v in
  if deg = 0 then 0.0
  else
    let i = index p v in
    if i < 0 then 0.0 else p.masses.(i) /. float_of_int deg

let mass p = Array.fold_left ( +. ) 0.0 p.masses
let support p = Array.copy p.support
