module Graph = Dex_graph.Graph

type prefix = {
  len : int;
  volume : int;
  cut : int;
  conductance : float;
  last_rho : float;
}

type t = { ordered : int array; prefixes : prefix array }

let take sweep j =
  if j < 0 || j > Array.length sweep.ordered then invalid_arg "Sweep.take";
  Array.sub sweep.ordered 0 j

(* the support of [p] with positive degree, ordered by decreasing ρ
   (ties by vertex id), and the aligned ρ values *)
let order_with_rho g p =
  let entries = ref [] in
  for i = Walk.size p - 1 downto 0 do
    let v = Walk.nth_vertex p i in
    let deg = Graph.degree g v in
    if deg > 0 then entries := (v, Walk.nth_mass p i /. float_of_int deg) :: !entries
  done;
  let entries = Array.of_list !entries in
  Array.stable_sort
    (fun (v1, r1) (v2, r2) -> match Float.compare r2 r1 with 0 -> Int.compare v1 v2 | c -> c)
    entries;
  (Array.map fst entries, Array.map snd entries)

let order g p = fst (order_with_rho g p)

(* [rhos.(j)] is the ρ of [ordered.(j)], reported as the prefix's
   [last_rho] *)
let scan_order g ordered rhos =
  let total_volume = Graph.total_volume g in
  let n = Array.length ordered in
  let in_set = Array.make (Graph.num_vertices g) false in
  let volume = ref 0 in
  let cut = ref 0 in
  let dummy = { len = 0; volume = 0; cut = 0; conductance = 0.0; last_rho = 0.0 } in
  let prefixes = Array.make n dummy in
  for j = 0 to n - 1 do
    let v = ordered.(j) in
    let inside = ref 0 in
    let nbrs = Graph.neighbors g v in
    for i = 0 to Array.length nbrs - 1 do
      if in_set.(nbrs.(i)) then incr inside
    done;
    in_set.(v) <- true;
    volume := !volume + Graph.degree g v;
    cut := !cut + Graph.plain_degree g v - (2 * !inside);
    let small = min !volume (total_volume - !volume) in
    let conductance =
      if small <= 0 then Float.infinity else float_of_int !cut /. float_of_int small
    in
    prefixes.(j) <-
      { len = j + 1; volume = !volume; cut = !cut; conductance; last_rho = rhos.(j) }
  done;
  { ordered; prefixes }

let scan g p =
  let ordered, rhos = order_with_rho g p in
  scan_order g ordered rhos

let best_cut g p =
  let sweep = scan g p in
  let best = ref None in
  Array.iter
    (fun pref ->
      if Float.is_finite pref.conductance then
        match !best with
        | None -> best := Some pref
        | Some b -> if pref.conductance < b.conductance then best := Some pref)
    sweep.prefixes;
  Option.map (fun pref -> (sweep, pref.len)) !best

let scan_vector g x =
  let n = Graph.num_vertices g in
  let idx = Array.init n (fun v -> v) in
  Array.sort
    (fun a b -> match Float.compare x.(b) x.(a) with 0 -> Int.compare a b | c -> c)
    idx;
  scan_order g idx (Array.map (fun v -> x.(v)) idx)
