module Rng = Dex_util.Rng

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let path n =
  if n < 1 then invalid_arg "Generators.path: need n >= 1";
  Graph.of_edges ~n (List.init (Int.max 0 (n - 1)) (fun i -> (i, i + 1)))

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Graph.of_edges ~n:(rows * cols) !edges

let gnp rng ~n ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Generators.gnp: p out of range";
  let edges = ref [] in
  if p > 0.2 then
    (* dense regime: direct Bernoulli per pair *)
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Rng.bernoulli rng p then edges := (u, v) :: !edges
      done
    done
  else if p > 0.0 then begin
    (* sparse regime: geometric skipping over the pair enumeration *)
    let total = n * (n - 1) / 2 in
    let pos = ref (Rng.geometric rng p) in
    let unrank k =
      (* pair index k (0-based, row-major over u < v) -> (u, v) *)
      let rec row u k =
        let row_len = n - 1 - u in
        if k < row_len then (u, u + 1 + k) else row (u + 1) (k - row_len)
      in
      row 0 k
    in
    while !pos < total do
      edges := unrank !pos :: !edges;
      pos := !pos + 1 + Rng.geometric rng p
    done
  end;
  Graph.of_edges ~n !edges

let random_regular rng ~n ~d =
  if d < 0 || d >= n then invalid_arg "Generators.random_regular: need 0 <= d < n";
  if n * d mod 2 = 1 then invalid_arg "Generators.random_regular: n*d must be even";
  (* pairing model with bounded restarts; drop conflicting stubs on the
     final attempt so we always terminate with a near-regular graph *)
  let attempt ~strict =
    let stubs = Array.make (n * d) 0 in
    for i = 0 to (n * d) - 1 do
      stubs.(i) <- i / d
    done;
    Rng.shuffle rng stubs;
    let seen = Hashtbl.create (n * d) in
    let edges = ref [] in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i + 1 < n * d do
      let u = stubs.(!i) and v = stubs.(!i + 1) in
      let key = (Int.min u v, Int.max u v) in
      if u = v || Hashtbl.mem seen key then begin
        if strict then ok := false
      end
      else begin
        Hashtbl.replace seen key ();
        edges := key :: !edges
      end;
      i := !i + 2
    done;
    if !ok then Some !edges else None
  in
  let rec go tries =
    if tries = 0 then
      match attempt ~strict:false with
      | Some edges -> Graph.of_edges ~n edges
      | None -> assert false
    else
      match attempt ~strict:true with
      | Some edges -> Graph.of_edges ~n edges
      | None -> go (tries - 1)
  in
  go 20

let barbell ~clique ~bridge =
  if clique < 2 then invalid_arg "Generators.barbell: clique size >= 2";
  let n = (2 * clique) + bridge in
  let edges = ref [] in
  let add_clique offset =
    for u = 0 to clique - 1 do
      for v = u + 1 to clique - 1 do
        edges := (offset + u, offset + v) :: !edges
      done
    done
  in
  add_clique 0;
  add_clique (clique + bridge);
  (* path through the bridge vertices (possibly zero of them) *)
  let left_anchor = clique - 1 and right_anchor = clique + bridge in
  let prev = ref left_anchor in
  for i = 0 to bridge - 1 do
    edges := (!prev, clique + i) :: !edges;
    prev := clique + i
  done;
  edges := (!prev, right_anchor) :: !edges;
  Graph.of_edges ~n !edges

let dumbbell rng ~n1 ~n2 ~d ~bridges =
  if bridges < 1 then invalid_arg "Generators.dumbbell: need >= 1 bridge";
  let fix_parity n = if n * d mod 2 = 1 then n + 1 else n in
  let n1 = fix_parity n1 and n2 = fix_parity n2 in
  let g1 = random_regular rng ~n:n1 ~d in
  let g2 = random_regular rng ~n:n2 ~d in
  let edges = ref [] in
  Graph.iter_edges g1 (fun u v -> edges := (u, v) :: !edges);
  Graph.iter_edges g2 (fun u v -> edges := (n1 + u, n1 + v) :: !edges);
  let used = Hashtbl.create (2 * bridges) in
  let planted = ref 0 in
  while !planted < bridges do
    let u = Rng.int rng n1 and v = n1 + Rng.int rng n2 in
    if not (Hashtbl.mem used (u, v)) then begin
      Hashtbl.replace used (u, v) ();
      edges := (u, v) :: !edges;
      incr planted
    end
  done;
  Graph.of_edges ~n:(n1 + n2) !edges

let planted_partition rng ~parts ~size ~p_in ~p_out =
  if parts < 1 || size < 1 then invalid_arg "Generators.planted_partition";
  let n = parts * size in
  let block v = v / size in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let p = if block u = block v then p_in else p_out in
      if Rng.bernoulli rng p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let chung_lu rng ~n ~exponent ~avg_degree =
  if exponent <= 2.0 then invalid_arg "Generators.chung_lu: exponent must exceed 2";
  let i0 = 10.0 in
  let w = Array.init n (fun i -> (float_of_int i +. i0) ** (-1.0 /. (exponent -. 1.0))) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let scale = avg_degree *. float_of_int n /. total in
  let w = Array.map (fun x -> x *. scale) w in
  let total = Array.fold_left ( +. ) 0.0 w in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let p = Float.min 1.0 (w.(u) *. w.(v) /. total) in
      if p >= 1e-7 && Rng.bernoulli rng p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let cliques_chain ~cliques ~size =
  if cliques < 1 || size < 2 then invalid_arg "Generators.cliques_chain";
  let n = cliques * size in
  let edges = ref [] in
  for c = 0 to cliques - 1 do
    let offset = c * size in
    for u = 0 to size - 1 do
      for v = u + 1 to size - 1 do
        edges := (offset + u, offset + v) :: !edges
      done
    done;
    if c + 1 < cliques then edges := (offset + size - 1, offset + size) :: !edges
  done;
  Graph.of_edges ~n !edges

let binary_tree depth =
  if depth < 0 then invalid_arg "Generators.binary_tree";
  let n = (1 lsl (depth + 1)) - 1 in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, (v - 1) / 2) :: !edges
  done;
  Graph.of_edges ~n !edges

let attach_warts rng g ~warts ~size =
  if warts < 0 || size < 2 then invalid_arg "Generators.attach_warts";
  let n = Graph.num_vertices g in
  let edges = ref (Graph.edges g) in
  for w = 0 to warts - 1 do
    let offset = n + (w * size) in
    for u = 0 to size - 1 do
      for v = u + 1 to size - 1 do
        edges := (offset + u, offset + v) :: !edges
      done
    done;
    edges := (Rng.int rng n, offset) :: !edges
  done;
  Graph.of_edges ~n:(n + (warts * size)) !edges

let connectivize rng g =
  let comps = Metrics.connected_components g in
  match comps with
  | [] | [ _ ] -> g
  | first :: rest ->
    let extra =
      List.map
        (fun comp -> (Rng.choose rng first, Rng.choose rng comp))
        rest
    in
    let all = List.rev_append (Graph.edges g) extra in
    Graph.of_edges ~n:(Graph.num_vertices g) all
