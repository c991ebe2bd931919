type t = {
  n : int;
  adj : int array array; (* sorted neighbor lists, self-loops excluded *)
  loops : int array; (* self-loop count per vertex *)
  plain_m : int; (* number of non-loop undirected edges *)
  loop_m : int; (* number of self-loops *)
}

let num_vertices g = g.n
let num_plain_edges g = g.plain_m
let num_edges g = g.plain_m + g.loop_m
let plain_degree g v = Array.length g.adj.(v)
let self_loops g v = g.loops.(v)
let degree g v = Array.length g.adj.(v) + g.loops.(v)
let neighbors g v = g.adj.(v)

let iter_neighbors g v f =
  let a = g.adj.(v) in
  for i = 0 to Array.length a - 1 do
    f a.(i)
  done

let build ~n ~count_edge =
  (* two passes over the edge source: degree count then fill *)
  let deg = Array.make n 0 in
  let loops = Array.make n 0 in
  let loop_m = ref 0 in
  let plain_m = ref 0 in
  count_edge (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then begin
        loops.(u) <- loops.(u) + 1;
        incr loop_m
      end
      else begin
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1;
        incr plain_m
      end);
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  count_edge (fun u v ->
      if u <> v then begin
        adj.(u).(fill.(u)) <- v;
        fill.(u) <- fill.(u) + 1;
        adj.(v).(fill.(v)) <- u;
        fill.(v) <- fill.(v) + 1
      end);
  Array.iter (fun a -> Array.sort Int.compare a) adj;
  { n; adj; loops; plain_m = !plain_m; loop_m = !loop_m }

let of_edges ~n edges = build ~n ~count_edge:(fun f -> List.iter (fun (u, v) -> f u v) edges)

(* CSR addressing: the concatenation of the per-vertex sorted neighbor
   arrays is the canonical enumeration of the 2*plain_m directed edges,
   and [off.(v) + i] is the global index ("slot") of the i-th directed
   edge out of [v]. The CONGEST kernel's message arena allocates one
   message slot per directed edge at exactly these indices. *)
let csr_offsets g =
  let off = Array.make (g.n + 1) 0 in
  for v = 0 to g.n - 1 do
    off.(v + 1) <- off.(v) + Array.length g.adj.(v)
  done;
  off

let neighbor_rank g v u =
  (* leftmost occurrence, so parallel edges map to one canonical rank *)
  let a = g.adj.(v) in
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < u then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = u then !lo else -1

let iter_edges g f =
  for u = 0 to g.n - 1 do
    for _ = 1 to g.loops.(u) do
      f u u
    done;
    let a = g.adj.(u) in
    for i = 0 to Array.length a - 1 do
      if a.(i) >= u then f u a.(i)
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let fold_vertices g init f =
  let acc = ref init in
  for v = 0 to g.n - 1 do
    acc := f !acc v
  done;
  !acc

let volume g vs = Array.fold_left (fun acc v -> acc + degree g v) 0 vs
let total_volume g = (2 * g.plain_m) + g.loop_m

(* G[S] or G{S}: each member's adjacency filtered to S and renamed in
   place, so no edge list is built. With [s] ascending the renaming
   keeps each filtered array sorted; otherwise it is sorted after. *)
let subgraph_generic g s ~saturate =
  let k = Array.length s in
  let id_of = Array.make g.n (-1) in
  let ascending = ref true in
  for i = 0 to k - 1 do
    let v = s.(i) in
    if v < 0 || v >= g.n then invalid_arg "Graph: subset vertex out of range";
    if id_of.(v) >= 0 then invalid_arg "Graph: duplicate subset vertex";
    id_of.(v) <- i;
    if i > 0 && s.(i - 1) > v then ascending := false
  done;
  let loops = Array.make k 0 in
  let adj = Array.make k [||] in
  let plain = ref 0 in
  for i = 0 to k - 1 do
    let v = s.(i) in
    let a = g.adj.(v) in
    let kept = ref 0 in
    for j = 0 to Array.length a - 1 do
      if id_of.(a.(j)) >= 0 then incr kept
    done;
    let b = Array.make !kept 0 in
    let c = ref 0 in
    for j = 0 to Array.length a - 1 do
      let u = id_of.(a.(j)) in
      if u >= 0 then begin
        b.(!c) <- u;
        incr c
      end
    done;
    if not !ascending then Array.sort Int.compare b;
    adj.(i) <- b;
    plain := !plain + !kept;
    loops.(i) <- g.loops.(v) + (if saturate then Array.length a - !kept else 0)
  done;
  let loop_m = Array.fold_left ( + ) 0 loops in
  ({ n = k; adj; loops; plain_m = !plain / 2; loop_m }, Array.copy s)

let induced_subgraph g s = subgraph_generic g s ~saturate:false
let saturated_subgraph g s = subgraph_generic g s ~saturate:true

(* [dead] as sorted keys u·n + v with u < v; an entry with an endpoint
   outside the graph matches no edge, so it becomes [max_int], which no
   key reaches. Adjacency arrays that lose nothing are shared with [g]. *)
let remove_edges g dead =
  let n = g.n in
  let keys = Array.make (List.length dead) max_int in
  List.iteri
    (fun i (u, v) ->
      if u <> v && u >= 0 && u < n && v >= 0 && v < n then
        keys.(i) <- (Int.min u v * n) + Int.max u v)
    dead;
  Array.sort Int.compare keys;
  let is_dead u v =
    let key = (Int.min u v * n) + Int.max u v in
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if keys.(mid) < key then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length keys && keys.(!lo) = key
  in
  if Array.length keys = 0 || keys.(0) = max_int then g
  else begin
    let loops = Array.copy g.loops in
    let removed = ref 0 in
    let adj =
      Array.mapi
        (fun u a ->
          let drop = ref 0 in
          for i = 0 to Array.length a - 1 do
            if is_dead u a.(i) then incr drop
          done;
          if !drop = 0 then a
          else begin
            let b = Array.make (Array.length a - !drop) 0 in
            let c = ref 0 in
            for i = 0 to Array.length a - 1 do
              if not (is_dead u a.(i)) then begin
                b.(!c) <- a.(i);
                incr c
              end
            done;
            loops.(u) <- loops.(u) + !drop;
            removed := !removed + !drop;
            b
          end)
        g.adj
    in
    { n; adj; loops; plain_m = g.plain_m - (!removed / 2); loop_m = g.loop_m + !removed }
  end
