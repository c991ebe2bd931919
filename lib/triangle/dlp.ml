module Graph = Dex_graph.Graph

type result = {
  triangles : Exact.triangle list;
  complete : bool;
  rounds : int;
  groups : int;
  triples : int;
  max_receive_words : int;
  max_send_words : int;
}

let group_of ~n ~groups v =
  if n = 0 then 0 else Int.min (groups - 1) (v * groups / n)

(* index of the unordered triple (a ≤ b ≤ c) in the enumeration order
   used to assign triples to vertices round-robin *)
let triple_list groups =
  let acc = ref [] in
  for a = 0 to groups - 1 do
    for b = a to groups - 1 do
      for c = b to groups - 1 do
        acc := (a, b, c) :: !acc
      done
    done
  done;
  Array.of_list (List.rev !acc)

let compare_pair (a, b) (c, d) =
  let k = Int.compare a c in
  if k <> 0 then k else Int.compare b d

let compare_triangle (a, b, c) (d, e, f) =
  let k = Int.compare a d in
  if k <> 0 then k
  else
    let k = Int.compare b e in
    if k <> 0 then k else Int.compare c f

let run g =
  let n = Graph.num_vertices g in
  if n = 0 then
    { triangles = [];
      complete = true;
      rounds = 0;
      groups = 0;
      triples = 0;
      max_receive_words = 0;
      max_send_words = 0 }
  else begin
    let groups = Int.max 1 (int_of_float (Float.ceil (float_of_int n ** (1.0 /. 3.0)))) in
    let grp = group_of ~n ~groups in
    let triples = triple_list groups in
    let t_count = Array.length triples in
    let owner i = i mod n in
    (* per group-pair edge counts from the real graph; pair key (a ≤ b) *)
    let pair_edges = Hashtbl.create (groups * groups) in
    Graph.iter_edges g (fun u v ->
        if u <> v then begin
          let a = grp u and b = grp v in
          let key = (Int.min a b, Int.max a b) in
          Hashtbl.replace pair_edges key
            (1 + try Hashtbl.find pair_edges key with Not_found -> 0)
        end);
    let pair_count key = try Hashtbl.find pair_edges key with Not_found -> 0 in
    (* interest: how many owners need each pair (an owner of (A,B,C)
       needs pairs AB, BC, AC — deduplicated when groups repeat) *)
    let pair_interest = Hashtbl.create (groups * groups) in
    let receive = Array.make n 0 in
    Array.iteri
      (fun i (a, b, c) ->
        let v = owner i in
        let pairs = List.sort_uniq compare_pair [ (a, b); (b, c); (a, c) ] in
        List.iter
          (fun key ->
            receive.(v) <- receive.(v) + pair_count key;
            Hashtbl.replace pair_interest key
              (1 + try Hashtbl.find pair_interest key with Not_found -> 0))
          pairs)
      triples;
    (* sending load: the lower endpoint of each edge ships it to every
       interested owner *)
    let send = Array.make n 0 in
    Graph.iter_edges g (fun u v ->
        if u <> v then begin
          let key = (Int.min (grp u) (grp v), Int.max (grp u) (grp v)) in
          let interest = try Hashtbl.find pair_interest key with Not_found -> 0 in
          send.(Int.min u v) <- send.(Int.min u v) + interest
        end);
    let max_receive = Array.fold_left Int.max 0 receive in
    let max_send = Array.fold_left Int.max 0 send in
    let per_round = Int.max 1 (n - 1) in
    let rounds =
      ((max_receive + per_round - 1) / per_round)
      + ((max_send + per_round - 1) / per_round)
      + 2 (* Lenzen routing setup + result announcement *)
    in
    (* detection: a triangle's sorted group signature is owned by
       exactly one vertex, which knows all three pair edge sets *)
    let triple_index = Hashtbl.create t_count in
    Array.iteri (fun i t -> Hashtbl.replace triple_index t i) triples;
    let detected = ref [] in
    let complete = ref true in
    Exact.iter g (fun (u, v, w) ->
        let sig_ = List.sort Int.compare [ grp u; grp v; grp w ] in
        match sig_ with
        | [ a; b; c ] ->
          if Hashtbl.mem triple_index (a, b, c) then detected := (u, v, w) :: !detected
          else complete := false
        | _ -> complete := false);
    let triangles = List.sort compare_triangle !detected in
    { triangles;
      complete = !complete && List.length triangles = Exact.count g;
      rounds;
      groups;
      triples = t_count;
      max_receive_words = max_receive;
      max_send_words = max_send }
  end
