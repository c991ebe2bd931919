type t = { parent : int array; rank : int array; size : int array; mutable sets : int }

let create n =
  { parent = Array.init n (fun i -> i);
    rank = Array.make n 0;
    size = Array.make n 1;
    sets = n }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t x y =
  let rx = find t x and ry = find t y in
  if rx = ry then false
  else begin
    let rx, ry = if t.rank.(rx) < t.rank.(ry) then (ry, rx) else (rx, ry) in
    t.parent.(ry) <- rx;
    t.size.(rx) <- t.size.(rx) + t.size.(ry);
    if t.rank.(rx) = t.rank.(ry) then t.rank.(rx) <- t.rank.(rx) + 1;
    t.sets <- t.sets - 1;
    true
  end

let same t x y = find t x = find t y
let count t = t.sets
let size t x = t.size.(find t x)

let groups t =
  let n = Array.length t.parent in
  let tbl = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = find t v in
    let members = try Hashtbl.find tbl r with Not_found -> [] in
    Hashtbl.replace tbl r (v :: members)
  done;
  Table.fold_sorted ~compare:Int.compare (fun _ members acc -> Array.of_list members :: acc) tbl []
