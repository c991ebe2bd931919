(* [rows] newest first; every row already padded to the header arity *)
type table = { title : string; headers : string list; mutable rows : string list list }

let create ~title headers = { title; headers; rows = [] }

let add_row t cells =
  let arity = List.length t.headers and len = List.length cells in
  if len > arity then
    invalid_arg
      (Printf.sprintf "Snapshot.add_row: row of %d cells in a %d-column table %S" len arity
         t.title);
  t.rows <- (cells @ List.init (arity - len) (fun _ -> "")) :: t.rows

let pad s width =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let render t =
  let rows = List.rev t.rows in
  let widths = Array.make (List.length t.headers) 0 in
  let account r = List.iteri (fun i c -> widths.(i) <- Int.max widths.(i) (String.length c)) r in
  account t.headers;
  List.iter account rows;
  let line r = String.concat "  " (List.mapi (fun i c -> pad c widths.(i)) r) in
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.headers ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (line r ^ "\n")) rows;
  Buffer.contents buf
