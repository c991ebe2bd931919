(* [rows] newest first; every row already padded to the header arity *)
type table = { title : string; headers : string list; mutable rows : string list list }
type section = { id : string; title : string; tables : table list; notes : string list }

let version = "dexpander-bench/1"

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

let to_json ~mode sections =
  let open Json in
  let table_json (t : table) =
    Obj
      [ ("title", String t.title);
        ("headers", List (List.map (fun h -> String h) t.headers));
        ( "rows",
          List (List.rev_map (fun r -> List (List.map (fun c -> String c) r)) t.rows) ) ]
  in
  let section_json (s : section) =
    Obj
      [ ("id", String s.id);
        ("title", String s.title);
        ("tables", List (List.map table_json s.tables));
        ("notes", List (List.map (fun n -> String n) s.notes)) ]
  in
  Obj
    [ ("schema", String version);
      ("mode", String mode);
      ("sections", List (List.map section_json sections)) ]

let write ~path ~mode sections =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ~mode sections));
      output_char oc '\n')
