type table = { title : string; headers : string list; rows : string list list }
type section = { id : string; title : string; tables : table list; notes : string list }

let version = "dexpander-bench/1"

let table ~title ~headers rows =
  let arity = List.length headers in
  let pad row =
    let len = List.length row in
    if len > arity then
      invalid_arg
        (Printf.sprintf "Snapshot.table: row of %d cells in a %d-column table %S" len
           arity title)
    else if len = arity then row
    else row @ List.init (arity - len) (fun _ -> "")
  in
  { title; headers; rows = List.map pad rows }

let to_json ~mode sections =
  let open Json in
  let table_json (t : table) =
    Obj
      [ ("title", String t.title);
        ("headers", List (List.map (fun h -> String h) t.headers));
        ("rows", List (List.map (fun r -> List (List.map (fun c -> String c) r)) t.rows)) ]
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
