let parse text =
  let edges = ref [] in
  let declared_n = ref None in
  let max_id = ref (-1) in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let fail fmt = Printf.ksprintf (fun s -> failwith (Printf.sprintf "line %d: %s" lineno s)) fmt in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        let fields =
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        in
        match fields with
        | [ "n"; count ] -> (
          match int_of_string_opt count with
          | Some n when n >= 0 -> declared_n := Some n
          | _ -> fail "invalid vertex count %S" count)
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some u, Some v when u >= 0 && v >= 0 ->
            edges := (u, v) :: !edges;
            max_id := Int.max !max_id (Int.max u v)
          | _ -> fail "invalid edge %S" line)
        | _ -> fail "expected 'u v' or 'n count', got %S" line
      end)
    lines;
  let n =
    match !declared_n with
    | Some n ->
      if !max_id >= n then
        failwith (Printf.sprintf "edge endpoint %d exceeds declared n = %d" !max_id n);
      n
    | None -> !max_id + 1
  in
  Graph.of_edges ~n (List.rev !edges)

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# dexpander edge list\nn %d\n" (Graph.num_vertices g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

let save path g =
  let oc = open_out path in
  output_string oc (to_string g);
  close_out oc
