let parse ~path text =
  let edges = ref [] in
  let declared_n = ref None in
  (* the largest endpoint and the line it appears on *)
  let max_id = ref (-1) and max_line = ref 0 in
  let fail lineno fmt =
    Printf.ksprintf (fun s -> failwith (Printf.sprintf "%s: line %d: %s" path lineno s)) fmt
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
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
          | _ -> fail lineno "invalid vertex count %S" count)
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some u, Some v when u >= 0 && v >= 0 ->
            edges := (u, v) :: !edges;
            if Int.max u v > !max_id then begin
              max_id := Int.max u v;
              max_line := lineno
            end
          | _ -> fail lineno "invalid edge %S" line)
        | _ -> fail lineno "expected 'u v' or 'n count', got %S" line
      end)
    lines;
  let n =
    match !declared_n with
    | Some n ->
      if !max_id >= n then
        fail !max_line "edge endpoint %d exceeds declared n = %d" !max_id n;
      n
    | None -> !max_id + 1
  in
  Graph.of_edges ~n (List.rev !edges)

let load path = parse ~path (In_channel.with_open_bin path In_channel.input_all)
