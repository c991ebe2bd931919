exception Violation of { where : string; what : string }

let () =
  Printexc.register_printer (function
    | Violation { where; what } ->
      Some (Printf.sprintf "Dex_util.Invariant.Violation(%s: %s)" where what)
    | _ -> None)

let fail ~where what = raise (Violation { where; what })
let failf ~where fmt = Printf.ksprintf (fail ~where) fmt
let require cond ~where what = if not cond then fail ~where what
