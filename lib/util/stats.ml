let linear_fit pts =
  match pts with
  | [] | [ _ ] -> invalid_arg "Stats.linear_fit: need at least two points"
  | _ ->
    let n = float_of_int (List.length pts) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
    let denom = (n *. sxx) -. (sx *. sx) in
    if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x";
    let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
    let intercept = (sy -. (slope *. sx)) /. n in
    (slope, intercept)

let log_log_slope pts =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
      pts
  in
  fst (linear_fit pts)
