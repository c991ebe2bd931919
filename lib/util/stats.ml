let check_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty list")
  | _ :: _ -> ()

let mean xs =
  check_nonempty "Stats.mean" xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  check_nonempty "Stats.stddev" xs;
  let m = mean xs in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    /. float_of_int (List.length xs)
  in
  sqrt var

let sorted xs = List.sort Float.compare xs

let median xs =
  check_nonempty "Stats.median" xs;
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile p xs =
  check_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

(* Stdlib.min's and Stdlib.max's own tests at float, so NaN and -0.0
   behave as before; Float.min/max would differ *)
let minimum xs =
  check_nonempty "Stats.minimum" xs;
  List.fold_left (fun acc x -> if acc <= x then acc else x) Float.infinity xs

let maximum xs =
  check_nonempty "Stats.maximum" xs;
  List.fold_left (fun acc x -> if acc >= x then acc else x) Float.neg_infinity xs

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
