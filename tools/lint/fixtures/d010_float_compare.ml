(* D010: Float.compare, and compare at float, run a branch-free chain
   of compares before the caller can decide anything *)
let descending (r1 : float) r2 = Float.compare r1 r2 > 0
let same (x : float) y = compare x y = 0
let signs = List.map2 Float.compare
let sorted_ok (a : float array) = Array.sort Float.compare a
let sorted_compare_ok (l : float list) = List.sort compare l
let ints_ok (a : int) b = compare a b
