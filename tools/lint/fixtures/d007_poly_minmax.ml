(* D007: Stdlib.min/max are ordinary polymorphic functions, so every
   call, at int too, goes through caml_lessequal/caml_greaterequal *)
let clamp (x : int) hi = min x hi
let widest (a : int array) = Array.fold_left max 0 a
let floor_norm (x : float) = Stdlib.max x 1e-30
let ints_ok (x : int) y = Int.min x y + Int.max x y
