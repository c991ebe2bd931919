(* D008: a comparison applied at a type variable is the generic one *)
let inside stamp (nbrs : int array) epoch i = Bool.to_int (stamp.(nbrs.(i)) = epoch)
let later a b = a > b
let order a b = compare a b
let inside_ok stamp (nbrs : int array) (epoch : int) i = Bool.to_int (stamp.(nbrs.(i)) = epoch)
let later_ok (a : float) b = a > b
