(* D009: unchecked indexing outside the kernel allow-list *)
let first (a : int array) = Array.unsafe_get a 0
let clear (a : float array) = Array.unsafe_set a 0 0.0
let byte b = Bytes.unsafe_get b 0
let first_ok (a : int array) = a.(0)
let byte_ok b = Bytes.get b 0
