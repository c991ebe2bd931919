(* D006: bare polymorphic compare handed to a sort at a type the
   compiler cannot specialize, so each element pair goes through the
   generic caml_compare *)
let sort_adjacency (arr : (int * int) array) = Array.sort compare arr
let dedupe_edges edges = List.sort_uniq compare edges
let stable (xs : int list list) = List.stable_sort Stdlib.compare xs
let ints_ok (a : int array) = Array.sort compare a
