(* D005: polymorphic comparison of Graph.t values *)
let same (g : Dex_graph.Graph.t) other = g = other
let order (g : Dex_graph.Graph.t) x = compare g x
let sizes_ok (a : int) b = a = b
