module Graph = Dex_graph.Graph

type rows = { words : int; bits : int array }

type t = { graph : Graph.t; degrees : float array; rows : rows option Lazy.t }

(* bits per row word: all of an OCaml int's *)
let word_bits = Sys.int_size

(* The bit-row prefix pass runs on a graph with no parallel edges whose
   mean plain degree is at least [dense_degree] per row word. The stamp
   loop reads one stamp per neighbour; the bit-row pass ANDs and
   popcounts each word of the vertex's row, about a dozen operations
   per word. Timing full-support rescans both ways, the two broke even
   near 3-4 neighbours per word (random regular graphs on 200 and 1000
   vertices, G(128, p)), and at 7-8 the bit rows took 1.7-2.6x less
   time. G(128, 1/2) has ~21 neighbours per word, a random 8-regular
   graph on 200 vertices 2 (EXPERIMENTS.md, "Dense sweeps"). *)
let dense_degree = 8

let simple g =
  let ok = ref true and v = ref 0 in
  while !ok && !v < Graph.num_vertices g do
    let a = Graph.neighbors g !v in
    for i = 1 to Array.length a - 1 do
      if a.(i - 1) = a.(i) then ok := false
    done;
    incr v
  done;
  !ok

let rows g =
  let n = Graph.num_vertices g in
  let words = (n + word_bits - 1) / word_bits in
  if n = 0 || 2 * Graph.num_plain_edges g < dense_degree * words * n || not (simple g) then None
  else begin
    let bits = Array.make (n * words) 0 in
    for v = 0 to n - 1 do
      Array.iter
        (fun u ->
          let i = (v * words) + (u / word_bits) in
          bits.(i) <- bits.(i) lor (1 lsl (u mod word_bits)))
        (Graph.neighbors g v)
    done;
    Some { words; bits }
  end

let make g =
  { graph = g;
    degrees = Array.init (Graph.num_vertices g) (fun v -> float_of_int (Graph.degree g v));
    rows = lazy (rows g) }
