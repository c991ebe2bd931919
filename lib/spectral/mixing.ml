module Graph = Dex_graph.Graph
module Rng = Dex_util.Rng

(* ψ_V: mass deg(v)/Vol(V) at each v *)
let degree_distribution g =
  let total = float_of_int (Graph.total_volume g) in
  Array.init (Graph.num_vertices g) (fun v -> float_of_int (Graph.degree g v) /. total)

(* mixed once every vertex is within 1/4 of π relative; the worst of
   three degree-weighted starts *)
let threshold = 0.25
let samples = 3

let mixing_time ?(max_steps = 0) g rng =
  let n = Graph.num_vertices g in
  let max_steps = if max_steps > 0 then max_steps else 4 * n in
  if n <= 1 then 0
  else if Graph.total_volume g = 0 then max_steps (* no edges: nothing moves *)
  else begin
    let pi = degree_distribution g in
    (* the walker's distribution scattered into [p], zero elsewhere *)
    let p = Array.make n 0.0 in
    let mixed (q : Walk.sparse) =
      Array.fill p 0 n 0.0;
      for i = 0 to q.len - 1 do
        p.(q.support.(i)) <- q.masses.(i)
      done;
      let ok = ref true in
      for v = 0 to n - 1 do
        if pi.(v) > 0.0 && Float.abs (p.(v) -. pi.(v)) > threshold *. pi.(v) then
          ok := false
      done;
      !ok
    in
    let view = View.make g in
    let w = Walk.walker g and mask = Array.make n false in
    let worst = ref 0 in
    for _ = 1 to samples do
      Walk.start w (Walk.indicator (Rng.weighted_index rng view.degrees));
      let t = ref 0 in
      (* ε = 0: the untruncated lazy walk *)
      while (not (mixed (Walk.current w))) && !t < max_steps do
        ignore (Walk.advance w view ~eps:0.0 ~mask : float);
        incr t
      done;
      worst := Int.max !worst !t
    done;
    !worst
  end

let spectral_gap ?(iters = 200) g rng =
  let n = Graph.num_vertices g in
  if n <= 1 then (1.0, Array.make n 0.0)
  else begin
    (* Work with the symmetric normalized lazy matrix
       S = D^{-1/2} M D^{1/2} = (I + D^{-1/2} A D^{-1/2})/2,
       whose top eigenvector is d^{1/2}. Iterate x <- S x with
       deflation against d^{1/2}; λ₂ from the Rayleigh quotient. *)
    let sqrt_deg = Array.init n (fun v -> sqrt (float_of_int (Graph.degree g v))) in
    let norm x = sqrt (Array.fold_left (fun acc xi -> acc +. (xi *. xi)) 0.0 x) in
    let top_norm = norm sqrt_deg in
    let top = Array.map (fun x -> x /. top_norm) sqrt_deg in
    let deflate x =
      let dot = ref 0.0 in
      for v = 0 to n - 1 do
        dot := !dot +. (x.(v) *. top.(v))
      done;
      Array.mapi (fun v xv -> xv -. (!dot *. top.(v))) x
    in
    let apply x =
      let y = Array.make n 0.0 in
      for v = 0 to n - 1 do
        let deg = float_of_int (Graph.degree g v) in
        if deg > 0.0 then begin
          let lazy_part = x.(v) /. 2.0 in
          let loop_part =
            x.(v) *. float_of_int (Graph.self_loops g v) /. (2.0 *. deg)
          in
          y.(v) <- y.(v) +. lazy_part +. loop_part;
          let coeff = x.(v) /. (2.0 *. sqrt_deg.(v)) in
          Graph.iter_neighbors g v (fun u ->
              y.(u) <- y.(u) +. (coeff /. sqrt_deg.(u)))
        end
        else y.(v) <- y.(v) +. x.(v)
      done;
      y
    in
    let x = ref (deflate (Array.init n (fun _ -> Rng.float rng 1.0 -. 0.5))) in
    let lambda = ref 0.0 in
    for _ = 1 to iters do
      let y = deflate (apply !x) in
      let ny = norm y in
      if ny > 1e-30 then begin
        let nx = norm !x in
        (* Stdlib.max's test; Float.max differs on NaN *)
        lambda := ny /. (if nx >= 1e-30 then nx else 1e-30);
        x := Array.map (fun v -> v /. ny) y
      end
    done;
    (* Rayleigh quotient for a stabler eigenvalue estimate *)
    let y = apply !x in
    let num = ref 0.0 and den = ref 0.0 in
    for v = 0 to n - 1 do
      num := !num +. (!x.(v) *. y.(v));
      den := !den +. (!x.(v) *. !x.(v))
    done;
    let lambda2 = if !den > 1e-30 then !num /. !den else !lambda in
    let gap = Float.max 0.0 (1.0 -. lambda2) in
    (* convert the embedding back: eigenvector of M is D^{1/2}-scaled *)
    let embedding = Array.mapi (fun v xv -> if sqrt_deg.(v) > 0.0 then xv /. sqrt_deg.(v) else xv) !x in
    (gap, embedding)
  end
