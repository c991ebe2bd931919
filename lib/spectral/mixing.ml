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

(* Every run's starts are drawn first, in the order successive runs
   draw them: the walks draw nothing, so the stream ends where
   [runs] one-run calls leave it. A start's τ depends only on the
   graph, the vertex and [max_steps], so each distinct start is walked
   once, and two at a time, in one pass when both cover every vertex
   (a paired step is float for float two single steps, DESIGN.md §12). *)
let mixing_times ?(max_steps = 0) g rng ~runs =
  if runs < 0 then invalid_arg "Mixing.mixing_times: runs < 0";
  let n = Graph.num_vertices g in
  let max_steps = if max_steps > 0 then max_steps else 4 * n in
  if n <= 1 then Array.make runs 0
  else if Graph.total_volume g = 0 then Array.make runs max_steps (* no edges: nothing moves *)
  else begin
    let pi = degree_distribution g in
    let view = View.make g in
    let starts = Array.init (runs * samples) (fun _ -> Rng.weighted_index rng view.degrees) in
    (* [tau.(v)] is the τ of start v, -1 for a vertex no run drew;
       [queue] lists the distinct starts in draw order *)
    let tau = Array.make n (-1) in
    let queue = Array.make (Array.length starts) 0 and queued = ref 0 in
    Array.iter
      (fun v ->
        if tau.(v) < 0 then begin
          tau.(v) <- 0;
          queue.(!queued) <- v;
          incr queued
        end)
      starts;
    (* whether a walker's distribution is within the threshold at every
       vertex of positive π; a partial support is scattered into
       [dense] first, zero elsewhere *)
    let dense = Array.make n 0.0 in
    let mixed w =
      let q = Walk.current w in
      let p =
        if q.len = n then q.masses
        else begin
          Array.fill dense 0 n 0.0;
          for i = 0 to q.len - 1 do
            dense.(q.support.(i)) <- q.masses.(i)
          done;
          dense
        end
      in
      let v = ref 0 in
      while
        !v < n && not (pi.(!v) > 0.0 && Float.abs (p.(!v) -. pi.(!v)) > threshold *. pi.(!v))
      do
        incr v
      done;
      !v = n
    in
    (* ε = 0: the untruncated lazy walk *)
    let w1 = Walk.walker g and w2 = Walk.walker g and mask = Array.make n false in
    (* [w], unmixed after [t] steps, walks on alone *)
    let rec alone w t =
      if t >= max_steps then t
      else begin
        ignore (Walk.advance w view ~eps:0.0 ~mask : float);
        if mixed w then t + 1 else alone w (t + 1)
      end
    in
    (* w1 from [v1] and w2 from [v2], both [t] steps in and [m1], [m2]
       whether each has mixed: paired steps until one has, then the
       other alone *)
    let rec pair v1 v2 t m1 m2 =
      if m1 || m2 || t >= max_steps then begin
        tau.(v1) <- (if m1 then t else alone w1 t);
        tau.(v2) <- (if m2 then t else alone w2 t)
      end
      else begin
        Walk.advance_pair w1 w2 view ~eps1:0.0 ~eps2:0.0 ~mask1:mask ~mask2:mask;
        pair v1 v2 (t + 1) (mixed w1) (mixed w2)
      end
    in
    let i = ref 0 in
    while !i < !queued do
      let v1 = queue.(!i) in
      Walk.start w1 (Walk.indicator v1);
      if !i + 1 < !queued then begin
        let v2 = queue.(!i + 1) in
        Walk.start w2 (Walk.indicator v2);
        pair v1 v2 0 (mixed w1) (mixed w2)
      end
      else tau.(v1) <- (if mixed w1 then 0 else alone w1 0);
      i := !i + 2
    done;
    Array.init runs (fun r ->
        let worst = ref 0 in
        for s = 0 to samples - 1 do
          worst := Int.max !worst tau.(starts.((r * samples) + s))
        done;
        !worst)
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
