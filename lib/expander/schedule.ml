module Graph = Dex_graph.Graph
module Params = Dex_sparsecut.Params

type t = {
  epsilon : float;
  k : int;
  n : int;
  m : int;
  phi : float array;
  d : int;
  beta : float;
}

let phi_floor = 2e-3
(* practical lower cutoff: below this the walk length t₀ ~ 1/φ²
   exceeds what the simulation can step through *)

(* practical contraction: h(θ) = 3θ, so a Partition run at parameter θ
   is accepted only when the measured cut conductance is ≤ 3θ; the
   theory ladder uses the paper's h(θ) = θ^{1/3}·log^{5/3} n *)
let practical_h theta = 3.0 *. theta

let make ?(preset = Params.Practical) ~epsilon ~k g =
  Dex_util.Invariant.require
    (epsilon > 0.0 && epsilon < 1.0)
    ~where:"Schedule.make" "epsilon in (0,1)";
  Dex_util.Invariant.require (k >= 1) ~where:"Schedule.make" "k >= 1";
  let n = Graph.num_vertices g in
  let m = max 1 (Graph.num_edges g) in
  let ln_n = log (Float.max 2.0 (float_of_int n)) in
  let phi = Array.make (k + 1) 0.0 in
  (match preset with
  | Params.Theory ->
    let target0 = epsilon /. (6.0 *. (2.0 *. ln_n)) in
    phi.(0) <- Params.h_inverse ~n target0;
    for i = 1 to k do
      phi.(i) <- Params.h_inverse ~n phi.(i - 1)
    done
  | Params.Practical ->
    (* φ₀ = ε/8 (capped at 1/24): the acceptance bound is then
       h(φ₀) = 3ε/8 and the removed-edge fraction is verified by
       measurement rather than the worst-case Remove-2 charging *)
    ignore ln_n;
    phi.(0) <- Float.max phi_floor (Float.min (1.0 /. 24.0) (epsilon /. 8.0));
    for i = 1 to k do
      phi.(i) <- Float.max phi_floor (phi.(i - 1) /. 3.0)
    done);
  let d =
    (* smallest d with (1 - ε/12)^d · 2·C(n,2) < 1 *)
    let shrink = -.log (1.0 -. (epsilon /. 12.0)) in
    let pairs = Float.max 1.0 (float_of_int n *. float_of_int (max 1 (n - 1))) in
    max 1 (int_of_float (Float.ceil (log pairs /. shrink)))
  in
  let beta = epsilon /. 3.0 /. float_of_int d in
  { epsilon; k; n; m; phi; d; beta }

let phi_final t = t.phi.(t.k)

let h_of ~preset ~n theta =
  match preset with
  | Params.Theory -> Params.h ~n theta
  | Params.Practical -> practical_h theta

let params_for ~phi ~m =
  (* clamp into the Lemma 5 precondition range *)
  let phi = Float.min (1.0 /. 12.0) (Float.max 1e-9 phi) in
  Params.make ~preset:Params.Practical ~phi ~m ()
