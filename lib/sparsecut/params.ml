type preset = Theory | Practical

type t = {
  preset : preset;
  phi : float;
  m : int;
  ell : int;
  t0 : int;
  gamma : float;
  f_phi : float;
  parallel_cap : int;
  partition_cap : int;
  idle_limit : int;
  sweep_stride : int;
  c1_relaxed_factor : float;
}

let log2 x = log x /. log 2.0
let ceil_log2 k = int_of_float (Float.ceil (log2 (float_of_int (Int.max 2 k))))

let make ?(preset = Practical) ~phi ~m () =
  if phi <= 0.0 || phi > 1.0 /. 12.0 then
    invalid_arg "Params.make: phi must be in (0, 1/12]";
  if m < 1 then invalid_arg "Params.make: m must be >= 1";
  let mf = float_of_int m in
  let ln_me2 = log (mf *. exp 2.0) in
  let ln_me4 = log (mf *. exp 4.0) in
  let c_t0 = match preset with Theory -> 49.0 | Practical -> 2.0 in
  let t0 = int_of_float (Float.ceil (c_t0 *. ln_me2 /. (phi *. phi))) in
  let t0 = match preset with Theory -> t0 | Practical -> Int.min t0 20_000 in
  let gamma = 5.0 *. phi /. (7.0 *. 7.0 *. 8.0 *. ln_me4) in
  let f_phi = phi ** 3.0 /. (144.0 *. (ln_me4 *. ln_me4)) in
  let ell = ceil_log2 m in
  let parallel_cap, partition_cap, idle_limit, sweep_stride, c1_relaxed_factor =
    match preset with
    | Theory -> (max_int, max_int, max_int, 1, 12.0)
    | Practical -> (8, 48, 8, 16, 3.0)
  in
  { preset; phi; m; ell; t0; gamma; f_phi; parallel_cap; partition_cap; idle_limit;
    sweep_stride; c1_relaxed_factor }

let should_sweep t step = step <= 16 || step mod t.sweep_stride = 0

(* a forward scan, not a binary search: the volumes do not decrease,
   so the indices within the budget form a run from [cur], and the
   next call of the sequence starts at or past where this one stops *)
let next_j t volumes ~length cur =
  let budget = (1.0 +. t.phi) *. float_of_int volumes.(cur - 1) in
  let j = ref cur in
  while !j < length && float_of_int volumes.(!j) <= budget do
    incr j
  done;
  Int.max (cur + 1) !j

let eps_b t b =
  if b < 1 || b > t.ell then invalid_arg "Params.eps_b: b out of range";
  let mf = float_of_int t.m in
  let ln_me4 = log (mf *. exp 4.0) in
  t.phi /. (7.0 *. 8.0 *. ln_me4 *. float_of_int t.t0 *. (2.0 ** float_of_int b))

let parallel_copies t ~volume =
  let mf = float_of_int t.m in
  let ln_me4 = log (mf *. exp 4.0) in
  let denom =
    56.0 *. float_of_int t.ell
    *. float_of_int (t.t0 + 1)
    *. float_of_int t.t0 *. ln_me4 /. t.phi
  in
  let k = int_of_float (Float.ceil (float_of_int volume /. denom)) in
  (* the practical floor of 2 keeps start-vertex coverage reasonable
     when the theory formula rounds down to a single copy *)
  let floor_k = match t.preset with Theory -> 1 | Practical -> 2 in
  Int.max floor_k (Int.min t.parallel_cap k)

let overlap_bound _t ~volume =
  10 * int_of_float (Float.ceil (log (Float.max 2.0 (float_of_int volume))))

let g_value t ~volume =
  (* g(φ, Vol) = ⌈10·w·(56·ℓ·(t₀+1)·t₀·ln(m·e⁴)·φ⁻¹)⌉ (Appendix A.4);
     astronomically large at theory constants, hence the practical
     partition_cap clamp downstream. Computed in floats to avoid
     overflow. *)
  let w = overlap_bound t ~volume in
  let mf = float_of_int t.m in
  let ln_me4 = log (mf *. exp 4.0) in
  let denom =
    56.0 *. float_of_int t.ell
    *. float_of_int (t.t0 + 1)
    *. float_of_int t.t0 *. ln_me4 /. t.phi
  in
  let g = 10.0 *. float_of_int w *. denom in
  if g >= float_of_int max_int then max_int else Int.max 1 (int_of_float (Float.ceil g))

let partition_iterations t ~volume ~p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Params.partition_iterations: p in (0,1)";
  let g = g_value t ~volume in
  let log_factor = int_of_float (Float.ceil (log (1.0 /. p) /. log (7.0 /. 4.0))) in
  let s = 4.0 *. float_of_int g *. float_of_int (Int.max 1 log_factor) in
  let s = if s >= float_of_int max_int then max_int else int_of_float s in
  Int.max 1 (Int.min t.partition_cap s)

let h ~n phi =
  let lf = log (Float.max 2.0 (float_of_int n)) in
  (phi ** (1.0 /. 3.0)) *. (lf ** (5.0 /. 3.0))

let h_inverse ~n theta =
  let lf = log (Float.max 2.0 (float_of_int n)) in
  theta ** 3.0 /. (lf ** 5.0)
