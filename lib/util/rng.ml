type t = Random.State.t

(* splitmix64 finalizer: decorrelates nearby seeds before feeding
   Random.State, so that [split t i] and [split t (i+1)] behave as
   independent streams. Inlined, so its Int64 steps stay unboxed. *)
let[@inline] mix64 z =
  let z = Int64.add z 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] state_of_int64 z =
  let a = Int64.to_int (Int64.logand z 0x3fffffffL) in
  let b = Int64.to_int (Int64.logand (Int64.shift_right_logical z 30) 0x3fffffffL) in
  Random.State.make [| a; b |]

let create seed = state_of_int64 (mix64 (Int64.of_int seed))

(* The child is drawn from the parent: [split] advances [t] by a
   discarded draw ([land 0]) and the draw the child is hashed from, so
   the order of splits, and of every other draw on [t], decides each
   child's stream. Dropping the discarded draw would change every
   seeded output, so it stays. *)
let split t i =
  let hi = Random.State.bits t land 0 in
  ignore hi;
  let x = Random.State.int64 t Int64.max_int in
  state_of_int64 (mix64 (Int64.add x (Int64.of_int ((i * 2654435761) lxor 0x5851f42d))))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t bound

let float t bound = Random.State.float t bound
let bool t = Random.State.bool t
let bernoulli t p = Random.State.float t 1.0 < p

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. Random.State.float t 1.0 in
  -.log u /. rate

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. Random.State.float t 1.0 in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle ?len t a =
  let len = match len with Some k -> k | None -> Array.length a in
  for i = len - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(Random.State.int t (Array.length a))

(* plain loops box no partial sum; both sums add left to right, the
   order every recorded draw depends on *)
let weighted_index t w =
  let n = Array.length w in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. w.(i)
  done;
  let total = !total in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: weights must have positive sum";
  let x = Random.State.float t total in
  let i = ref 0 and acc = ref 0.0 and found = ref false in
  while not !found do
    if !i = n - 1 then found := true
    else begin
      acc := !acc +. w.(!i);
      if x < !acc then found := true else incr i
    end
  done;
  !i
