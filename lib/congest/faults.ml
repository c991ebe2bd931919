type fault =
  | Drop of { round : int; src : int; dst : int }
  | Duplicate of { round : int; src : int; dst : int }

type t = {
  drop : float;
  duplicate : float;
  seed : int;
  mutable drops : int;
  mutable duplicates : int;
  mutable observer : (fault -> unit) option;
}

let check_prob name p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    Dex_util.Invariant.failf ~where:"Faults.create" "%s must be in [0, 1]" name

let create ~drop ~duplicate ~seed =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  { drop; duplicate; seed; drops = 0; duplicates = 0; observer = None }

let drops t = t.drops
let duplicates t = t.duplicates
let set_observer t obs = t.observer <- obs

let record t e = match t.observer with Some f -> f e | None -> ()

(* splitmix64 finalizer (as in Dex_util.Rng): the fault coin for a
   message is a pure hash of (seed, round, src, dst, salt), never a
   stateful draw, so decisions are independent of evaluation order. *)
let mix64 z =
  let z = Int64.add z 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform t ~round ~src ~dst ~salt =
  let step h x = mix64 (Int64.add (Int64.mul h 0x100000001b3L) (Int64.of_int x)) in
  let h = mix64 (Int64.of_int t.seed) in
  let h = step h round in
  let h = step h src in
  let h = step h dst in
  let h = step h salt in
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let verdict t ~round ~src ~dst =
  let src = Dex_graph.Vertex.local_int src and dst = Dex_graph.Vertex.local_int dst in
  if t.drop > 0.0 && uniform t ~round ~src ~dst ~salt:0 < t.drop then begin
    t.drops <- t.drops + 1;
    record t (Drop { round; src; dst });
    `Drop
  end
  else if t.duplicate > 0.0 && uniform t ~round ~src ~dst ~salt:1 < t.duplicate then begin
    t.duplicates <- t.duplicates + 1;
    record t (Duplicate { round; src; dst });
    `Duplicate
  end
  else `Deliver
