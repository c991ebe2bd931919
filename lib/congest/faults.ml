type fault =
  | Drop of { round : int; src : int; dst : int }
  | Duplicate of { round : int; src : int; dst : int }
  | Link_down of { round : int; u : int; v : int }
  | Crash of { round : int; vertex : int }

type spec = {
  drop : float;
  duplicate : float;
  link_failures : ((int * int) * int) list;
  crashes : (int * int) list;
  seed : int;
}

let none = { drop = 0.0; duplicate = 0.0; link_failures = []; crashes = []; seed = 0 }

let lossy ?(duplicate = 0.0) ?(seed = 0) ~drop () =
  { none with drop; duplicate; seed }

type t = {
  spec : spec;
  dead_links : (int * int, int) Hashtbl.t; (* normalized edge -> death round *)
  crash_round : (int, int) Hashtbl.t; (* vertex -> crash round *)
  announced_links : (int * int, unit) Hashtbl.t;
  announced_crashes : (int, unit) Hashtbl.t;
  mutable drops : int;
  mutable duplicates : int;
  mutable observer : (fault -> unit) option;
}

let check_prob name p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    Dex_util.Invariant.failf ~where:"Faults.create" "%s must be in [0, 1]" name

let create spec =
  check_prob "drop" spec.drop;
  check_prob "duplicate" spec.duplicate;
  let dead_links = Hashtbl.create 8 in
  List.iter
    (fun ((u, v), r) ->
      let e = (Int.min u v, Int.max u v) in
      match Hashtbl.find_opt dead_links e with
      | Some r' when r' <= r -> ()
      | _ -> Hashtbl.replace dead_links e r)
    spec.link_failures;
  let crash_round = Hashtbl.create 8 in
  List.iter
    (fun (v, r) ->
      match Hashtbl.find_opt crash_round v with
      | Some r' when r' <= r -> ()
      | _ -> Hashtbl.replace crash_round v r)
    spec.crashes;
  { spec;
    dead_links;
    crash_round;
    announced_links = Hashtbl.create 8;
    announced_crashes = Hashtbl.create 8;
    drops = 0;
    duplicates = 0;
    observer = None }

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
  let h = mix64 (Int64.of_int t.spec.seed) in
  let h = step h round in
  let h = step h src in
  let h = step h dst in
  let h = step h salt in
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let crashed_int t ~round ~vertex =
  match Hashtbl.find_opt t.crash_round vertex with
  | Some r when r <= round ->
    if not (Hashtbl.mem t.announced_crashes vertex) then begin
      Hashtbl.replace t.announced_crashes vertex ();
      record t (Crash { round = r; vertex })
    end;
    true
  | _ -> false

let link_dead t ~round ~src ~dst =
  let e = (Int.min src dst, Int.max src dst) in
  match Hashtbl.find_opt t.dead_links e with
  | Some r when r <= round ->
    if not (Hashtbl.mem t.announced_links e) then begin
      Hashtbl.replace t.announced_links e ();
      record t (Link_down { round = r; u = fst e; v = snd e })
    end;
    true
  | _ -> false

let drop t ~round ~src ~dst =
  t.drops <- t.drops + 1;
  record t (Drop { round; src; dst });
  `Drop

let crashed t ~round ~vertex =
  crashed_int t ~round ~vertex:(Dex_graph.Vertex.local_int vertex)

let is_crashed t ~round ~vertex =
  (* pure read: no event recording, no table mutation. The step phase
     calls this and leaves the recording [crashed] call to the delivery
     phase, so events stay in ascending vertex order. *)
  match Hashtbl.find_opt t.crash_round (Dex_graph.Vertex.local_int vertex) with
  | Some r -> r <= round
  | None -> false

let verdict t ~round ~src ~dst =
  let src = Dex_graph.Vertex.local_int src and dst = Dex_graph.Vertex.local_int dst in
  if link_dead t ~round ~src ~dst then drop t ~round ~src ~dst
  else if crashed_int t ~round ~vertex:dst then drop t ~round ~src ~dst
  else if t.spec.drop > 0.0 && uniform t ~round ~src ~dst ~salt:0 < t.spec.drop then
    drop t ~round ~src ~dst
  else if t.spec.duplicate > 0.0 && uniform t ~round ~src ~dst ~salt:1 < t.spec.duplicate
  then begin
    t.duplicates <- t.duplicates + 1;
    record t (Duplicate { round; src; dst });
    `Duplicate
  end
  else `Deliver
