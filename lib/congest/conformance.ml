module Rng = Dex_util.Rng

type run_tag = Canonical | Permuted

let run_name = function Canonical -> "canonical" | Permuted -> "permuted"

type violation =
  | Kernel of { run : run_tag; round : int; violation : Arena.violation }
  | Round_limit of { run : run_tag; executed : int }
  | State_divergence of { round : int; vertex : int; digest_canonical : int; digest_permuted : int }
  | Round_divergence of { rounds_canonical : int; rounds_permuted : int }

let describe = function
  | Kernel { run; round; violation } ->
    Printf.sprintf "[%s] round %d: %s" (run_name run) round (Arena.describe violation)
  | Round_limit { run; executed } ->
    Printf.sprintf "[%s] protocol did not quiesce within %d rounds" (run_name run) executed
  | State_divergence { round; vertex; digest_canonical; digest_permuted } ->
    Printf.sprintf
      "round %d: vertex %d state digest diverges under permuted schedule (%d vs %d)" round
      vertex digest_canonical digest_permuted
  | Round_divergence { rounds_canonical; rounds_permuted } ->
    Printf.sprintf "round counts diverge under permuted schedule (%d vs %d)" rounds_canonical
      rounds_permuted

type 's protocol = { init : int -> 's; step : 's Network.active_step }

type report = {
  rounds_canonical : int;
  rounds_permuted : int;
  messages_canonical : int;
  messages_permuted : int;
  violations : violation list;
}

let ok r = r.violations = []

(* cap the violation list: one schedule bug fires at every vertex of
   every round, and the report should stay readable *)
let max_reported = 32

type round_digest = { round : int; per_vertex : int array }

type run_result = {
  digests : round_digest list; (* one per stepped round *)
  audit : violation list; (* the kernel violation that ended the run, if any *)
  rounds : int;
  messages : int;
}

(* a vertex state's digest: a hash of the whole state *)
let digest s = Hashtbl.hash_param 256 256 s

(* One execution of [p] on a fresh network: the kernel's own round loop,
   validation and quiescence, in the canonical order or — with
   [shuffle] — a fresh random step and inbox order every round. The
   first kernel violation ends the run. *)
let exec ~run ?shuffle g (p : 's protocol) =
  let net = Network.create g (Rounds.create ()) in
  let digests = ref [] in
  let on_round round states =
    digests := { round; per_vertex = Array.map digest states } :: !digests
  in
  let rounds, audit =
    match
      Network.run_active ?shuffle net ~label:"conformance" ~init:p.init ~step:p.step
        ~max_rounds:100_000 ~on_round ()
    with
    | _, rounds -> (rounds, [])
    | exception Network.Congestion_violation { round; violation } ->
      ((match !digests with d :: _ -> d.round | [] -> 0), [ Kernel { run; round; violation } ])
    | exception Network.Round_limit_exceeded { executed; _ } ->
      (executed, [ Round_limit { run; executed } ])
  in
  { digests = List.rev !digests; audit; rounds; messages = Network.messages_sent net }

let check ?(seed = 0xD1CE) g ~protocol () =
  (* the protocol thunk rebuilds every closure, so each run starts
     from virgin mutable state and a virgin RNG *)
  let a = exec ~run:Canonical g (protocol ()) in
  let b = exec ~run:Permuted ~shuffle:(Rng.create seed) g (protocol ()) in
  let divergences = ref [] in
  let ndiv = ref 0 in
  if a.rounds <> b.rounds then begin
    divergences :=
      [ Round_divergence { rounds_canonical = a.rounds; rounds_permuted = b.rounds } ];
    incr ndiv
  end;
  let rec compare_rounds da db =
    match (da, db) with
    | x :: ra, y :: rb ->
      Array.iteri
        (fun v hx ->
          let hy = y.per_vertex.(v) in
          if hx <> hy then begin
            if !ndiv < max_reported then
              divergences :=
                State_divergence
                  { round = x.round; vertex = v; digest_canonical = hx; digest_permuted = hy }
                :: !divergences;
            incr ndiv
          end)
        x.per_vertex;
      compare_rounds ra rb
    | _ -> ()
  in
  compare_rounds a.digests b.digests;
  { rounds_canonical = a.rounds;
    rounds_permuted = b.rounds;
    messages_canonical = a.messages;
    messages_permuted = b.messages;
    violations = a.audit @ b.audit @ List.rev !divergences }
