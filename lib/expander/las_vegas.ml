module Rng = Dex_util.Rng
module Rounds = Dex_congest.Rounds

type certified = { result : Decomposition.result; report : Verify.report }

let report_ok (r : Verify.report) =
  r.Verify.is_partition && r.Verify.epsilon_ok && r.Verify.phi_ok

let decompose ?ledger ?(attempts = 5) ~epsilon ~k g rng =
  (* before the span opens: a rejected budget leaves no empty
     [las-vegas] span in the ledger or the trace *)
  Dex_util.Invariant.require (attempts >= 1) ~where:"Las_vegas.decompose"
    "attempts must be >= 1";
  Rounds.span ledger "las-vegas" @@ fun () ->
  Rounds.las_vegas ?ledger ~label:"decompose" ~where:"Las_vegas.decompose" ~attempts
    ~rounds:(fun c -> c.result.Decomposition.stats.Decomposition.rounds)
    ~accept:(fun c -> report_ok c.report)
  @@ fun i ->
  (* fresh randomness per attempt: split both the algorithm's stream
     and the verifier's, so a failed attempt never replays *)
  let attempt_rng = Rng.split rng i in
  let verify_rng = Rng.split rng (attempts + i) in
  let result = Decomposition.run ?ledger ~epsilon ~k g attempt_rng in
  { result; report = Rounds.span ledger "verify" (fun () -> Verify.check g result verify_rng) }
