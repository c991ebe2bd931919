(** Las Vegas retry wrapper around the Theorem-1 decomposition.

    {!Decomposition.run} is Monte Carlo: its (ε, φ) guarantees hold
    w.h.p. over the algorithm's randomness, and a bad run returns a
    decomposition that silently misses them. Wrapping each attempt
    with the {!Verify.check} self-certification and re-running with
    fresh randomness on failure turns it into a verified-output
    algorithm: an [Ok] outcome {e provably} satisfies the partition,
    ε and φ conditions of its own report, and the only remaining
    randomness is in the running time (the summed rounds across
    attempts, charged honestly in [rounds_total]).

    Failure is reported as typed data, never as [failwith]: after the
    attempt budget is exhausted the caller receives the last result
    and its report to inspect or salvage. The retry loop is
    {!Dex_congest.Rounds.las_vegas}. *)

(** One verified attempt: the decomposition and its certificate. On
    [Ok], [report] certifies a partition within the ε budget whose
    parts all meet the φ target. *)
type certified = { result : Decomposition.result; report : Verify.report }

(** [decompose ?ledger ?attempts ~epsilon ~k g rng] runs
    {!Decomposition.run} up to [attempts] times (default 5), attempt
    [i] on the stream [Rng.split rng i], verifying each result with
    {!Verify.check} on the stream [Rng.split rng (attempts + i)].
    [Error] carries the last attempt. With a [ledger], the whole run
    sits in a ["las-vegas"] span and each attempt in an
    ["attempt-<i>"] span, its verification in a ["verify"] span
    inside it; when a trace is attached,
    each verdict is emitted as a retry event labeled ["decompose"].
    Raises [Dex_util.Invariant.Violation] when [attempts < 1], before
    the span opens. *)
val decompose :
  ?ledger:Dex_congest.Rounds.t ->
  ?attempts:int ->
  epsilon:float ->
  k:int ->
  Dex_graph.Graph.t ->
  Dex_util.Rng.t ->
  (certified Dex_congest.Rounds.verified, certified Dex_congest.Rounds.verified) result
