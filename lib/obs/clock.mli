(** Wall-clock access for the observability layer.

    Lint rule D004 forbids [Sys.time]/[Unix.gettimeofday] outside
    [bench/] and [lib/obs]: the simulated rounds must be a function of
    (graph, seed) alone. Components that want self-profiling wall time
    (e.g. the spans of {!Dex_congest.Rounds.span}) read it through
    this module. *)

(** [now_ns ()] is the current wall-clock time in integer nanoseconds. *)
val now_ns : unit -> int
