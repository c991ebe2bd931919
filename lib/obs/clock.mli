(** Wall-clock access for the observability layer.

    Lint rule D004 forbids [Sys.time]/[Unix.gettimeofday] outside
    [bench/] and [lib/obs]: the simulated rounds must be a function of
    (graph, seed) alone. Components that want self-profiling wall time
    (e.g. the spans of {!Dex_congest.Rounds.span}) read it through
    this module, whose clock can be frozen in tests. *)

(** [now_ns ()] is the current wall-clock time in integer nanoseconds
    (or the frozen value, if {!freeze} is active). *)
val now_ns : unit -> int

(** [freeze t] pins [now_ns] to [t] until {!unfreeze} — useful to make
    span wall-times reproducible in tests. *)
(* dex-lint: allow C004 test seam: test_obs "clock freeze/unfreeze" pins now_ns through it *)
val freeze : int -> unit

(* dex-lint: allow C004 test seam: test_obs "clock freeze/unfreeze" releases the pin *)
val unfreeze : unit -> unit
