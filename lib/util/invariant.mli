(** Typed precondition and invariant failures.

    The model-conformance lint (rule D003, see [tools/lint]) forbids
    [failwith], [invalid_arg] and [assert false] inside the strict
    algorithm libraries ([lib/congest], [lib/routing], [lib/expander]):
    an untyped [Failure]/[Invalid_argument] cannot be matched precisely
    by callers, so retry wrappers and test harnesses end up matching on
    message strings. Precondition failures in those libraries raise
    {!Violation} instead — a structured exception in the style of
    [Network.Round_limit_exceeded] that carries {e where} (the
    violated function) and {e what} (the broken precondition) as
    separate fields. *)

exception Violation of { where : string; what : string }

(** [fail ~where what] raises {!Violation}. [where] names the function
    whose precondition broke (e.g. ["Hierarchy.build"]), [what] states
    the precondition (e.g. ["k >= 1"]). *)
val fail : where:string -> string -> 'a

(** [failf ~where fmt ...] is {!fail} with a format string. *)
val failf : where:string -> ('a, unit, string, 'b) format4 -> 'a

(** [require cond ~where what] raises {!Violation} when [cond] is
    false. *)
val require : bool -> where:string -> string -> unit
