(** Minimal write-only JSON: just enough for the observability layer
    to emit trace events and benchmark snapshots. Object key order is
    preserved verbatim, so emitted documents have a stable, documented
    key order — diffs across PRs stay meaningful. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] is the compact (single-line) rendering of [v].
    Strings are escaped per RFC 8259 (bytes of 0x80 and above pass
    through unchanged); floats print in their shortest round-trippable
    decimal with a ['.'] or exponent, and non-finite floats render as
    [null] (JSON has no representation for them). *)
val to_string : t -> string
