(** Aligned plain-text tables for the benchmark harness, plus the
    sorted hashtable iteration helpers mandated by lint rule D001. *)

(** {1 Deterministic hashtable iteration}

    [Hashtbl.iter]/[Hashtbl.fold] visit bindings in hash-bucket order,
    which depends on the table's insertion history — two tables with
    identical bindings can iterate differently, leaking
    nondeterminism into round schedules, RNG consumption and float
    accumulation. Algorithm libraries must use these instead (enforced
    by [dex_lint] rule D001). *)

(** [keys_sorted ~compare tbl] is the distinct keys of [tbl] in
    ascending [compare] order. Pass the monomorphic comparator of the
    key type ([Int.compare], [String.compare], a lexicographic pair
    comparator). *)
val keys_sorted : compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> 'a list

(** [iter_sorted ~compare f tbl] applies [f k v] in ascending key
    order. For keys with multiple bindings only the most recent
    binding is visited. *)
val iter_sorted : compare:('a -> 'a -> int) -> ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit

(** [fold_sorted ~compare f tbl init] folds [f k v acc] in ascending
    key order. *)
val fold_sorted :
  compare:('a -> 'a -> int) -> ('a -> 'b -> 'c -> 'c) -> ('a, 'b) Hashtbl.t -> 'c -> 'c

(** {1 Aligned text tables} *)

type t

(** [create ~title headers] starts a table. *)
val create : title:string -> string list -> t

(** [add_row t cells] appends a row; short rows are padded. *)
val add_row : t -> string list -> unit

(** Accessors (the bench snapshot exporter reads tables back). *)

val title : t -> string
val headers : t -> string list

(** [rows t] is every row added so far, in insertion order. *)
val rows : t -> string list list

(** [render t] is the aligned textual rendering (with title and rule). *)
val render : t -> string

(** [print t] writes [render t] to stdout. *)
val print : t -> unit

(** Formatting helpers shared by the bench harness. *)

val fmt_float : float -> string
val fmt_pct : float -> string
