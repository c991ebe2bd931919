(** Aligned plain-text tables for the benchmark harness, plus the
    sorted hashtable iteration helpers mandated by lint rule D001. *)

(** {1 Deterministic hashtable iteration}

    [Hashtbl.iter]/[Hashtbl.fold] visit bindings in hash-bucket order,
    which depends on the table's insertion history — two tables with
    identical bindings can iterate differently, leaking
    nondeterminism into round schedules, RNG consumption and float
    accumulation. Algorithm libraries must use these instead (enforced
    by [dex_lint] rule D001). *)

(** [iter_sorted ~compare f tbl] applies [f k v] in ascending key
    order, [compare] being the monomorphic comparator of the key type
    ([Int.compare], [String.compare], a lexicographic pair
    comparator). For keys with multiple bindings only the most recent
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

(** [fmt_pct x] renders the fraction [x] as a percentage, ["12.50%"]. *)
val fmt_pct : float -> string
