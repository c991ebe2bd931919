(** Deterministic hashtable iteration, mandated by lint rule D001.

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
