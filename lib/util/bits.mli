(** Word-level bit counting for the neighbourhood bit rows
    ([Dex_spectral.View.rows]): the sweep's bit-row prefix pass and the
    dense triangle listing both read their words through it. *)

(** [popcount x] is the number of set bits of [x], all [Sys.int_size]
    of them (the sign bit included). Branch-free and allocation-free. *)
val popcount : int -> int
