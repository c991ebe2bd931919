(** Small statistics helpers for the benchmark harness. *)

(** [log_log_slope pts] fits a least-squares line to
    [(log x, log y)] pairs and returns the slope — the empirical
    scaling exponent of [y ~ x^slope]. Points with non-positive
    coordinates are dropped. Raises [Invalid_argument] when fewer than
    two points remain or their x are all equal. *)
val log_log_slope : (float * float) list -> float
