(* The single sanctioned wall-clock read point (lint rule D004): the
   simulation proper must be a function of (graph, seed) alone, so
   algorithm libraries may not read the host clock directly. Spans and
   benches read it through here. *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
