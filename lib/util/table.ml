(* The only sanctioned way to iterate a Hashtbl in algorithm libraries:
   hash-order iteration leaks the table's insertion history into round
   schedules, RNG consumption and float accumulation order, breaking
   the (graph, seed) -> run determinism the simulation promises (lint
   rule D001, whose scope exempts this file alone). These helpers
   materialise the key set, sort it, and visit bindings in ascending
   key order. The comparator is required: a polymorphic default would
   sort every key type with caml_compare (lint rule D006). *)

let keys_sorted ~compare tbl =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort_uniq compare keys

let iter_sorted ~compare f tbl =
  List.iter (fun k -> f k (Hashtbl.find tbl k)) (keys_sorted ~compare tbl)

let fold_sorted ~compare f tbl init =
  List.fold_left (fun acc k -> f k (Hashtbl.find tbl k) acc) init (keys_sorted ~compare tbl)
