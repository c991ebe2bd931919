(* ---------------- deterministic hashtable iteration ---------------- *)

(* The only sanctioned way to iterate a Hashtbl in algorithm libraries:
   hash-order iteration leaks the table's insertion history into round
   schedules, RNG consumption and float accumulation order, breaking
   the (graph, seed) -> run determinism the simulation promises (lint
   rule D001). These helpers materialise the key set, sort it, and
   visit bindings in ascending key order. The comparator is required:
   a polymorphic default would sort every key type with caml_compare
   (lint rule D006). *)

let keys_sorted ~compare tbl =
  (* dex-lint: allow D001 the sorted-iteration helper itself *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort_uniq compare keys

let iter_sorted ~compare f tbl =
  List.iter (fun k -> f k (Hashtbl.find tbl k)) (keys_sorted ~compare tbl)

let fold_sorted ~compare f tbl init =
  List.fold_left (fun acc k -> f k (Hashtbl.find tbl k) acc) init (keys_sorted ~compare tbl)

(* ---------------- aligned text tables ---------------- *)

type t = { title : string; headers : string list; mutable rows : string list list }

let create ~title headers = { title; headers; rows = [] }
let add_row t cells = t.rows <- cells :: t.rows
let title t = t.title
let headers t = t.headers
let rows t = List.rev t.rows

let pad s width =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let render t =
  let rows = List.rev t.rows in
  let ncols =
    List.fold_left (fun acc r -> Int.max acc (List.length r)) (List.length t.headers) rows
  in
  let normalize r =
    let len = List.length r in
    if len >= ncols then r else r @ List.init (ncols - len) (fun _ -> "")
  in
  let headers = normalize t.headers in
  let rows = List.map normalize rows in
  let widths = Array.make ncols 0 in
  let account r = List.iteri (fun i c -> widths.(i) <- Int.max widths.(i) (String.length c)) r in
  account headers;
  List.iter account rows;
  let line r =
    String.concat "  " (List.mapi (fun i c -> pad c widths.(i)) r)
  in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line headers ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (line r ^ "\n")) rows;
  Buffer.contents buf

let fmt_pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
