(* dex_lint shared core: the rule table, path scoping and report
   output. The rules themselves run on the typed AST (see Typed_lint
   and DESIGN.md §9). A rule's path scope is its only exemption: no
   comment in a source silences a finding.

   The D-rules target the failure modes that break
   schedule-permutation reproducibility (see Dex_congest.Conformance):
   hash-order iteration, ambient randomness, untyped aborts in the
   protocol layers, wall-clock reads outside the sanctioned points,
   and polymorphic comparison. The C-rules certify vertex coordinate
   spaces and the cross-module reference graph. *)

module Json = Dex_obs.Json

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let rules =
  [ ( "D001",
      "no Hashtbl.iter/fold/to_seq* (hash-order nondeterminism); iterate \
       a key list or a dense array in a fixed order" );
    ( "D002",
      "no Random.* outside lib/util/rng.ml; thread a Dex_util.Rng.t \
       explicitly" );
    ( "D003",
      "no failwith/invalid_arg/assert false in lib/congest, lib/routing, \
       lib/expander; raise a typed exception (Dex_util.Invariant.Violation \
       or a module-specific one)" );
    ( "D004",
      "no wall-clock (Sys.time, Unix.gettimeofday, Unix.time) outside \
       lib/obs; use Dex_obs.Clock" );
    ( "D005",
      "no polymorphic compare/=/min/max on Graph.t or Network.t values; \
       compare explicit fields" );
    ( "D006",
      "no bare polymorphic [compare] passed to Array.sort / List.sort \
       family at a type the compiler does not specialize, in lib/util, \
       lib/graph, lib/congest, lib/spectral, lib/sparsecut or \
       lib/triangle; use a monomorphic comparator (Int.compare, \
       String.compare, an explicit field comparator)" );
    ( "D007",
      "no polymorphic Stdlib.min / Stdlib.max in D006's hot-path \
       directories: the compiler never specializes them, so every call \
       goes through caml_lessequal / caml_greaterequal; use Int.min / \
       Int.max, or an explicit comparison at float" );
    ( "D008",
      "no polymorphic =, <>, <, >, <=, >= or compare applied at a type \
       variable in D006's hot-path directories: the compiler emits the \
       generic comparison (caml_equal, caml_compare, ...) there; \
       annotate the operand's type so it specializes" );
    ( "D009",
      "no Array.unsafe_get / Array.unsafe_set or Bytes.unsafe_* outside \
       the kernel allow-list (lib/spectral/walk.ml, lib/spectral/sweep.ml, \
       lib/congest/arena.ml): only a kernel that checks every length its \
       loops rely on, once per call, may index without bounds checks" );
    ( "D010",
      "no Stdlib.Float.compare, nor compare at float, in D006's hot-path \
       directories except as the comparator passed to the sort family: \
       it runs a branch-free chain of compares before every decision; \
       decide with < and >, and write the NaN case out" );
    ( "C003",
      "raw int vertex parameter in a protocol-layer .mli; use \
       Dex_graph.Vertex.local / Vertex.orig (and Vertex.Map.t for \
       vertex maps)" );
    ( "C004",
      "dead .mli export: value referenced by no other program unit \
       (references from test/ units do not count, nor fixture \
       references to non-fixture exports)" );
    ( "C005",
      "layering violation: reference against the layer order, or a \
       dune-declared library dependency no unit of the library uses" ) ]

(* ---------------- path scoping ---------------- *)

(* Paths are scoped on their segments, anchored at the last segment
   named like a top-level source directory, so "lib/congest/x.ml",
   "./lib/congest/x.ml" and "/root/repo/lib/congest/x.ml" scope
   identically. *)
let rel_segments path =
  let segs =
    List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)
  in
  let roots = [ "lib"; "bench"; "bin"; "test"; "tools" ] in
  let rec last_root i best = function
    | [] -> best
    | s :: rest -> last_root (i + 1) (if List.mem s roots then Some i else best) rest
  in
  match last_root 0 None segs with
  | None -> segs
  | Some i -> List.filteri (fun j _ -> j >= i) segs

let under prefix segs =
  let rec go p s =
    match (p, s) with
    | [], _ -> true
    | _, [] -> false
    | ph :: pt, sh :: st -> ph = sh && go pt st
  in
  go prefix segs

let under_any prefixes segs = List.exists (fun p -> under p segs) prefixes

(* bench/, bin/ and tools/ are gated alongside lib/: the harness and
   the CLI feed the paper's tables, so hash-order iteration or ambient
   randomness there corrupts results just as silently *)
let gated = under_any [ [ "lib" ]; [ "bench" ]; [ "bin" ]; [ "tools" ] ]

(* the hot paths: a polymorphic-compare sort here costs a
   generic-compare dispatch per element pair (D006), a polymorphic
   min/max one per call (D007), and so does a comparison at a type
   variable (D008); a float [compare] runs a compare chain before
   each decision (D010) *)
let hot_path =
  under_any
    [ [ "lib"; "util" ]; [ "lib"; "graph" ]; [ "lib"; "congest" ];
      [ "lib"; "spectral" ]; [ "lib"; "sparsecut" ]; [ "lib"; "triangle" ] ]

(* the kernels whose inner loops index without bounds checks (D009):
   each checks, once per call and before any write, every length its
   loops rely on *)
let unchecked_kernels =
  [ [ "lib"; "spectral"; "walk.ml" ]; [ "lib"; "spectral"; "sweep.ml" ];
    [ "lib"; "congest"; "arena.ml" ] ]

(* Rules scoped by path; C004 and C005 are whole-program and scoped
   by the driver instead. *)
let rule_applies ~all_rules segs rule =
  all_rules
  ||
  match rule with
  | "D001" -> gated segs
  | "D002" -> gated segs && segs <> [ "lib"; "util"; "rng.ml" ]
  | "D003" ->
    under_any [ [ "lib"; "congest" ]; [ "lib"; "routing" ]; [ "lib"; "expander" ] ] segs
  | "D004" ->
    (* bench/ is gated too: its whole stdout is a golden, so a clock
       read there could only make it differ from run to run *)
    gated segs && not (under [ "lib"; "obs" ] segs)
  | "D005" -> true
  | "D006" | "D007" | "D008" | "D010" -> hot_path segs
  | "D009" -> not (List.mem segs unchecked_kernels)
  | "C003" -> under_any [ [ "lib"; "congest" ]; [ "lib"; "ldd" ]; [ "lib"; "expander" ] ] segs
  | _ -> false

let by_position a b = compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule)

(* ---------------- output ---------------- *)

let finding_to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let finding_to_json f =
  Json.Obj
    [ ("rule", Json.String f.rule);
      ("file", Json.String f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("message", Json.String f.message) ]

let report_to_json ~files ~errors findings =
  Json.Obj
    [ ("tool", Json.String "dex_lint");
      ("files", Json.Int files);
      ("findings", Json.List (List.map finding_to_json findings));
      ( "errors",
        Json.List
          (List.map
             (fun (path, msg) ->
               Json.Obj
                 [ ("file", Json.String path); ("error", Json.String msg) ])
             errors) ) ]
