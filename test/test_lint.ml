(* Tests for the dex_lint engine: every rule fires on a violating
   probe, path scoping exempts the sanctioned locations and nothing
   else does, and Cli.run refuses a missing or stale build. Each
   probe is compiled with `ocamlc -bin-annot` and linted from its
   .cmt/.cmti under a fake path, so the path-scoping logic itself is
   under test. *)

module Lint = Dex_lint_core.Lint
module Typed = Dex_lint_core.Typed_lint
module Cli = Dex_lint_core.Cli
module Json = Dex_obs.Json

(* the typed rules cannot be tested without a compiler: fail loudly
   rather than pass every case vacuously *)
let require_ocamlc =
  lazy
    (if Sys.command "ocamlc -version > /dev/null 2> /dev/null" <> 0 then
       Alcotest.fail "ocamlc is not on PATH; the lint tests compile their probes with it")

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir k =
  let dir = Filename.temp_file "dex_lint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> k dir)

let write path src =
  let oc = open_out_bin path in
  output_string oc src;
  close_out oc

(* write [src] to [dir]/[rel] and compile it from [dir] with
   -bin-annot, finding other probes' interfaces in [include_dir];
   ocamlc writes the .cmt/.cmti next to the source and records [rel]
   as its source path *)
let compile ?(include_dir = ".") dir rel src =
  Lazy.force require_ocamlc;
  write (Filename.concat dir rel) src;
  let rc =
    Sys.command
      (Printf.sprintf "cd %s && ocamlc -I +unix -I %s -bin-annot -c %s 2> /dev/null"
         (Filename.quote dir) (Filename.quote include_dir) (Filename.quote rel))
  in
  if rc <> 0 then Alcotest.failf "probe did not compile:\n%s" src

(* lint [src] as if it lived at [path] (the path decides which rules
   are in scope and, by its extension, whether it is an interface) *)
let lint ?(path = "lib/congest/fixture.ml") ?all_rules src =
  with_temp_dir (fun dir ->
      let file = Filename.basename path in
      compile dir file src;
      let ext = if Filename.check_suffix file ".mli" then ".cmti" else ".cmt" in
      let cmt =
        Cmt_format.read_cmt (Filename.concat dir (Filename.remove_extension file ^ ext))
      in
      Typed.lint_unit ?all_rules ~path (Typed.unit_of_cmt ~rel:file cmt))

let mli ?(path = "lib/congest/fixture.mli") = lint ~path

let rules_of findings = List.map (fun f -> f.Lint.rule) findings

let check_rules msg expected findings =
  Alcotest.(check (list string)) msg expected (rules_of findings)

(* ---------- each rule fires ---------- *)

let test_d001_hashtbl () =
  let fs = lint "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl" in
  check_rules "iter" [ "D001" ] fs;
  check_rules "fold" [ "D001" ]
    (lint "let f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0");
  check_rules "to_seq_keys" [ "D001" ]
    (lint "let f tbl = List.of_seq (Hashtbl.to_seq_keys tbl)");
  check_rules "qualified Stdlib" [ "D001" ]
    (lint "let f tbl = Stdlib.Hashtbl.iter (fun _ _ -> ()) tbl");
  (* resolved paths: neither a module alias nor an open hides a use *)
  check_rules "module alias" [ "D001" ]
    (lint "module H = Hashtbl\nlet f tbl = H.iter (fun _ _ -> ()) tbl");
  check_rules "local module alias" [ "D001" ]
    (lint "let f tbl = let module H = Hashtbl in H.fold (fun _ _ a -> a) tbl 0");
  check_rules "open" [ "D001" ] (lint "open Hashtbl\nlet f tbl = iter (fun _ _ -> ()) tbl");
  check_rules "a local Hashtbl is not Stdlib's" []
    (lint "module Hashtbl = struct let iter _ _ = () end\nlet f t = Hashtbl.iter () t")

let test_d001_allows_ordered_ops () =
  check_rules "mem/replace/find fine" []
    (lint
       "let f tbl = Hashtbl.replace tbl 1 2; Hashtbl.mem tbl 1 && \
        Hashtbl.find tbl 1 = 2")

let test_d002_random () =
  check_rules "Random.int" [ "D002" ] (lint "let f () = Random.int 10");
  check_rules "Random.State" [ "D002" ]
    (lint "let f st = Random.State.int st 10");
  check_rules "self_init" [ "D002" ] (lint "let f () = Random.self_init ()");
  check_rules "aliased" [ "D002" ] (lint "module R = Random\nlet f () = R.bool ()")

let test_d003_aborts () =
  check_rules "failwith" [ "D003" ] (lint "let f () = failwith \"x\"");
  check_rules "invalid_arg" [ "D003" ] (lint "let f () = invalid_arg \"x\"");
  check_rules "assert false" [ "D003" ] (lint "let f () = assert false");
  check_rules "assert cond is fine" [] (lint "let f x = assert (x > 0)");
  check_rules "a local failwith is fine" []
    (lint "let failwith _ = 0\nlet f () = failwith \"x\"")

let test_d004_wall_clock () =
  check_rules "Sys.time" [ "D004" ] (lint "let f () = Sys.time ()");
  check_rules "gettimeofday" [ "D004" ] (lint "let f () = Unix.gettimeofday ()");
  check_rules "Unix.time" [ "D004" ] (lint "let f () = Unix.time ()")

(* stand-ins for the real modules: D005 matches the type path's tail *)
let graph_decls =
  "module Graph = struct type t = { n : int } end\n\
   module Network = struct type t = { g : Graph.t } end\n"

let test_d005_poly_compare () =
  let d005 src = lint (graph_decls ^ src) in
  check_rules "Graph.t operands" [ "D005" ] (d005 "let f (a : Graph.t) b = a = b");
  check_rules "compare on Network.t" [ "D005" ]
    (d005 "let f (n : Network.t) m = compare n m");
  check_rules "min on Graph.t" [ "D005" ] (d005 "let f (g : Graph.t) h = min g h");
  check_rules "<> through a field" [ "D005" ]
    (d005 "let f (a : Network.t) (b : Network.t) = a.Network.g <> b.Network.g");
  check_rules "graph-like names at other types fine" []
    (d005 "let f (g : int) net = g = net && compare g net = 0");
  check_rules "ints fine" [] (lint "let f (a : int) b = a = b && compare a b = 0");
  let own_t = "type t = { n : int }\nlet f (a : t) b = a = b" in
  check_rules "a unit's own t" [ "D005" ] (lint ~path:"lib/graph/graph.ml" own_t);
  (* the unit name dune gives graph.ml inside the dex_graph library *)
  check_rules "a wrapped unit's own t" [ "D005" ]
    (lint ~path:"lib/graph/dex_graph__Graph.ml" own_t);
  check_rules "another unit's own t" [] (lint ~path:"lib/graph/metrics.ml" own_t)

let test_d006_poly_sort () =
  (* the exact defect class Graph.build shipped with: adjacency sorted
     with a bare polymorphic compare *)
  check_rules "Array.sort compare" [ "D006" ]
    (lint ~path:"lib/graph/graph.ml" "let f a = Array.sort compare a");
  check_rules "List.sort_uniq compare" [ "D006" ]
    (lint ~path:"lib/graph/graph.ml" "let f l = List.sort_uniq compare l");
  check_rules "qualified Stdlib.compare" [ "D006" ]
    (lint ~path:"lib/congest/x.ml" "let f l = List.stable_sort Stdlib.compare l");
  check_rules "tuple elements" [ "D006" ]
    (lint ~path:"lib/graph/graph.ml" "let f (a : (int * int) array) = Array.sort compare a");
  check_rules "monomorphic Int.compare fine" []
    (lint ~path:"lib/graph/graph.ml" "let f a = Array.sort Int.compare a");
  check_rules "explicit comparator fine" []
    (lint ~path:"lib/graph/graph.ml"
       "let f l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l");
  (* the compiler specializes compare at these: compare_ints,
     compare_floats, caml_string_compare *)
  check_rules "specialized at int, float, string" []
    (lint ~path:"lib/graph/graph.ml"
       "let f (a : int array) (b : float list) (c : string list) =\n\
       \  Array.sort compare a; (List.sort compare b, List.sort_uniq compare c)")

let test_d006_scoped_to_kernel () =
  let src = "let f a = Array.sort compare a" in
  check_rules "lib/graph fires" [ "D006" ] (lint ~path:"lib/graph/x.ml" src);
  check_rules "lib/congest fires" [ "D006" ] (lint ~path:"lib/congest/x.ml" src);
  check_rules "lib/util fires" [ "D006" ] (lint ~path:"lib/util/x.ml" src);
  check_rules "lib/ldd exempt" [] (lint ~path:"lib/ldd/x.ml" src);
  check_rules "bench exempt" [] (lint ~path:"bench/main.ml" src)

(* the walk, sweep and nibble hot paths are in D006's scope too *)
let test_d006_spectral_and_sparsecut () =
  let src = "let f a = Array.sort compare a" in
  check_rules "lib/spectral fires" [ "D006" ] (lint ~path:"lib/spectral/sweep.ml" src);
  check_rules "lib/sparsecut fires" [ "D006" ] (lint ~path:"lib/sparsecut/nibble.ml" src);
  check_rules "list sort fires" [ "D006" ]
    (lint ~path:"lib/sparsecut/x.ml" "let f l = List.sort Stdlib.compare l");
  check_rules "Int.compare fine" []
    (lint ~path:"lib/spectral/x.ml" "let f a = Array.sort Int.compare a")

(* the triangle layer sorts ids and triples on its hot path *)
let test_d006_triangle () =
  check_rules "lib/triangle fires" [ "D006" ]
    (lint ~path:"lib/triangle/dlp.ml" "let f l = List.sort_uniq compare l");
  check_rules "explicit comparator fine" []
    (lint ~path:"lib/triangle/x.ml" "let f l = List.sort Int.compare l")

(* min/max are never specialized: at int, at float and as a value
   they call the generic comparison *)
let test_d007_poly_minmax () =
  let hot src = lint ~path:"lib/sparsecut/nibble.ml" src in
  check_rules "min at int" [ "D007" ] (hot "let f (a : int) b = min a b");
  check_rules "max passed as a value" [ "D007" ] (hot "let f a = Array.fold_left max 0 a");
  check_rules "Stdlib.max at float" [ "D007" ] (hot "let f (x : float) = Stdlib.max x 1e-30");
  check_rules "Int.min / Int.max fine" [] (hot "let f a b = Int.min a b + Int.max a b");
  check_rules "a local max is fine" [] (hot "let max a b = a + b\nlet f a = max a 1");
  check_rules "lib/spectral fires" [ "D007" ] (lint ~path:"lib/spectral/x.ml" "let f a = min a 1");
  check_rules "lib/ldd exempt" [] (lint ~path:"lib/ldd/x.ml" "let f a = min a 1");
  check_rules "bench exempt" [] (lint ~path:"bench/main.ml" "let f a = min a 1")

(* the defect D008 was written for: a stamp loop split into its own
   function left [stamp.(nbrs.(i)) = epoch] at a type variable, and
   the compiler emitted caml_equal for it *)
let test_d008_poly_var_compare () =
  let hot src = lint ~path:"lib/spectral/sweep.ml" src in
  check_rules "= on a stamp at 'a" [ "D008" ]
    (hot "let f stamp (nbrs : int array) epoch i = stamp.(nbrs.(i)) = epoch");
  check_rules "(epoch : int) fine" []
    (hot "let f stamp (nbrs : int array) (epoch : int) i = stamp.(nbrs.(i)) = epoch");
  check_rules "= and compare at 'a" [ "D008"; "D008" ]
    (hot "let f a b = a = b && compare a b = 0");
  check_rules "< <= > >= <> at 'a" [ "D008"; "D008"; "D008"; "D008"; "D008" ]
    (hot "let f a b = a < b || a <= b || a > b || a >= b || a <> b");
  check_rules "float and int fine" [] (hot "let f (x : float) y (i : int) j = x < y && i = j");
  check_rules "physical equality fine" [] (hot "let f a b = a == b || a != b");
  check_rules "lib/util fires" [ "D008" ] (lint ~path:"lib/util/x.ml" "let f a b = a = b");
  check_rules "lib/ldd exempt" [] (lint ~path:"lib/ldd/x.ml" "let f a b = a = b");
  check_rules "bench exempt" [] (lint ~path:"bench/main.ml" "let f a b = a = b")

(* D010: the defect it was written for is the sweep order's
   [Float.compare], whose compare chain ran before every shift and
   merge decision; a sort may still take it as its comparator *)
let test_d010_float_compare () =
  let hot src = lint ~path:"lib/spectral/sweep.ml" src in
  check_rules "Float.compare applied" [ "D010" ]
    (hot "let f (r1 : float) r2 = Float.compare r1 r2 > 0");
  check_rules "compare at float" [ "D010" ] (hot "let f (x : float) y = compare x y = 0");
  check_rules "passed to a non-sort" [ "D010" ] (hot "let f = List.map2 Float.compare");
  check_rules "sort comparators fine" []
    (hot "let f (a : float array) l = Array.sort Float.compare a; List.sort compare (l : float list)");
  check_rules "compare at int fine" [] (hot "let f (a : int) b = compare a b");
  check_rules "lib/triangle fires" [ "D010" ]
    (lint ~path:"lib/triangle/x.ml" "let f (a : float) b = Float.compare a b");
  check_rules "lib/ldd exempt" [] (lint ~path:"lib/ldd/x.ml" "let f (a : float) b = Float.compare a b");
  check_rules "bench exempt" [] (lint ~path:"bench/main.ml" "let f (a : float) b = Float.compare a b")

(* D009: unchecked indexing only in the kernels that check their
   lengths once per call *)
let test_d009_unchecked_index () =
  let get = "let f (a : int array) = Array.unsafe_get a 0" in
  check_rules "elsewhere in lib fires" [ "D009" ] (lint ~path:"lib/spectral/mixing.ml" get);
  check_rules "set and Bytes fire" [ "D009"; "D009"; "D009" ]
    (lint ~path:"lib/graph/x.ml"
       "let f (a : float array) b = Array.unsafe_set a 0 0.0; ignore (Bytes.unsafe_get b 0); \
        Bytes.unsafe_to_string b");
  check_rules "bench and tests fire" [ "D009"; "D009" ]
    (lint ~path:"bench/main.ml" get @ lint ~path:"test/test_x.ml" get);
  check_rules "checked indexing fine" [] (lint ~path:"lib/graph/x.ml" "let f (a : int array) = a.(0)");
  List.iter
    (fun path -> check_rules (path ^ " allowed") [] (lint ~path get))
    [ "lib/spectral/walk.ml"; "lib/spectral/sweep.ml"; "lib/congest/arena.ml" ]

(* ---------- path scoping ---------- *)

let test_scope_d003_only_protocol_layers () =
  let src = "let f () = failwith \"x\"" in
  check_rules "congest" [ "D003" ] (lint ~path:"lib/congest/x.ml" src);
  check_rules "routing" [ "D003" ] (lint ~path:"lib/routing/x.ml" src);
  check_rules "expander" [ "D003" ] (lint ~path:"lib/expander/x.ml" src);
  check_rules "util exempt" [] (lint ~path:"lib/util/x.ml" src);
  check_rules "graph exempt" [] (lint ~path:"lib/graph/x.ml" src)

let test_scope_d002_rng_exempt () =
  let src = "let f () = Random.int 3" in
  check_rules "rng.ml exempt" [] (lint ~path:"lib/util/rng.ml" src);
  check_rules "elsewhere fires" [ "D002" ] (lint ~path:"lib/util/other.ml" src)

let test_scope_d001_no_exemption () =
  let src = "let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []" in
  check_rules "lib/util/table.ml fires" [ "D001" ] (lint ~path:"lib/util/table.ml" src);
  check_rules "elsewhere in lib/util fires" [ "D001" ] (lint ~path:"lib/util/other.ml" src);
  check_rules "bench fires" [ "D001" ] (lint ~path:"bench/main.ml" src);
  check_rules "test/ is out of scope" [] (lint ~path:"test/oracle.ml" src)

(* a rule's scope is its only exemption: the comments that were once
   suppression pragmas, well-formed, silence nothing *)
let test_allow_comment_silences_nothing () =
  check_rules "line before" [ "D002" ]
    (lint
       "(* dex-lint: allow D002 test needs ambient randomness *)\n\
        let f () = Random.int 3");
  check_rules "same line" [ "D002" ]
    (lint "let f () = Random.int 3 (* dex-lint: allow D002 inline reason *)");
  check_rules "C003 in an .mli" [ "C003" ]
    (mli "(* dex-lint: allow C003 staged migration *)\nval bfs : root:int -> unit")

let test_scope_d004_obs_exempt () =
  let src = "let f () = Unix.gettimeofday ()" in
  check_rules "lib/obs exempt" [] (lint ~path:"lib/obs/clock.ml" src);
  check_rules "bench fires" [ "D004" ] (lint ~path:"bench/main.ml" src);
  check_rules "bin fires" [ "D004" ] (lint ~path:"bin/cli.ml" src);
  check_rules "congest fires" [ "D004" ] (lint ~path:"lib/congest/x.ml" src)

let test_scope_absolute_paths () =
  let src = "let f () = failwith \"x\"" in
  check_rules "absolute path anchors at lib/" [ "D003" ]
    (lint ~path:"/src/dexpander/lib/congest/x.ml" src)

let test_all_rules_overrides_scope () =
  let src = "let f () = failwith \"x\"" in
  check_rules "scoped off" [] (lint ~path:"whatever.ml" src);
  check_rules "--all-rules on" [ "D003" ]
    (lint ~all_rules:true ~path:"whatever.ml" src)

(* ---------- driver behavior ---------- *)

(* a source tree under [dir] whose cmt root is [dir] itself *)
let run_driver dir =
  Cli.run
    { Cli.default_opts with
      cmt_root = dir;
      source_root = dir;
      targets = [ Filename.concat dir "lib" ] }

let test_missing_or_stale_cmt () =
  with_temp_dir (fun dir ->
      Sys.mkdir (Filename.concat dir "lib") 0o755;
      Sys.mkdir (Filename.concat dir "lib/congest") 0o755;
      compile dir "lib/congest/probe.ml" "let x = 1";
      Alcotest.(check int) "clean build" 0 (run_driver dir);
      compile dir "lib/congest/probe.ml" "let f () = failwith \"x\"";
      Alcotest.(check int) "a finding" 1 (run_driver dir);
      write (Filename.concat dir "lib/congest/probe.ml") "let x = 2";
      Alcotest.(check int) "source edited after the build" 2 (run_driver dir);
      compile dir "lib/congest/probe.ml" "let x = 2";
      write (Filename.concat dir "lib/other.ml") "let y = 3";
      Alcotest.(check int) "source never compiled" 2 (run_driver dir);
      Alcotest.(check int) "no cmt root" 2
        (Cli.run
           { (Cli.default_opts) with
             cmt_root = Filename.concat dir "missing";
             targets = [ dir ] }))

let test_findings_sorted_and_positioned () =
  let fs =
    lint
      "let a () = Random.int 1\n\
       let b () = failwith \"x\"\n\
       let c tbl = Hashtbl.iter (fun _ _ -> ()) tbl"
  in
  check_rules "ordered by line" [ "D002"; "D003"; "D001" ] fs;
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 3 ]
    (List.map (fun f -> f.Lint.line) fs)

(* ---------- C003 on interfaces ---------- *)

(* an interface probe compiles alone, so the phantom ids get a local
   stand-in *)
let vertex_decl = "module Vertex : sig type local end\n"

let test_c003_vertex_params () =
  check_rules "raw root" [ "C003" ] (mli "val bfs : root:int -> unit");
  check_rules "optional raw src" [ "C003" ] (mli "val bfs : ?src:int -> unit -> unit");
  check_rules "raw vertex map" [ "C003" ]
    (mli "val relabel : vertex_map:int array -> unit");
  check_rules "phantom-typed root is fine" []
    (mli (vertex_decl ^ "val bfs : root:Vertex.local -> unit"));
  check_rules "unlabelled ints untouched" [] (mli "val degree : int -> int")

let test_c003_scoping () =
  check_rules "outside the protocol layers" []
    (mli ~path:"lib/graph/fixture.mli" "val bfs : root:int -> unit");
  check_rules "--all-rules overrides the scope" [ "C003" ]
    (mli ~path:"lib/graph/fixture.mli" ~all_rules:true "val bfs : root:int -> unit")

(* ---------- C004: which references keep an export alive ---------- *)

(* the lines of lib/x/probe_lib.mli ([used] on 1, [spare] on 2) that
   C004 reports when one more unit, at [user], references
   [Probe_lib.used] *)
let c004_dead_lines user =
  with_temp_dir (fun dir ->
      List.iter
        (fun d -> Sys.mkdir (Filename.concat dir d) 0o755)
        [ "lib"; "lib/x"; "test"; "bin"; "bench"; "tools"; "tools/lint";
          "tools/lint/fixtures" ];
      compile dir "lib/x/probe_lib.mli" "val used : int\nval spare : int";
      compile ~include_dir:"lib/x" dir "lib/x/probe_lib.ml" "let used = 1\nlet spare = 2";
      compile ~include_dir:"lib/x" dir user "let x = Probe_lib.used";
      let impls, intfs, errors = Typed.load_units ~cmt_root:dir in
      Alcotest.(check int) "cmts load" 0 (List.length errors);
      Typed.dead_exports ~scope:[ "lib" ] ~include_fixtures:false (Typed.build_ref_db impls)
        intfs
      |> List.map (fun f -> f.Lint.line))

let test_c004_ignores_tests () =
  Alcotest.(check (list int)) "referenced only by a test/ unit" [ 1; 2 ]
    (c004_dead_lines "test/probe_user.ml");
  Alcotest.(check (list int)) "referenced by a bin/ unit" [ 2 ]
    (c004_dead_lines "bin/probe_user.ml");
  Alcotest.(check (list int)) "referenced by a bench/ unit" [ 2 ]
    (c004_dead_lines "bench/probe_user.ml");
  Alcotest.(check (list int)) "referenced by a lint fixture" [ 1; 2 ]
    (c004_dead_lines "tools/lint/fixtures/probe_user.ml")

(* ---------- unit naming, dune parsing, the ladder ---------- *)

let test_unit_name_splitting () =
  Alcotest.(check (list string)) "wrapped" [ "Dex_congest"; "Network" ]
    (Typed.split_wrapped "Dex_congest__Network");
  Alcotest.(check (list string)) "plain" [ "Dexpander" ]
    (Typed.split_wrapped "Dexpander");
  Alcotest.(check string) "exe unit" "Dune.exe.Test_lint"
    (Typed.canon_of_unit_name "Dune__exe__Test_lint")

let test_declared_libraries () =
  Alcotest.(check (list (triple string string (list string)))) "every stanza"
    [ ("x", ".x.objs", [ "dex_util"; "dex_graph"; "dex_obs" ]); ("y", ".y.eobjs", []);
      ("a", ".a.eobjs", [ "unix" ]) ]
    (Typed.stanzas
       "; a comment (libraries z)\n\
        (library\n (name x)\n (libraries dex_util dex_graph\n   dex_obs))\n\
        (executable (name y))\n\
        (executables (names a b) (libraries unix))")

(* C005 on a two-stanza dune file, compiled as dune lays it out: the
   executable declares the in-repo probe_lib, which it uses, and the
   installed unix, which only probe_lib uses *)
let test_c005_every_stanza () =
  with_temp_dir (fun dir ->
      let lib_objs = "tools/t/.probe_lib.objs/byte" and exe_objs = "tools/t/.probe.eobjs/byte" in
      List.iter
        (fun d -> Sys.mkdir (Filename.concat dir d) 0o755)
        [ "tools"; "tools/t"; "tools/t/.probe_lib.objs"; lib_objs; "tools/t/.probe.eobjs";
          exe_objs ];
      write (Filename.concat dir "tools/t/dune")
        "(library (name probe_lib) (libraries unix))\n\
         (executable (name probe) (libraries probe_lib unix))";
      compile dir (lib_objs ^ "/probe_lib.ml") "let now () = Unix.time ()";
      compile ~include_dir:lib_objs dir (exe_objs ^ "/probe.ml") "let x = Probe_lib.now";
      let impls, _, errors = Typed.load_units ~cmt_root:dir in
      Alcotest.(check int) "cmts load" 0 (List.length errors);
      Alcotest.(check (list string)) "the executable's unix"
        [ "tools/t/dune: declared but unused dependency: probe lists unix in \
           (libraries ...) yet no unit of probe names it" ]
        (List.map
           (fun f -> f.Lint.file ^ ": " ^ f.Lint.message)
           (Typed.layering ~source_root:dir (Typed.build_ref_db impls) impls)))

let test_layer_ranks_ladder () =
  let r l =
    match Typed.rank l with
    | Some r -> r
    | None -> Alcotest.failf "no rank for %s" l
  in
  Alcotest.(check bool) "util below congest" true (r "dex_util" < r "dex_congest");
  Alcotest.(check bool) "congest below ldd" true (r "dex_congest" < r "dex_ldd");
  Alcotest.(check bool) "ldd below decomp" true (r "dex_ldd" < r "dex_decomp");
  Alcotest.(check bool) "decomp below triangle" true (r "dex_decomp" < r "dex_triangle");
  Alcotest.(check bool) "umbrella on top" true (r "dex_triangle" < r "dexpander")

let test_json_report_golden () =
  let fs = lint "let f () = failwith \"x\"" in
  let doc = Lint.report_to_json ~files:1 ~errors:[ ("bad.ml", "boom") ] fs in
  Alcotest.(check string) "report"
    ({|{"tool":"dex_lint","files":1,"findings":[{"rule":"D003","file":"lib/congest/fixture.ml",|}
     ^ {|"line":1,"col":11,"message":"failwith in a protocol layer; raise a typed exception |}
     ^ {|(Dex_util.Invariant.fail)"}],"errors":[{"file":"bad.ml","error":"boom"}]}|})
    (Json.to_string doc)

let test_rule_table_complete () =
  Alcotest.(check (list string)) "ids"
    [ "D001"; "D002"; "D003"; "D004"; "D005"; "D006"; "D007"; "D008"; "D009"; "D010";
      "C003"; "C004"; "C005" ]
    (List.map fst Lint.rules)

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "D001 hashtbl order" `Quick test_d001_hashtbl;
          Alcotest.test_case "D001 ordered ops ok" `Quick test_d001_allows_ordered_ops;
          Alcotest.test_case "D002 ambient random" `Quick test_d002_random;
          Alcotest.test_case "D003 untyped aborts" `Quick test_d003_aborts;
          Alcotest.test_case "D004 wall clock" `Quick test_d004_wall_clock;
          Alcotest.test_case "D005 poly compare" `Quick test_d005_poly_compare;
          Alcotest.test_case "D006 poly sort" `Quick test_d006_poly_sort;
          Alcotest.test_case "D007 poly min/max" `Quick test_d007_poly_minmax;
          Alcotest.test_case "D008 compare at a type variable" `Quick test_d008_poly_var_compare;
          Alcotest.test_case "D009 unchecked indexing" `Quick test_d009_unchecked_index;
          Alcotest.test_case "D006 kernel scoped" `Quick test_d006_scoped_to_kernel;
          Alcotest.test_case "D006 spectral and sparsecut" `Quick
            test_d006_spectral_and_sparsecut;
          Alcotest.test_case "D006 triangle" `Quick test_d006_triangle;
          Alcotest.test_case "D010 float compare" `Quick test_d010_float_compare ] );
      ( "scoping",
        [ Alcotest.test_case "D003 protocol layers" `Quick
            test_scope_d003_only_protocol_layers;
          Alcotest.test_case "D002 rng exempt" `Quick test_scope_d002_rng_exempt;
          Alcotest.test_case "D001 has no exemption" `Quick test_scope_d001_no_exemption;
          Alcotest.test_case "D004 obs exempt, bench fires" `Quick test_scope_d004_obs_exempt;
          Alcotest.test_case "absolute paths" `Quick test_scope_absolute_paths;
          Alcotest.test_case "--all-rules" `Quick test_all_rules_overrides_scope;
          Alcotest.test_case "an allow comment silences nothing" `Quick
            test_allow_comment_silences_nothing ] );
      ( "driver",
        [ Alcotest.test_case "missing or stale cmt" `Quick test_missing_or_stale_cmt;
          Alcotest.test_case "sorted findings" `Quick
            test_findings_sorted_and_positioned;
          Alcotest.test_case "json report golden" `Quick test_json_report_golden;
          Alcotest.test_case "rule table" `Quick test_rule_table_complete ] );
      ( "typed",
        [ Alcotest.test_case "C003 vertex params" `Quick test_c003_vertex_params;
          Alcotest.test_case "C003 scoping" `Quick test_c003_scoping;
          Alcotest.test_case "C004 ignores tests and fixtures" `Quick test_c004_ignores_tests;
          Alcotest.test_case "unit name splitting" `Quick test_unit_name_splitting;
          Alcotest.test_case "dune (libraries ...) parsing" `Quick
            test_declared_libraries;
          Alcotest.test_case "C005 every stanza, installed libraries too" `Quick
            test_c005_every_stanza;
          Alcotest.test_case "layer ladder" `Quick test_layer_ranks_ladder ] ) ]
