(* dex_lint: determinism & CONGEST-conformance static analysis.

   Usage: dune exec tools/lint/dex_lint.exe -- [options] <file-or-dir>...

   One engine on the typed AST (see DESIGN.md §9): the determinism
   D-rules and the C-rules (vertex coordinate spaces, the cross-module
   reference graph). It reads the .cmt/.cmti files of a
   completed `dune build @check`.

   Exit status: 0 clean, 1 unsuppressed findings, 2 build/IO errors. *)

module Cli = Dex_lint_core.Cli

let usage =
  "dex_lint [--json] [--all-rules] [--cmt-root DIR] [--source-root DIR] \
   [--graph-json FILE] [--dead-scope DIR] [--include-fixtures] [--list-rules] \
   <file-or-dir>..."

let opts = ref Cli.default_opts
let list_rules = ref false

let spec =
  [ ( "--json",
      Arg.Unit (fun () -> opts := { !opts with Cli.json = true }),
      " emit the report as a single JSON object" );
    ( "--all-rules",
      Arg.Unit (fun () -> opts := { !opts with Cli.all_rules = true }),
      " apply every rule regardless of path scoping (for fixtures)" );
    ( "--cmt-root",
      Arg.String (fun d -> opts := { !opts with Cli.cmt_root = d }),
      "DIR root of the .cmt forest (default _build/default)" );
    ( "--source-root",
      Arg.String (fun d -> opts := { !opts with Cli.source_root = d }),
      "DIR root the .cmt source paths are relative to (default .)" );
    ( "--graph-json",
      Arg.String (fun f -> opts := { !opts with Cli.graph_json = Some f }),
      "FILE write the module reference graph as JSON" );
    ( "--dead-scope",
      Arg.String
        (fun d ->
          opts := { !opts with Cli.dead_scope = !opts.Cli.dead_scope @ [ d ] }),
      "DIR also scan DIR's .mli exports for C004 (default: lib)" );
    ( "--include-fixtures",
      Arg.Unit (fun () -> opts := { !opts with Cli.include_fixtures = true }),
      " lint fixture directories too (they violate on purpose)" );
    ("--list-rules", Arg.Set list_rules, " print the rule table and exit") ]

let () =
  Arg.parse (Arg.align spec)
    (fun t -> opts := { !opts with Cli.targets = !opts.Cli.targets @ [ t ] })
    usage;
  if !list_rules then begin
    List.iter
      (fun (id, summary) -> Printf.printf "%s  %s\n" id summary)
      Dex_lint_core.Lint.rules;
    exit 0
  end;
  exit (Cli.run !opts)
