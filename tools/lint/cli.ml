(* The dex_lint driver behind the dex_lint executable, the one lint
   front-end (`dune exec tools/lint/dex_lint.exe -- [options] PATH...`).

   Every source under the targets is linted through its compiled unit
   in the .cmt forest, so the build must be complete and current: a
   missing cmt root, a source with no .cmt/.cmti, or one compiled from
   different text is an error, never a silently clean lint.

   Exit status: 0 clean, 1 unsuppressed findings, 2 build/IO errors. *)

type opts = {
  json : bool;
  all_rules : bool;
  cmt_root : string;
  source_root : string;
  graph_json : string option;
  dead_scope : string list;
  include_fixtures : bool;
  targets : string list;
}

let default_opts =
  { json = false;
    all_rules = false;
    cmt_root = "_build/default";
    source_root = ".";
    graph_json = None;
    dead_scope = [ "lib" ];
    include_fixtures = false;
    targets = [] }

let rec collect_sources ~include_fixtures path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        (* build trees, dot-directories (.git, .bench_build) and,
           unless asked, the deliberately failing fixtures *)
        if entry = "_build" || entry.[0] = '.'
           || ((not include_fixtures) && entry = "fixtures")
        then acc
        else collect_sources ~include_fixtures (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

(* does [path] live under one of the targets? compares repo-relative
   segment lists so "./lib" and "lib/congest/x.ml" agree *)
let under_targets targets path =
  let segs = Lint.rel_segments path in
  let known_roots = [ "lib"; "bench"; "bin"; "test"; "tools" ] in
  List.exists
    (fun t ->
      match Lint.rel_segments t with
      | [] -> true
      (* a target outside the recognized roots (".", the repo root, a
         checkout path) scopes everything *)
      | s :: _ when not (List.mem s known_roots) -> true
      | tsegs -> Lint.under tsegs segs)
    targets

(* the unit compiled from [path]: units are keyed by their recorded
   source path, matched against the longest suffix of [path]'s
   segments, so "./examples/x.ml" finds the unit of "examples/x.ml" *)
let find_unit index path =
  let rec go = function
    | [] -> None
    | _ :: rest as segs -> (
      match Hashtbl.find_opt index (String.concat "/" segs) with
      | Some u -> Some u
      | None -> go rest)
  in
  go (Lint.rel_segments path)

let run opts =
  if opts.targets = [] then begin
    prerr_endline "dex_lint: no targets given";
    2
  end
  else if not (Sys.file_exists opts.cmt_root) then begin
    Printf.eprintf "dex_lint: cmt root %s does not exist; run `dune build @check` first\n"
      opts.cmt_root;
    2
  end
  else begin
    let findings = ref [] in
    let errors = ref [] in
    let add_findings fs = findings := !findings @ fs in
    let add_error path msg = errors := !errors @ [ (path, msg) ] in
    let files =
      List.concat_map
        (fun t ->
          if not (Sys.file_exists t) then begin
            Printf.eprintf "dex_lint: no such file or directory: %s\n" t;
            exit 2
          end;
          List.rev
            (collect_sources ~include_fixtures:opts.include_fixtures t []))
        opts.targets
    in
    let impls, intfs, load_errors = Typed_lint.load_units ~cmt_root:opts.cmt_root in
    List.iter (fun (p, m) -> add_error p m) load_errors;
    let index = Hashtbl.create 256 in
    List.iter
      (fun (u : Typed_lint.unit_info) ->
        match u.source with
        | Some src ->
          let key = String.concat "/" (Lint.rel_segments src) in
          (* the first .cmt of a source wins: no unit is linted twice *)
          if not (Hashtbl.mem index key) then Hashtbl.add index key u
        | None -> ())
      (impls @ intfs);
    (* per-source rules: D- and C003 *)
    List.iter
      (fun path ->
        match find_unit index path with
        | None -> add_error path "no .cmt/.cmti for this source; run `dune build @check`"
        | Some u ->
          let src = Typed_lint.read_file path in
          if u.digest <> Some (Digest.string src) then
            add_error path
              "stale .cmt/.cmti: the source changed since it was compiled; \
               run `dune build @check`"
          else add_findings (Typed_lint.lint_unit ~all_rules:opts.all_rules ~path ~src u))
      files;
    (* whole-program rules (C004, C005): no pragma silences them *)
    let db = Typed_lint.build_ref_db impls in
    Typed_lint.dead_exports ~scope:opts.dead_scope
      ~include_fixtures:opts.include_fixtures db intfs
    |> List.filter (fun (f : Lint.finding) -> under_targets opts.targets f.file)
    |> add_findings;
    Typed_lint.layering ~source_root:opts.source_root db impls |> add_findings;
    (match opts.graph_json with
     | Some path ->
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           output_string oc (Dex_obs.Json.to_string (Typed_lint.graph_to_json db impls));
           output_char oc '\n')
     | None -> ());
    let findings = List.sort Lint.by_position !findings in
    if opts.json then
      print_endline
        (Dex_obs.Json.to_string
           (Lint.report_to_json ~files:(List.length files) ~errors:!errors
              findings))
    else begin
      List.iter (fun f -> print_endline (Lint.finding_to_string f)) findings;
      List.iter
        (fun (path, msg) -> Printf.eprintf "%s: error:\n%s\n" path msg)
        !errors;
      Printf.printf "dex_lint: %d file%s, %d finding%s, %d error%s\n"
        (List.length files)
        (if List.length files = 1 then "" else "s")
        (List.length findings)
        (if List.length findings = 1 then "" else "s")
        (List.length !errors)
        (if List.length !errors = 1 then "" else "s")
    end;
    if !errors <> [] then 2 else if findings <> [] then 1 else 0
  end
