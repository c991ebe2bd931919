(* dex_lint engine: every rule runs on the typed AST, read from the
   `-bin-annot` .cmt/.cmti files of the dune build (see DESIGN.md §9).

   D-rules — determinism. Identifiers match on their resolved paths,
   so `open` and module aliases hide nothing: hash-order Hashtbl
   iteration (D001), ambient Random (D002), untyped aborts (D003),
   wall-clock reads (D004). D005 flags polymorphic comparison at an
   operand type headed by Graph.t or Network.t; D006 a bare [compare]
   handed to the sort family at a type the compiler does not
   specialize; D007 a polymorphic [min]/[max], which it never
   specializes; D008 a comparison applied at a type variable, which
   compiles to the generic one even where every caller passes ints.
   D009 flags unchecked indexing (Array.unsafe_get/unsafe_set and
   every Bytes.unsafe_ function) outside the kernels allowed to use it.
   D010 flags Float.compare, and compare at float, anywhere but as the
   comparator handed to the sort family.

   V-rule — C003 rejects raw `int` vertex-valued labelled parameters
   in protocol-layer interfaces; use the phantom `Vertex.local`/`orig`.

   X-rules — the .cmts of the whole build yield a unit-level reference
   graph. C004 reports `.mli` exports no program
   unit references: a reference from a test/ unit keeps nothing alive,
   and one from a lint fixture only another fixture's export. C005
   reports references against the layer order and dune library
   dependencies, in-repo or installed, that no unit of the stanza
   names.

   Every rule is exempted by its path scope ([Lint.rule_applies]) and
   by nothing else: no comment silences a finding. *)

type finding = Lint.finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let mk_finding ~rule ~file ~line ~col message = { rule; file; line; col; message }

let finding_of_loc ~rule ~file loc message =
  let p = loc.Location.loc_start in
  mk_finding ~rule ~file ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
    message

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_fixture_path path = List.mem "fixtures" (Lint.rel_segments path)

open Typedtree

let path_comps p = String.split_on_char '.' (Path.name p)

(* "Dex_congest__Network" -> ["Dex_congest"; "Network"];
   a trailing "__" (dune's generated alias unit) drops cleanly *)
let split_wrapped name =
  let n = String.length name in
  let rec go acc start i =
    if i + 1 >= n then
      let last = String.sub name start (n - start) in
      List.rev (if last = "" then acc else last :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' then
      let seg = String.sub name start (i - start) in
      go (if seg = "" then acc else seg :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  go [] 0 0

let norm_comps comps = List.concat_map split_wrapped comps

(* ================= loading .cmt units ============================= *)

type unit_info = {
  canon : string; (* "Dex_congest.Network", "Dexpander", ... *)
  lib : string option; (* owning dune library, from the .objs dir *)
  dir : string; (* source dir relative to the build root *)
  objs : string; (* its stanza's object dir, ".dex_util.objs" or ".main.eobjs" *)
  loadpath : string list; (* where the compiler looked for interfaces *)
  source : string option; (* relative source path, when recorded *)
  digest : Digest.t option; (* of the source the unit was compiled from *)
  annots : Cmt_format.binary_annots;
}

let canon_of_unit_name name = String.concat "." (split_wrapped name)

(* lib name from ".../.dex_congest.objs/..." or ".../.main.eobjs/..." *)
let lib_of_cmt_path path =
  let segs = String.split_on_char '/' path in
  List.find_map
    (fun s ->
      if String.length s > 6 && s.[0] = '.' && Filename.check_suffix s ".objs"
      then
        let core = Filename.remove_extension (String.sub s 1 (String.length s - 1)) in
        if Filename.check_suffix core ".e" then None
        else Some core
      else None)
    segs

let objs_of_cmt_path path =
  Option.value ~default:""
    (List.find_opt
       (fun s -> String.length s > 1 && s.[0] = '.')
       (String.split_on_char '/' path))

let dir_of_cmt_path path =
  let segs = String.split_on_char '/' path in
  let rec take acc = function
    | [] -> List.rev acc
    | s :: _ when String.length s > 0 && s.[0] = '.' && not (s = ".") -> List.rev acc
    | s :: rest -> take (s :: acc) rest
  in
  String.concat "/" (take [] segs)

(* [rel] is the .cmt path relative to the cmt root *)
let unit_of_cmt ~rel (cmt : Cmt_format.cmt_infos) =
  { canon = canon_of_unit_name cmt.cmt_modname;
    lib = lib_of_cmt_path rel;
    dir = dir_of_cmt_path rel;
    objs = objs_of_cmt_path rel;
    loadpath = cmt.cmt_loadpath;
    source = cmt.cmt_sourcefile;
    digest = cmt.cmt_source_digest;
    annots = cmt.cmt_annots }

let rec collect_suffix root suffix acc =
  if Sys.is_directory root then
    Array.fold_left
      (fun acc entry -> collect_suffix (Filename.concat root entry) suffix acc)
      acc (Sys.readdir root)
  else if Filename.check_suffix root suffix then root :: acc
  else acc

let load_units ~cmt_root =
  let errors = ref [] in
  let load path =
    match Cmt_format.read_cmt path with
    | exception exn ->
      errors := (path, Printexc.to_string exn) :: !errors;
      None
    | cmt ->
      (* collect_suffix joins with Filename.concat: strip its prefix *)
      let n = String.length (Filename.concat cmt_root "") in
      let u = unit_of_cmt ~rel:(String.sub path n (String.length path - n)) cmt in
      (* relative load-path entries name dirs under where the compiler
         ran: dune's build dir, the default cmt root *)
      let resolve d = if Filename.is_relative d then Filename.concat cmt_root d else d in
      Some { u with loadpath = List.map resolve u.loadpath }
  in
  let load_all suffix =
    List.filter_map load (List.sort compare (collect_suffix cmt_root suffix []))
  in
  let impls = load_all ".cmt" in
  let intfs = load_all ".cmti" in
  (impls, intfs, List.rev !errors)

(* ================= D-rules: determinism =========================== *)

let hashtbl_unordered = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let compare_like = [ "="; "<>"; "=="; "!="; "compare"; "min"; "max" ]

(* D006: the sort entry points whose comparator argument matters *)
let sort_family = function
  | [ "Stdlib"; "Array"; ("sort" | "stable_sort" | "fast_sort") ]
  | [ "Stdlib"; "List"; ("sort" | "stable_sort" | "sort_uniq") ] -> true
  | _ -> false

(* the element types at which the compiler specializes [compare] to a
   monomorphic primitive (compare_ints, compare_floats, ...); at any
   other type, a type variable or a tuple, it calls caml_compare *)
let specialized =
  Predef.
    [ path_int; path_char; path_bool; path_float; path_string; path_bytes;
      path_nativeint; path_int32; path_int64 ]

(* D008: the comparisons the compiler specializes at a known base type
   and leaves generic at a type variable *)
let ordering_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare" ]

(* whether the first parameter of an instantiated function type is a
   type variable *)
let domain_is_var ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, dom, _, _) -> (
    match Types.get_desc dom with Types.Tvar _ -> true | _ -> false)
  | _ -> false

(* the head constructor of the first parameter of an instantiated
   function type *)
let domain_head ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, dom, _, _) -> (
    match Types.get_desc dom with Types.Tconstr (p, _, _) -> Some p | _ -> None)
  | _ -> None

let d_rules ~on ~file u str =
  let findings = ref [] in
  let add loc rule message = findings := finding_of_loc ~rule ~file loc message :: !findings in
  (* local module aliases ("module H = Hashtbl"), expanded on lookup *)
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let resolve p =
    match norm_comps (path_comps p) with
    | head :: rest when Hashtbl.mem aliases head -> Hashtbl.find aliases head @ rest
    | comps -> comps
  in
  let alias name me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Hashtbl.replace aliases name (resolve p)
    | _ -> ()
  in
  (* the comparators handed to the sort family, which D010 allows *)
  let sort_comparators = ref [] in
  let d010 e =
    if not (List.mem e.exp_loc !sort_comparators) then
      add e.exp_loc "D010"
        "float compare on a hot path runs a branch-free chain of compares before every \
         decision; decide with < and >, and write the NaN case out"
  in
  (* a type declared in this unit is named by a bare identifier *)
  let graph_like p =
    let comps =
      match p with
      | Path.Pident id -> String.split_on_char '.' u.canon @ [ Ident.name id ]
      | _ -> resolve p
    in
    match List.rev comps with
    | "t" :: ("Graph" | "Network") :: _ -> true
    | _ -> false
  in
  let ident_rules e p =
    match resolve p with
    | [ "Stdlib"; "Hashtbl"; fn ] when on "D001" && List.mem fn hashtbl_unordered ->
      add e.exp_loc "D001"
        (Printf.sprintf
           "Hashtbl.%s iterates in hash order; iterate a key list or a dense array \
            in a fixed order" fn)
    | "Stdlib" :: "Random" :: _ when on "D002" ->
      add e.exp_loc "D002" "ambient Random.* breaks replayability; thread a Dex_util.Rng.t"
    | [ "Stdlib"; ("failwith" | "invalid_arg" as fn) ] when on "D003" ->
      add e.exp_loc "D003"
        (Printf.sprintf
           "%s in a protocol layer; raise a typed exception (Dex_util.Invariant.%s)" fn
           (if fn = "failwith" then "fail" else "require"))
    | [ "Stdlib"; (("Array" | "Bytes") as m); fn ]
      when on "D009"
           && String.starts_with ~prefix:"unsafe_" fn
           && (m = "Bytes" || fn = "unsafe_get" || fn = "unsafe_set") ->
      add e.exp_loc "D009"
        (Printf.sprintf
           "%s.%s indexes without a bounds check outside the kernel allow-list; index \
            checked, or move the loop into a kernel that checks its lengths once per call"
           m fn)
    | [ "Stdlib"; "Float"; "compare" ] when on "D010" -> d010 e
    | [ "Stdlib"; "compare" ]
      when on "D010"
           && Option.fold ~none:false ~some:(Path.same Predef.path_float)
                (domain_head e.exp_type) ->
      d010 e
    | [ "Stdlib"; "Sys"; "time" ] | [ "Unix"; ("gettimeofday" | "time") ] when on "D004" ->
      add e.exp_loc "D004" "wall-clock read; use Dex_obs.Clock.now_ns"
    (* applied or passed as a value alike; graph operands are D005's *)
    | [ "Stdlib"; ("min" | "max" as fn) ]
      when on "D007"
           && not
                (on "D005"
                 && Option.fold ~none:false ~some:graph_like (domain_head e.exp_type)) ->
      add e.exp_loc "D007"
        (Printf.sprintf
           "polymorphic Stdlib.%s on a hot path calls the generic comparison; use Int.%s, or \
            an explicit comparison at float"
           fn fn)
    | _ -> ()
  in
  let apply_rules e f args =
    match f.exp_desc with
    | Texp_ident (fp, _, _) -> (
      match resolve fp with
      | [ "Stdlib"; op ]
        when on "D005" && List.mem op compare_like
             && Option.fold ~none:false ~some:graph_like (domain_head f.exp_type) ->
        add e.exp_loc "D005"
          (Printf.sprintf
             "polymorphic %s on a graph/network value; compare explicit fields instead" op)
      | [ "Stdlib"; op ]
        when on "D008" && List.mem op ordering_ops && domain_is_var f.exp_type ->
        add e.exp_loc "D008"
          (Printf.sprintf
             "polymorphic %s at a type variable on a hot path calls the generic \
              comparison; annotate the operand's type (e.g. (x : int))"
             op)
      | comps when sort_family comps -> (
        match List.find_map (function Asttypes.Nolabel, a -> a | _ -> None) args with
        | None -> ()
        | Some cmp -> (
          sort_comparators := cmp.exp_loc :: !sort_comparators;
          match cmp.exp_desc with
          | Texp_ident (cp, _, _)
            when on "D006"
                 && resolve cp = [ "Stdlib"; "compare" ]
                 && not
                      (Option.fold ~none:false
                         ~some:(fun h -> List.exists (Path.same h) specialized)
                         (domain_head cmp.exp_type)) ->
            add e.exp_loc "D006"
              (Printf.sprintf
                 "polymorphic compare passed to %s on a hot path at a type the \
                  compiler does not specialize; use a monomorphic comparator \
                  (e.g. Int.compare)"
                 (String.concat "." (List.tl comps)))
          | _ -> ()))
      | _ -> ())
    | _ -> ()
  in
  let expr (self : Tast_iterator.iterator) e =
    (match e.exp_desc with
     | Texp_ident (p, _, _) -> ident_rules e p
     | Texp_assert ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, []); _ }, _)
       when on "D003" ->
       add e.exp_loc "D003"
         "assert false in a protocol layer; raise a typed exception \
          (Dex_util.Invariant.fail)"
     | Texp_apply (f, args) -> apply_rules e f args
     | Texp_letmodule (_, { txt = Some name; _ }, _, me, _) -> alias name me
     | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let structure_item (self : Tast_iterator.iterator) si =
    (match si.str_desc with
     | Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ } -> alias name mb_expr
     | _ -> ());
    Tast_iterator.default_iterator.structure_item self si
  in
  let it = { Tast_iterator.default_iterator with expr; structure_item } in
  it.structure it str;
  List.rev !findings

(* ================= C003: vertex params in .mli ==================== *)

let vertex_param_names =
  [ "vertex"; "root"; "src"; "dst"; "leader"; "source"; "target"; "parent";
    "neighbor"; "u"; "v" ]

let c003 ~file sg =
  let findings = ref [] in
  let add ct message =
    findings := finding_of_loc ~rule:"C003" ~file ct.ctyp_loc message :: !findings
  in
  let constr_args path ct =
    match ct.ctyp_desc with
    | Ttyp_constr (p, _, args) when Path.same p path -> Some args
    | _ -> None
  in
  let is_int ct = match constr_args Predef.path_int ct with Some [] -> true | _ -> false in
  let typ (self : Tast_iterator.iterator) ct =
    (match ct.ctyp_desc with
     | Ttyp_arrow ((Asttypes.Labelled l | Asttypes.Optional l), arg, _) ->
       if List.mem l vertex_param_names && is_int arg then
         add arg
           (Printf.sprintf
              "vertex-valued parameter ~%s is a raw int; use \
               Dex_graph.Vertex.local (subnetwork coordinates) or \
               Vertex.orig (original coordinates)"
              l)
       else if l = "vertex_map"
               && (match constr_args Predef.path_array arg with
                   | Some [ elt ] -> is_int elt
                   | _ -> false)
       then add arg "vertex map parameter is a raw int array; use Dex_graph.Vertex.Map.t"
     | _ -> ());
    Tast_iterator.default_iterator.typ self ct
  in
  let it = { Tast_iterator.default_iterator with typ } in
  it.signature it sg;
  List.rev !findings

(* ================= per-source entry point ========================= *)

(* Every rule scoped to one source file, on its compiled unit [u]: the
   D-rules on an implementation, C003 on an interface. *)
let lint_unit ?(all_rules = false) ~path u =
  let on = Lint.rule_applies ~all_rules (Lint.rel_segments path) in
  let findings =
    match u.annots with
    | Cmt_format.Implementation str -> d_rules ~on ~file:path u str
    | Cmt_format.Interface sg when on "C003" -> c003 ~file:path sg
    | _ -> []
  in
  List.sort Lint.by_position findings

(* ================= X-rules: reference graph ======================= *)

(* where a unit's source lives: C004 counts a reference by where it
   comes from *)
type origin = Program | Test | Fixture

let origin_of u =
  match u.source with
  | Some src when Lint.under [ "test" ] (Lint.rel_segments src) -> Test
  | Some src when is_fixture_path src -> Fixture
  | _ -> Program

type ref_db = {
  known_units : (string, origin) Hashtbl.t; (* canon unit names *)
  global_aliases : (string, string list) Hashtbl.t; (* "Dexpander.Ldd" -> comps *)
  (* (referencing unit canon, target unit canon, qualified value name);
     value name "" is a bare module reference *)
  mutable value_refs : (string * string * string) list;
  (* (referencing unit, root compilation unit of a path it names),
     whatever library the root belongs to *)
  mutable roots : (unit_info * string) list;
}

(* resolve alias prefixes: local aliases of the referencing unit first,
   then cross-unit aliases (e.g. Dexpander's re-exports), to fixpoint *)
let resolve_comps db local_aliases comps =
  let step comps =
    match comps with
    | head :: rest when Hashtbl.mem local_aliases head ->
      Some (Hashtbl.find local_aliases head @ rest)
    | a :: b :: rest when Hashtbl.mem db.global_aliases (a ^ "." ^ b) ->
      Some (Hashtbl.find db.global_aliases (a ^ "." ^ b) @ rest)
    | _ -> None
  in
  let rec go n comps =
    if n = 0 then comps
    else match step comps with None -> comps | Some c -> go (n - 1) c
  in
  go 8 (norm_comps comps)

(* split resolved comps into (unit canon, qualified member name) *)
let target_of db comps =
  match comps with
  | a :: b :: rest when Hashtbl.mem db.known_units (a ^ "." ^ b) ->
    Some (a ^ "." ^ b, String.concat "." rest)
  | a :: rest when Hashtbl.mem db.known_units a ->
    Some (a, String.concat "." rest)
  | _ -> None

let scan_unit_refs db u =
  match u.annots with
  | Cmt_format.Implementation str ->
    let local_aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
    let add_ref p =
      if Ident.global (Path.head p) then db.roots <- (u, Ident.name (Path.head p)) :: db.roots;
      match target_of db (resolve_comps db local_aliases (path_comps p)) with
      | Some (unit, member) when unit <> u.canon ->
        db.value_refs <- (u.canon, unit, member) :: db.value_refs
      | _ -> ()
    in
    let expr (self : Tast_iterator.iterator) e =
      (match e.exp_desc with
       | Texp_ident (p, _, _) -> add_ref p
       | Texp_construct _ -> ()
       | _ -> ());
      Tast_iterator.default_iterator.expr self e
    in
    let module_expr (self : Tast_iterator.iterator) me =
      (match me.mod_desc with Tmod_ident (p, _) -> add_ref p | _ -> ());
      Tast_iterator.default_iterator.module_expr self me
    in
    let typ (self : Tast_iterator.iterator) ct =
      (match ct.ctyp_desc with Ttyp_constr (p, _, _) -> add_ref p | _ -> ());
      Tast_iterator.default_iterator.typ self ct
    in
    let structure_item (self : Tast_iterator.iterator) si =
      (match si.str_desc with
       | Tstr_module
           { mb_name = { txt = Some name; _ };
             mb_expr = { mod_desc = Tmod_ident (p, _); _ };
             _ } ->
         Hashtbl.replace local_aliases name
           (resolve_comps db local_aliases (path_comps p))
       | _ -> ());
      Tast_iterator.default_iterator.structure_item self si
    in
    let it =
      { Tast_iterator.default_iterator with expr; module_expr; typ;
        structure_item }
    in
    it.structure it str
  | _ -> ()

(* register the module aliases a unit exports, so references routed
   through a facade (Dexpander.Ldd.run) resolve to the defining unit *)
let scan_unit_aliases db u =
  match u.annots with
  | Cmt_format.Implementation str ->
    List.iter
      (fun si ->
        match si.str_desc with
        | Tstr_module
            { mb_name = { txt = Some name; _ };
              mb_expr = { mod_desc = Tmod_ident (p, _); _ };
              _ } ->
          Hashtbl.replace db.global_aliases
            (u.canon ^ "." ^ name)
            (norm_comps (path_comps p))
        | _ -> ())
      str.str_items
  | _ -> ()

(* value exports of a .cmti, with nested-module prefixes *)
let exports_of_interface sg =
  let acc = ref [] in
  let rec walk prefix items =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
          acc := (prefix ^ vd.val_name.Asttypes.txt, vd.val_loc) :: !acc
        | Tsig_module md -> (
          let name =
            match md.md_name.Asttypes.txt with Some n -> n | None -> ""
          in
          match md.md_type.mty_desc with
          | Tmty_signature s when name <> "" ->
            walk (prefix ^ name ^ ".") s.sig_items
          | _ -> ())
        | _ -> ())
      items
  in
  (match sg with
  | Cmt_format.Interface s -> walk "" s.sig_items
  | _ -> ());
  List.rev !acc

let build_ref_db impls =
  let db =
    { known_units = Hashtbl.create 64;
      global_aliases = Hashtbl.create 64;
      value_refs = [];
      roots = [] }
  in
  List.iter (fun u -> Hashtbl.replace db.known_units u.canon (origin_of u)) impls;
  List.iter (scan_unit_aliases db) impls;
  List.iter (scan_unit_refs db) impls;
  db

(* ---- C004: dead exports ---- *)

(* a use keeps an export alive when a program unit (lib/, bin/,
   bench/, tools/, examples/) makes it; a test/ unit's never does, and
   a fixture's only for another fixture *)
let keeps_alive db ~from ~unit =
  let origin c = Option.value ~default:Program (Hashtbl.find_opt db.known_units c) in
  match origin from with
  | Program -> true
  | Test -> false
  | Fixture -> origin unit = Fixture

let dead_exports ~scope ~include_fixtures db intfs =
  let used : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (from, unit, member) ->
      if member <> "" && keeps_alive db ~from ~unit then
        Hashtbl.replace used (unit, member) ())
    db.value_refs;
  List.concat_map
    (fun u ->
      match u.source with
      | Some src
        when List.exists (fun s -> Lint.under (Lint.rel_segments s) (Lint.rel_segments src)) scope
             && (include_fixtures || not (is_fixture_path src)) ->
        List.filter_map
          (fun (name, loc) ->
            if Hashtbl.mem used (u.canon, name) then None
            else
              Some
                (finding_of_loc ~rule:"C004" ~file:src loc
                   (Printf.sprintf
                      "export %s.%s is referenced by no other program unit; \
                       drop it from the .mli"
                      u.canon name)))
          (exports_of_interface u.annots)
      | _ -> [])
    intfs

(* ---- C005: layering ---- *)

(* the architecture ladder; an edge must point strictly down *)
let layer_ranks =
  [ ("dex_util", 0); ("dex_graph", 1); ("dex_obs", 1); ("dex_congest", 2);
    ("dex_spectral", 2); ("dex_sparsecut", 3); ("dex_ldd", 3);
    ("dex_decomp", 4); ("dex_routing", 4); ("dex_triangle", 5);
    ("dexpander", 6) ]

let rank lib = List.assoc_opt lib layer_ranks

type sexp = Atom of string | List of sexp list

(* minimal dune-file reader: atoms, lists and ; comments *)
let parse_sexps src =
  let n = String.length src in
  let rec items i acc =
    if i >= n then (List.rev acc, n)
    else
      match src.[i] with
      | ')' -> (List.rev acc, i + 1)
      | '(' ->
        let l, j = items (i + 1) [] in
        items j (List l :: acc)
      | ';' -> items (Option.value (String.index_from_opt src i '\n') ~default:n) acc
      | ' ' | '\t' | '\n' | '\r' -> items (i + 1) acc
      | _ ->
        let j = ref i in
        while !j < n && not (String.contains " \t\n\r();" src.[!j]) do incr j done;
        items !j (Atom (String.sub src i (!j - i)) :: acc)
  in
  fst (items 0 [])

(* every stanza of a dune file as (its name, its object dir, its
   libraries): a library's object dir is ".NAME.objs", executables'
   and tests' ".FIRST.eobjs" *)
let stanzas src =
  List.filter_map
    (function
      | List (Atom kind :: fields) ->
        let atoms key =
          List.concat_map
            (function
              | List (Atom k :: v) when k = key ->
                List.filter_map (function Atom a -> Some a | List _ -> None) v
              | _ -> [])
            fields
        in
        (match atoms "name" @ atoms "names" with
         | name :: _ ->
           let suffix = if kind = "library" then ".objs" else ".eobjs" in
           Some (name, "." ^ name ^ suffix, atoms "libraries")
         | [] -> None)
      | _ -> None)
    (parse_sexps src)

(* the library owning compilation unit [m] for [u]: the first
   directory on [u]'s load path holding [m]'s interface, an in-repo
   library named by its object dir and an installed one by its own *)
let owner u m =
  List.find_map
    (fun d ->
      if
        List.exists
          (fun f -> Sys.file_exists (Filename.concat d (f ^ ".cmi")))
          [ String.uncapitalize_ascii m; m ]
      then Some (Option.value (lib_of_cmt_path d) ~default:(Filename.basename d))
      else None)
    u.loadpath

(* the dune files under the program directories, relative to [root] *)
let rec dune_files root rel =
  let abs = Filename.concat root rel in
  if Sys.file_exists abs && Sys.is_directory abs then
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.to_list entries
    |> List.concat_map (fun e ->
           if e.[0] = '.' || e = "_build" then []
           else if e = "dune" then [ rel ]
           else dune_files root (Filename.concat rel e))
  else []

let layering ~source_root db impls =
  let lib_of_unit : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun u -> match u.lib with
       | Some l -> Hashtbl.replace lib_of_unit u.canon l
       | None -> ())
    impls;
  (* observed lib -> lib edges from resolved references *)
  let edges =
    List.filter_map
      (fun (src_unit, dst_unit, _) ->
        match
          (Hashtbl.find_opt lib_of_unit src_unit, Hashtbl.find_opt lib_of_unit dst_unit)
        with
        | Some a, Some b when a <> b -> Some (a, b)
        | _ -> None)
      db.value_refs
    |> List.sort_uniq (fun (a, b) (c, d) ->
           match String.compare a c with 0 -> String.compare b d | k -> k)
  in
  (* order violations *)
  let order =
    List.filter_map
      (fun (a, b) ->
        match (rank a, rank b) with
        | Some ra, Some rb when rb >= ra ->
          Some
            (mk_finding ~rule:"C005" ~file:(Printf.sprintf "lib (%s)" a) ~line:1 ~col:0
               (Printf.sprintf
                  "layering violation: %s (layer %d) references %s (layer %d); \
                   edges must point strictly down the ladder"
                  a ra b rb))
        | _ -> None)
      edges
  in
  (* declared-but-unused dune dependencies, in-repo or installed, of
     every stanza under the program directories whose units were
     compiled: a library is used when a unit of the stanza names one of
     its compilation units *)
  let unused =
    List.concat_map (dune_files source_root) [ "lib"; "bin"; "bench"; "tools"; "examples" ]
    |> List.concat_map (fun rel_dir ->
           let dune = Filename.concat rel_dir "dune" in
           stanzas (read_file (Filename.concat source_root dune))
           |> List.concat_map (fun (stanza, objs, declared) ->
                  let of_stanza u = u.dir = rel_dir && u.objs = objs in
                  let units = List.filter of_stanza impls in
                  let used =
                    List.filter_map (fun (u, m) -> if of_stanza u then owner u m else None) db.roots
                    |> List.sort_uniq String.compare
                  in
                  List.filter_map
                    (fun dep ->
                      (* "compiler-libs.common" lives in "compiler-libs" *)
                      let dir = List.hd (String.split_on_char '.' dep) in
                      if units = [] || List.mem dir used then None
                      else
                        Some
                          (mk_finding ~rule:"C005" ~file:dune ~line:1 ~col:0
                             (Printf.sprintf
                                "declared but unused dependency: %s lists %s in \
                                 (libraries ...) yet no unit of %s names it"
                                stanza dep stanza)))
                    declared))
  in
  order @ unused
