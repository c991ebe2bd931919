(* Goldens for the three Las Vegas wrappers: Las_vegas.decompose,
   Partition.run_verified and Expander_enum.run_verified.

   Each case runs one wrapper on a fixed (graph, seed) pair with a
   ledger and a trace attached, and pins one line: Ok/Error, the
   attempts used, the rounds summed over them, a digest of the returned
   parts, cut or triangles, the retry events (label, attempt,
   certified) and, for the decomposition and the sparse cut, the span
   tree's names and rounds. The lines were recorded while each wrapper
   still had its own retry loop, before the three were folded into
   Rounds.las_vegas. *)

module Graph = Dex_graph.Graph
module Gen = Dex_graph.Generators
module Rng = Dex_util.Rng
module Rounds = Dex_congest.Rounds
module Trace = Dex_obs.Trace
module D = Dex_decomp.Decomposition
module Lv = Dex_decomp.Las_vegas
module Params = Dex_sparsecut.Params
module Partition = Dex_sparsecut.Partition
module Enum = Dex_triangle.Expander_enum

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))
let digest strings = Digest.to_hex (Digest.string (String.concat ";" strings))

(* span names and rounds, wall time left out; children in order *)
let rec tree_repr (t : Rounds.tree) =
  match t.Rounds.children with
  | [] -> Printf.sprintf "%s:%d" t.Rounds.span t.Rounds.rounds
  | cs ->
    Printf.sprintf "%s:%d(%s)" t.Rounds.span t.Rounds.rounds
      (String.concat "," (List.map tree_repr cs))

let retries tr =
  String.concat ","
    (List.filter_map
       (function
         | Trace.Retry { label; attempt; certified } ->
           Some (Printf.sprintf "%s#%d:%b" label attempt certified)
         | _ -> None)
       (Trace.events tr))

(* runs [f ledger] with a fresh ledger and trace; [f] returns the
   outcome part of the line, the rest is read off the ledger *)
let golden_line ~tree f =
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let outcome = f ledger in
  let spans = if tree then " tree=" ^ tree_repr (Rounds.tree ledger) else "" in
  Printf.sprintf "%s retries=%s%s" outcome (retries tr) spans

let verdict ok = if ok then "ok" else "error"

let decompose_line ~attempts ~epsilon g seed ledger =
  let line ok (result : D.result) attempts rounds =
    Printf.sprintf "%s attempts=%d rounds=%d parts=%d:%s" (verdict ok) attempts rounds
      (List.length result.D.parts) (digest (List.map ints result.D.parts))
  in
  match Lv.decompose ~ledger ~attempts ~epsilon ~k:2 g (Rng.create seed) with
  | Ok o -> line true o.Rounds.value.Lv.result o.Rounds.attempts o.Rounds.rounds_total
  | Error f -> line false f.Rounds.value.Lv.result f.Rounds.attempts f.Rounds.rounds_total

let partition_line ~attempts ~bound params g rng ledger =
  let line ok (o : Partition.t Rounds.verified) =
    Printf.sprintf "%s attempts=%d rounds=%d cut=%d:%s phi=%h" (verdict ok) o.Rounds.attempts
      o.Rounds.rounds_total
      (Array.length o.Rounds.value.Partition.cut)
      (digest [ ints o.Rounds.value.Partition.cut ])
      o.Rounds.value.Partition.conductance
  in
  match Partition.run_verified ~ledger ~attempts ~bound params g rng with
  | Ok o -> line true o
  | Error o -> line false o

let triangles_line ~attempts g seed ledger =
  let line ok (o : Enum.result Rounds.verified) =
    let tri =
      List.map (fun (a, b, c) -> Printf.sprintf "%d,%d,%d" a b c) o.Rounds.value.Enum.triangles
    in
    Printf.sprintf "%s attempts=%d rounds=%d triangles=%d:%s" (verdict ok) o.Rounds.attempts
      o.Rounds.rounds_total (List.length tri) (digest tri)
  in
  match Enum.run_verified ~ledger ~attempts g (Rng.create seed) with
  | Ok o -> line true o
  | Error o -> line false o

(* the three graphs of bench E13, drawn in order from one stream as
   E13 draws them, at scale 25 where E13 uses 40 *)
let e13_graphs () =
  let scale = 25 in
  let rng = Rng.create 139 in
  let sbm =
    Gen.connectivize rng (Gen.planted_partition rng ~parts:4 ~size:scale ~p_in:0.35 ~p_out:0.01)
  in
  let tri = Gen.connectivize rng (Gen.gnp rng ~n:(2 * scale) ~p:0.25) in
  let dumb = Gen.dumbbell rng ~n1:scale ~n2:scale ~d:6 ~bridges:2 in
  (sbm, tri, dumb)

let cases =
  [ ( "e13 decompose",
      fun () ->
        let sbm, _, _ = e13_graphs () in
        golden_line ~tree:true (decompose_line ~attempts:5 ~epsilon:0.3 sbm 141) );
    ( "e13 triangles",
      fun () ->
        let _, tri, _ = e13_graphs () in
        golden_line ~tree:false (triangles_line ~attempts:3 tri 143) );
    ( "e13 sparse-cut",
      fun () ->
        let _, _, dumb = e13_graphs () in
        let phi = 1.0 /. 16.0 in
        let params = Params.make ~phi ~m:(max 1 (Graph.num_edges dumb)) () in
        let bound = Params.h ~n:(Graph.num_vertices dumb) phi in
        golden_line ~tree:true (partition_line ~attempts:3 ~bound params dumb (Rng.create 145)) );
    ( "decompose deterministic sbm",
      fun () ->
        let rng = Rng.create 303 in
        let g =
          Gen.connectivize rng (Gen.planted_partition rng ~parts:4 ~size:25 ~p_in:0.4 ~p_out:0.01)
        in
        golden_line ~tree:true (decompose_line ~attempts:4 ~epsilon:0.3 g 304) );
    (* the first attempt on a 60-cycle misses its certificate: with a
       budget of one that is an Error carrying it, with two the retry
       is accepted *)
    ( "decompose cycle unmet",
      fun () -> golden_line ~tree:true (decompose_line ~attempts:1 ~epsilon:0.3 (Gen.cycle 60) 1) );
    ( "decompose cycle retried",
      fun () -> golden_line ~tree:true (decompose_line ~attempts:2 ~epsilon:0.3 (Gen.cycle 60) 1) );
    ( "sparse-cut bound unmet",
      fun () ->
        let rng = Rng.create 59 in
        let g = Gen.dumbbell rng ~n1:40 ~n2:40 ~d:6 ~bridges:2 in
        let params = Params.make ~phi:(1.0 /. 16.0) ~m:(Graph.num_edges g) () in
        golden_line ~tree:true (partition_line ~attempts:2 ~bound:1e-9 params g rng) ) ]

let goldens =
  [ ("e13 decompose", "ok attempts=1 rounds=270149928 parts=3:8af05ed6c7e7137cd203e85fd11587c7 retries=decompose#1:true tree=total:285806488(las-vegas:285806488(attempt-1:285806488(decompose:285806488(phase1:285806488(level-1:21695471(ldd-refine:14471560,mpx-clustering:33526,partition:7190385(nibble-generate:305,nibble-execute:7189776,nibble-select:304)),level-2:47588760(ldd-refine:16985619,mpx-clustering:54866,partition:30548275(nibble-generate:1581,nibble-execute:30545122,nibble-select:1572)),level-3:216522257(ldd-refine:13962329,mpx-clustering:51914,partition:202508014(nibble-generate:6743,nibble-execute:202494544,nibble-select:6727))),phase2:0),verify:0)))");
    ("e13 triangles", "ok attempts=1 rounds=29706989 triangles=363:0c89c23529aec37aa84bb9c1f3e34c37 retries=triangles#1:true");
    ("e13 sparse-cut", "ok attempts=1 rounds=4507 cut=25:e0ff3ec6e8df7699ccb75f42fefc62a8 phi=0x1.f07c1f07c1f08p-7 retries=sparse-cut#1:true tree=total:4507(attempt-1:4507(partition:4507(nibble-generate:4,nibble-execute:4500,nibble-select:3)))");
    ("decompose deterministic sbm", "ok attempts=1 rounds=253449820 parts=3:c0bbea5870c5884f587844d598c2e6d3 retries=decompose#1:true tree=total:269657770(las-vegas:269657770(attempt-1:269657770(decompose:269657770(phase1:269657770(level-1:20430821(ldd-refine:14471560,mpx-clustering:33526,partition:5925735(nibble-generate:273,nibble-execute:5925190,nibble-select:272)),level-2:234669457(ldd-refine:17861180,mpx-clustering:56960,partition:216751317(nibble-generate:6246,nibble-execute:216738834,nibble-select:6237)),level-3:14557492(ldd-refine:10063478,mpx-clustering:46868,partition:4447146(nibble-generate:1410,nibble-execute:4444342,nibble-select:1394))),phase2:0),verify:0)))");
    ("decompose cycle unmet", "error attempts=1 rounds=9205884 parts=1:2ddf0febc0c7999f32fbb6bcf06f4358 retries=decompose#1:false tree=total:9205884(las-vegas:9205884(attempt-1:9205884(decompose:9205884(phase1:9205884(level-1:9205884(ldd-refine:9066213,mpx-clustering:26450,partition:113221(nibble-generate:33,nibble-execute:113156,nibble-select:32))),phase2:0),verify:0)))");
    ("decompose cycle retried", "ok attempts=2 rounds=6851866105 parts=3:21d3983b677795e7259dbf7379cc56a5 retries=decompose#1:false,decompose#2:true tree=total:7106620927(las-vegas:7106620927(attempt-1:9205884(decompose:9205884(phase1:9205884(level-1:9205884(ldd-refine:9066213,mpx-clustering:26450,partition:113221(nibble-generate:33,nibble-execute:113156,nibble-select:32))),phase2:0),verify:0),attempt-2:7097415043(decompose:7097415043(phase1:7097415043(level-1:9208496(ldd-refine:9066213,mpx-clustering:26450,partition:115833(nibble-generate:33,nibble-execute:115768,nibble-select:32)),level-2:2048834868(ldd-refine:10324078,mpx-clustering:43335,partition:2038467455(nibble-generate:32329,nibble-execute:2038402806,nibble-select:32320)),level-3:5039371679(ldd-refine:6967532,mpx-clustering:37843,partition:5032366304(nibble-generate:59818,nibble-execute:5032246684,nibble-select:59802))),phase2:0),verify:0)))");
    ("sparse-cut bound unmet", "error attempts=2 rounds=11116 cut=39:cce1d5460e4a975df48956a35166a525 phi=0x1.bed61bed61bedp-6 retries=sparse-cut#1:false,sparse-cut#2:false tree=total:11116(attempt-1:5389(partition:5389(nibble-generate:4,nibble-execute:5382,nibble-select:3)),attempt-2:5727(partition:5727(nibble-generate:4,nibble-execute:5720,nibble-select:3)))") ]

let test_goldens () =
  List.iter
    (fun (name, run) -> Alcotest.(check string) name (List.assoc name goldens) (run ()))
    cases

(* a rejected attempt budget raises before any span opens: the ledger
   keeps a bare root and the trace records no event *)
let test_zero_attempts_leave_no_span () =
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  Alcotest.check_raises "attempts 0"
    (Dex_util.Invariant.Violation
       { where = "Las_vegas.decompose"; what = "attempts must be >= 1" })
    (fun () ->
      ignore (Lv.decompose ~ledger ~attempts:0 ~epsilon:0.3 ~k:2 (Gen.cycle 12) (Rng.create 1)));
  Alcotest.(check string) "span tree" "total:0" (tree_repr (Rounds.tree ledger));
  Alcotest.(check int) "trace events" 0 (List.length (Trace.events tr))

let () =
  Alcotest.run "las-vegas"
    [ ( "wrappers",
        [ Alcotest.test_case "goldens" `Quick test_goldens;
          Alcotest.test_case "zero attempts leave no span" `Quick
            test_zero_attempts_leave_no_span ] ) ]
