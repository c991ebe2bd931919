(* Tests for the observability layer: the JSON writer, trace events and
   their JSONL lines, span trees over real algorithm runs, the
   per-edge congestion histogram, fault-aware word accounting and the
   bench tables. The writers' output is pinned as exact strings. *)

module Json = Dex_obs.Json
module Trace = Dex_obs.Trace
module Snapshot = Dex_obs.Snapshot
module Graph = Dex_graph.Graph
module Gen = Dex_graph.Generators
module Rounds = Dex_congest.Rounds
module Network = Dex_congest.Network
module Arena = Dex_congest.Arena
module Vertex = Dex_graph.Vertex
module Faults = Dex_congest.Faults
module Decomposition = Dex_decomp.Decomposition
module Las_vegas = Dex_decomp.Las_vegas
module Enum = Dex_triangle.Expander_enum
module Rng = Dex_util.Rng

(* ---------- JSON writer ---------- *)

(* the lines a file holds, in order *)
let read_lines path = In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n'

(* floats print as their shortest decimal that reads back as the same
   float, always with a '.' or an exponent *)
let test_json_roundtrip () =
  List.iter
    (fun x ->
      let s = Json.to_string (Json.Float x) in
      Alcotest.(check bool) (s ^ " reads back") true (float_of_string s = x);
      Alcotest.(check bool) (s ^ " is a float literal") true
        (String.exists (fun c -> c = '.' || c = 'e') s))
    [ 1.5; 0.1; 1.0 /. 3.0; 3.0; -42.0; 1e300; 5e-324; 123456789.125 ];
  Alcotest.(check string) "non-finite is null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float Float.nan; Json.Float Float.infinity ]))

let test_json_escapes () =
  let doc =
    Json.Obj
      [ ("s", Json.String "a \"quoted\" line\nwith\tescapes \\ \r\b\012 and \x01\x1f");
        ("utf8", Json.String "é→");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
        ("k\"ey", Json.Float 2.0) ]
  in
  Alcotest.(check string) "compact rendering"
    "{\"s\":\"a \\\"quoted\\\" line\\nwith\\tescapes \\\\ \\r\\b\\f and \\u0001\\u001f\",\
     \"utf8\":\"é→\",\"i\":-42,\"f\":1.5,\"b\":true,\"n\":null,\"l\":[1,[],{}],\
     \"k\\\"ey\":2.0}"
    (Json.to_string doc)

(* ---------- trace events: one JSONL line per kind ---------- *)

let test_event_goldens () =
  let path = Filename.temp_file "dex_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun sink ->
          let tr = Trace.create ~sink () in
          let id = Trace.span_open tr ~name:"decompose" ~rounds_before:0 in
          Trace.round_tick tr ~round:4 ~messages:10 ~max_edge_load:2 ~active:7;
          Trace.fault tr ~kind:"drop" ~round:2 ~src:1 ~dst:5;
          Trace.fault tr ~kind:"duplicate" ~round:9 ~src:3 ~dst:4;
          Trace.retry tr ~label:"sparse-cut" ~attempt:2 ~certified:false;
          Trace.span_close tr ~id ~name:"decompose" ~rounds:17 ~wall_ns:12345);
      Alcotest.(check (list string)) "one line per event"
        [ {|{"ev":"span-open","id":0,"parent":-1,"name":"decompose","rounds-before":0}|};
          {|{"ev":"round","round":4,"messages":10,"max-edge-load":2,"active":7}|};
          {|{"ev":"fault","kind":"drop","round":2,"src":1,"dst":5}|};
          {|{"ev":"fault","kind":"duplicate","round":9,"src":3,"dst":4}|};
          {|{"ev":"retry","label":"sparse-cut","attempt":2,"certified":false}|};
          {|{"ev":"span-close","id":0,"name":"decompose","rounds":17,"wall-ns":12345}|};
          "" ]
        (read_lines path))

let test_ring_eviction () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.retry tr ~label:"k" ~attempt:i ~certified:true
  done;
  Alcotest.(check int) "emitted" 10 (Trace.emitted tr);
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  let retained =
    List.map
      (function Trace.Retry { attempt; _ } -> attempt | _ -> Alcotest.fail "unexpected event")
      (Trace.events tr)
  in
  Alcotest.(check (list int)) "oldest first" [ 7; 8; 9; 10 ] retained

(* ---------- span tree over a real decomposition run ---------- *)

let strip_wall tree =
  (* the span structure must be deterministic; wall-clock is not *)
  let rec go (t : Rounds.tree) =
    Printf.sprintf "%s:%d:%d(%s)" t.Rounds.span t.Rounds.rounds t.Rounds.self
      (String.concat "," (List.map go t.Rounds.children))
  in
  go tree

let traced_decompose ~seed =
  let g = Gen.gnp (Rng.create 7) ~n:100 ~p:0.08 in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let r = Decomposition.run ~ledger ~epsilon:(1.0 /. 6.0) ~k:2 g (Rng.create seed) in
  (r, ledger, tr)

let test_span_tree_deterministic () =
  let _, l1, _ = traced_decompose ~seed:11 in
  let _, l2, _ = traced_decompose ~seed:11 in
  Alcotest.(check bool) "same structure" true
    (strip_wall (Rounds.tree l1) = strip_wall (Rounds.tree l2));
  Alcotest.(check int) "same total" (Rounds.total l1) (Rounds.total l2)

let rec leaf_sum (t : Rounds.tree) =
  t.Rounds.self + List.fold_left (fun acc c -> acc + leaf_sum c) 0 t.Rounds.children

let test_tree_consistency () =
  let r, ledger, tr = traced_decompose ~seed:11 in
  let tree = Rounds.tree ledger in
  let rec node_sum_ok (t : Rounds.tree) =
    t.Rounds.rounds
    = t.Rounds.self + List.fold_left (fun acc c -> acc + c.Rounds.rounds) 0 t.Rounds.children
    && List.for_all node_sum_ok t.Rounds.children
  in
  Alcotest.(check bool) "rounds = self + children everywhere" true (node_sum_ok tree);
  Alcotest.(check int) "leaf sum = total" (Rounds.total ledger) (leaf_sum tree);
  Alcotest.(check int) "by_phase sum = total" (Rounds.total ledger)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Rounds.by_phase ledger));
  Alcotest.(check string) "root" "total" tree.Rounds.span;
  Alcotest.(check int) "root rounds" (Rounds.total ledger) tree.Rounds.rounds;
  (* the decomposition wraps its work in named spans, and the executed
     clustering phase leaves a charge leaf somewhere under them *)
  let rec find name (t : Rounds.tree) =
    t.Rounds.span = name || List.exists (find name) t.Rounds.children
  in
  Alcotest.(check bool) "decompose span" true (find "decompose" tree);
  Alcotest.(check bool) "phase1 span" true (find "phase1" tree);
  Alcotest.(check bool) "mpx-clustering leaf" true (find "mpx-clustering" tree);
  (* executed message traffic was accounted both in stats and the trace *)
  Alcotest.(check bool) "stats.messages > 0" true
    (r.Decomposition.stats.Decomposition.messages > 0);
  Alcotest.(check int) "trace messages = stats.messages"
    r.Decomposition.stats.Decomposition.messages (Trace.messages tr)

(* ---------- per-edge congestion histogram ---------- *)

(* On a star, make each leaf v send v mod 3 + 1 rounds' worth of pings
   to the hub: spoke loads differ, so top-K ordering is observable. *)
let test_hot_edges_star () =
  let n = 8 in
  let g = Reference.star n in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let net = Network.create g ledger in
  ignore
    (Network.run_active_rounds net ~label:"star-pings"
       ~init:(fun v -> if v = 0 then 0 else (v mod 3) + 1)
       ~step:(fun ~round:_ ~vertex:v budget _ib ob ->
         let v = Vertex.local_int v in
         if v = 0 || budget = 0 then budget
         else begin
           Arena.Outbox.send1 ob ~dst:(Vertex.local 0) v;
           if budget > 1 then Arena.Outbox.wake ob;
           budget - 1
         end)
       4);
  let loads = Trace.top_edges tr n in
  List.iter
    (fun v ->
      Alcotest.(check (option int))
        (Printf.sprintf "load of spoke %d" v)
        (Some ((v mod 3) + 1))
        (List.assoc_opt (0, v) loads))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  (* descending by load, ties broken by edge — fully deterministic *)
  Alcotest.(check (list (pair (pair int int) int)))
    "top-4"
    [ ((0, 2), 3); ((0, 5), 3); ((0, 1), 2); ((0, 4), 2) ]
    (Trace.top_edges tr 4);
  Alcotest.(check bool) "each edge once, smaller endpoint first" true
    (List.for_all (fun ((u, v), _) -> u < v) loads && List.length loads = n - 1)

(* ---------- round ticks and word accounting ---------- *)

let flood net g rounds =
  ignore
    (Network.run_active_rounds net ~label:"flood"
       ~init:(fun v -> v land 1)
       ~step:(fun ~round:_ ~vertex:v st ib ob ->
         let v = Vertex.local_int v in
         let st = ref st in
         Arena.Inbox.iter1 ib (fun _ w -> st := !st lxor w);
         Graph.iter_neighbors g v (fun u -> Arena.Outbox.send1 ob ~dst:(Vertex.local u) !st);
         !st)
       rounds)

let test_round_ticks () =
  let g = Gen.cycle 16 in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let net = Network.create g ledger in
  flood net g 5;
  let ticks =
    List.filter_map
      (function
        | Trace.Round_tick { messages; max_edge_load; active; _ } ->
          Some (messages, max_edge_load, active)
        | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check int) "one tick per round" 5 (List.length ticks);
  Alcotest.(check int) "tick messages sum = messages_sent" (Network.messages_sent net)
    (List.fold_left (fun acc (m, _, _) -> acc + m) 0 ticks);
  (* every vertex of the cycle sends both ways, every round *)
  List.iter
    (fun (_, load, active) ->
      Alcotest.(check int) "all vertices active" 16 active;
      Alcotest.(check int) "undirected edges carry both directions" 2 load)
    ticks

(* messages_sent and the traced per-round message counts both count
   delivered messages, one word each *)
let test_delivered_words_fault_aware () =
  let g = Gen.cycle 12 in
  let run faults =
    let ledger = Rounds.create () in
    let tr = Trace.create () in
    Rounds.attach_trace ledger (Some tr);
    let net = Network.create ?faults g ledger in
    flood net g 4;
    let messages =
      List.fold_left
        (fun acc -> function Trace.Round_tick { messages; _ } -> acc + messages | _ -> acc)
        0 (Trace.events tr)
    in
    Alcotest.(check int) "tick messages sum = messages_sent" (Network.messages_sent net)
      messages;
    (net, faults)
  in
  let clean, _ = run None in
  Alcotest.(check int) "clean: 2 per edge per round" (2 * 12 * 4) (Network.messages_sent clean);
  (* duplicate everything: twice the deliveries, twice the words *)
  let doubled, _ = run (Some (Faults.create ~drop:0.0 ~duplicate:1.0 ~seed:0)) in
  Alcotest.(check int) "duplicate=1: words doubled"
    (2 * Network.messages_sent clean)
    (Network.messages_sent doubled);
  (* drop everything: nothing delivered, nothing charged *)
  let silenced, faults = run (Some (Faults.create ~drop:1.0 ~duplicate:0.0 ~seed:0)) in
  Alcotest.(check int) "drop=1: no words" 0 (Network.messages_sent silenced);
  Alcotest.(check bool) "drops recorded" true
    (match faults with Some f -> Faults.drops f > 0 | None -> false)

let test_fault_events_bridged () =
  let g = Gen.cycle 10 in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let faults = Faults.create ~drop:0.5 ~duplicate:0.0 ~seed:3 in
  let net = Network.create ~faults g ledger in
  flood net g 4;
  Alcotest.(check bool) "schedule dropped something" true (Faults.drops faults > 0);
  Alcotest.(check int) "every fault reached the trace" (Faults.drops faults)
    (Trace.faults tr);
  let kinds =
    List.filter_map
      (function Trace.Fault { kind; _ } -> Some kind | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check bool) "drop events present" true (List.mem "drop" kinds)

(* ---------- retries ---------- *)

let test_retry_events () =
  let g = Gen.gnp (Rng.create 5) ~n:60 ~p:0.1 in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  let outcome = Las_vegas.decompose ~ledger ~epsilon:(1.0 /. 6.0) ~k:2 g (Rng.create 1) in
  Alcotest.(check bool) "certified" true (Result.is_ok outcome);
  let retries =
    List.filter_map
      (function Trace.Retry { label; certified; _ } -> Some (label, certified) | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check bool) "at least one retry event" true (List.length retries >= 1);
  Alcotest.(check int) "retry counter matches" (List.length retries) (Trace.retries tr);
  Alcotest.(check bool) "labelled decompose" true
    (List.for_all (fun (l, _) -> l = "decompose") retries);
  Alcotest.(check bool) "last attempt certified" true
    (snd (List.nth retries (List.length retries - 1)))

(* every triangle attempt is its own span: one "attempt-<i>" child of
   the root per retry event, each holding that attempt's "triangles"
   span *)
let test_triangle_attempt_spans () =
  let rng = Rng.create 67 in
  let g = Gen.connectivize rng (Gen.gnp rng ~n:40 ~p:0.25) in
  let ledger = Rounds.create () in
  let tr = Trace.create () in
  Rounds.attach_trace ledger (Some tr);
  ignore (Enum.run_verified ~ledger g (Rng.create 68));
  let attempts =
    List.filter_map
      (function Trace.Retry { attempt; _ } -> Some attempt | _ -> None)
      (Trace.events tr)
  in
  let tree = Rounds.tree ledger in
  Alcotest.(check (list string)) "one span per attempt"
    (List.map (Printf.sprintf "attempt-%d") attempts)
    (List.map (fun (c : Rounds.tree) -> c.Rounds.span) tree.Rounds.children);
  List.iter
    (fun (c : Rounds.tree) ->
      Alcotest.(check (list string)) (c.Rounds.span ^ " holds its run") [ "triangles" ]
        (List.map (fun (t : Rounds.tree) -> t.Rounds.span) c.Rounds.children))
    tree.Rounds.children;
  Alcotest.(check int) "leaf sum = total" (Rounds.total ledger) (leaf_sum tree)

(* ---------- JSONL sink round-trip over a real run ---------- *)

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "dex_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = Gen.cycle 8 in
      let ledger = Rounds.create () in
      let sink = open_out path in
      let tr = Trace.create ~sink () in
      Rounds.attach_trace ledger (Some tr);
      let net = Network.create g ledger in
      Rounds.span (Some ledger) "outer" (fun () -> flood net g 3);
      close_out sink;
      let lines = List.filter (fun l -> l <> "") (read_lines path) in
      Alcotest.(check int) "every emitted event was sunk" (Trace.emitted tr)
        (List.length lines);
      (* the ring's events, rendered by hand in the documented format *)
      let render = function
        | Trace.Span_open { id; parent; name; rounds_before } ->
          Printf.sprintf {|{"ev":"span-open","id":%d,"parent":%d,"name":"%s","rounds-before":%d}|}
            id parent name rounds_before
        | Trace.Span_close { id; name; rounds; wall_ns } ->
          Printf.sprintf {|{"ev":"span-close","id":%d,"name":"%s","rounds":%d,"wall-ns":%d}|}
            id name rounds wall_ns
        | Trace.Round_tick { round; messages; max_edge_load; active } ->
          Printf.sprintf
            {|{"ev":"round","round":%d,"messages":%d,"max-edge-load":%d,"active":%d}|}
            round messages max_edge_load active
        | Trace.Fault _ | Trace.Retry _ -> Alcotest.fail "no faults or retries in this run"
      in
      Alcotest.(check (list string)) "sink and ring agree" (List.map render (Trace.events tr))
        lines)

(* ---------- bench tables ---------- *)

let table ~title headers rows =
  let t = Snapshot.create ~title headers in
  List.iter (Snapshot.add_row t) rows;
  t

let test_table_render () =
  let s = Snapshot.render (table ~title:"demo" [ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ]) in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 3 = "== ");
  Alcotest.(check bool) "rows kept in order" true
    (let i1 = String.index s '1' and i3 = String.index s '3' in
     i1 < i3)

(* columns padded to their widest cell, two spaces apart; a short row
   is padded with empty cells *)
let test_table_formats () =
  Alcotest.(check string) "exact text"
    "== demo ==\n\
     a    bb\n\
     ---  --\n\
     1    2 \n\
     333    \n"
    (Snapshot.render (table ~title:"demo" [ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ]))

(* a row wider than the header list is rejected as it is added *)
let test_snapshot_invalid () =
  match table ~title:"t" [ "a" ] [ [ "1"; "2" ] ] with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message" {|Snapshot.add_row: row of 2 cells in a 1-column table "t"|} msg
  | _ -> Alcotest.fail "accepted a row wider than the headers"

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes golden" `Quick test_json_escapes ] );
      ( "trace",
        [ Alcotest.test_case "event jsonl goldens" `Quick test_event_goldens;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "jsonl sink roundtrip" `Quick test_jsonl_sink_roundtrip ] );
      ( "spans",
        [ Alcotest.test_case "deterministic under fixed seed" `Quick
            test_span_tree_deterministic;
          Alcotest.test_case "tree/by_phase/total consistency" `Quick
            test_tree_consistency ] );
      ( "congestion",
        [ Alcotest.test_case "hot edges on a star" `Quick test_hot_edges_star;
          Alcotest.test_case "round ticks" `Quick test_round_ticks ] );
      ( "faults",
        [ Alcotest.test_case "delivered words are fault-aware" `Quick
            test_delivered_words_fault_aware;
          Alcotest.test_case "fault events bridged" `Quick test_fault_events_bridged ] );
      ( "retries",
        [ Alcotest.test_case "las vegas retry events" `Quick test_retry_events;
          Alcotest.test_case "triangle attempt spans" `Quick test_triangle_attempt_spans ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats ] );
      ( "snapshot",
        [ Alcotest.test_case "invalid documents rejected" `Quick test_snapshot_invalid ] ) ]
