type event =
  | Span_open of { id : int; parent : int; name : string; rounds_before : int }
  | Span_close of { id : int; name : string; rounds : int; wall_ns : int }
  | Round_tick of { round : int; messages : int; max_edge_load : int; active : int }
  | Fault of { kind : string; round : int; src : int; dst : int }
  | Retry of { label : string; attempt : int; certified : bool }

type t = {
  capacity : int;
  ring : event option array;
  mutable emitted : int;
  sink : out_channel option;
  mutable stack : int list;
  mutable next_span : int;
  edge_loads : (int * int, int) Hashtbl.t;
  mutable edge_keys : (int * int) list; (* [edge_loads]' keys, newest first *)
  mutable messages : int;
  mutable fault_count : int;
  mutable retry_count : int;
}

let create ?(capacity = 65536) ?sink () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { capacity;
    ring = Array.make capacity None;
    emitted = 0;
    sink;
    stack = [];
    next_span = 0;
    edge_loads = Hashtbl.create 256;
    edge_keys = [];
    messages = 0;
    fault_count = 0;
    retry_count = 0 }

(* ---------------- JSON lines ---------------- *)

let event_to_json ev =
  let open Json in
  match ev with
  | Span_open { id; parent; name; rounds_before } ->
    Obj
      [ ("ev", String "span-open"); ("id", Int id); ("parent", Int parent);
        ("name", String name); ("rounds-before", Int rounds_before) ]
  | Span_close { id; name; rounds; wall_ns } ->
    Obj
      [ ("ev", String "span-close"); ("id", Int id); ("name", String name);
        ("rounds", Int rounds); ("wall-ns", Int wall_ns) ]
  | Round_tick { round; messages; max_edge_load; active } ->
    Obj
      [ ("ev", String "round"); ("round", Int round); ("messages", Int messages);
        ("max-edge-load", Int max_edge_load); ("active", Int active) ]
  | Fault { kind; round; src; dst } ->
    Obj
      [ ("ev", String "fault"); ("kind", String kind); ("round", Int round);
        ("src", Int src); ("dst", Int dst) ]
  | Retry { label; attempt; certified } ->
    Obj
      [ ("ev", String "retry"); ("label", String label); ("attempt", Int attempt);
        ("certified", Bool certified) ]

let to_jsonl_line ev = Json.to_string (event_to_json ev)

(* ---------------- emission ---------------- *)

let emit t ev =
  (match ev with
  | Round_tick { messages; _ } -> t.messages <- t.messages + messages
  | Fault _ -> t.fault_count <- t.fault_count + 1
  | Retry _ -> t.retry_count <- t.retry_count + 1
  | Span_open _ | Span_close _ -> ());
  t.ring.(t.emitted mod t.capacity) <- Some ev;
  t.emitted <- t.emitted + 1;
  match t.sink with
  | Some oc ->
    output_string oc (to_jsonl_line ev);
    output_char oc '\n'
  | None -> ()

let emitted t = t.emitted
let dropped t = max 0 (t.emitted - t.capacity)

let events t =
  let kept = min t.emitted t.capacity in
  let first = t.emitted - kept in
  List.init kept (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some ev -> ev
      | None -> assert false)

(* ---------------- spans ---------------- *)

let span_open t ~name ~rounds_before =
  let id = t.next_span in
  t.next_span <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  emit t (Span_open { id; parent; name; rounds_before });
  id

let span_close t ~id ~name ~rounds ~wall_ns =
  (match t.stack with
  | top :: rest when top = id -> t.stack <- rest
  | _ ->
    (* tolerate mismatched closes (an exception may have skipped inner
       closes): drop everything down to and including [id] *)
    let rec unwind = function
      | top :: rest -> if top = id then rest else unwind rest
      | [] -> []
    in
    t.stack <- unwind t.stack);
  emit t (Span_close { id; name; rounds; wall_ns })

(* ---------------- convenience emitters ---------------- *)

let round_tick t ~round ~messages ~max_edge_load ~active =
  emit t (Round_tick { round; messages; max_edge_load; active })

let fault t ~kind ~round ~src ~dst = emit t (Fault { kind; round; src; dst })
let retry t ~label ~attempt ~certified = emit t (Retry { label; attempt; certified })

(* ---------------- edge loads ---------------- *)

let count_edge t u v ~by =
  if by > 0 then begin
    let e = (min u v, max u v) in
    match Hashtbl.find_opt t.edge_loads e with
    | Some prev -> Hashtbl.replace t.edge_loads e (prev + by)
    | None ->
      t.edge_keys <- e :: t.edge_keys;
      Hashtbl.replace t.edge_loads e by
  end

let top_edges t k =
  if k <= 0 then []
  else
    List.map (fun e -> (e, Hashtbl.find t.edge_loads e)) t.edge_keys
    |> List.sort (fun (ea, la) (eb, lb) -> if la <> lb then compare lb la else compare ea eb)
    |> List.filteri (fun i _ -> i < k)

let messages t = t.messages
let faults t = t.fault_count
let retries t = t.retry_count
