(* The seed kernel's round loop, kept as the test oracle for the cursor
   kernel. A protocol here is a list step: it reads its inbox as a list
   of (sender, message) and returns its outbox as one. Every live vertex
   is stepped every round, in ascending order: step [v] against the
   previous round's inboxes, validate its outbox (budget, then
   neighbour, then duplicate), apply the fault schedule and deliver in
   ascending destination order, then step [v + 1]. Inboxes are handed
   over senders descending, as the seed kernel did. Every network here
   has the default one-word budget. *)

module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Arena = Dex_congest.Arena
module Faults = Dex_congest.Faults

type 's step =
  round:int -> vertex:Vertex.local -> 's -> (int * int array) list -> 's * (int * int array) list

type t = { g : Graph.t; faults : Faults.t option; mutable messages : int; mutable words : int }

let create ?faults g = { g; faults; messages = 0; words = 0 }

let validate t ~round v outbox =
  let fail violation = raise (Arena.Congestion_violation { round; violation }) in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (u, (msg : int array)) ->
      let words = Array.length msg in
      if words > 1 then fail (Arena.Over_budget { vertex = v; dst = u; words; budget = 1 });
      if not (Graph.mem_edge t.g v u) then fail (Arena.Not_a_neighbor { vertex = v; dst = u });
      if Hashtbl.mem seen u then fail (Arena.Duplicate_edge { vertex = v; dst = u });
      Hashtbl.add seen u ())
    outbox

let exec_round t ~round states inboxes (step : 's step) =
  let next = Array.make (Graph.num_vertices t.g) [] in
  let deliver src dst msg =
    t.messages <- t.messages + 1;
    t.words <- t.words + Array.length msg;
    next.(dst) <- (src, msg) :: next.(dst)
  in
  Array.iteri
    (fun v inbox ->
      let crashed =
        match t.faults with
        | Some f -> Faults.crashed f ~round ~vertex:(Vertex.local v)
        | None -> false
      in
      if not crashed then begin
        let st, outbox = step ~round ~vertex:(Vertex.local v) states.(v) inbox in
        states.(v) <- st;
        validate t ~round v outbox;
        List.iter
          (fun (u, msg) ->
            match t.faults with
            | None -> deliver v u msg
            | Some f ->
              (match Faults.verdict f ~round ~src:(Vertex.local v) ~dst:(Vertex.local u) with
              | `Deliver -> deliver v u msg
              | `Drop -> ()
              | `Duplicate ->
                deliver v u msg;
                deliver v u msg))
          (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) outbox)
      end)
    inboxes;
  next

(* runs until [finished states] holds with nothing delivered in the
   round before (tested before round 1 too) *)
let run t ~init ~step ~finished ~on_round =
  let states = Array.init (Graph.num_vertices t.g) init in
  let inboxes = ref (Array.make (Graph.num_vertices t.g) []) in
  let executed = ref 0 in
  let in_flight () = Array.exists (fun inbox -> inbox <> []) !inboxes in
  while not (finished states && not (in_flight ())) do
    incr executed;
    inboxes := exec_round t ~round:!executed states !inboxes step;
    on_round !executed states
  done;
  (states, !executed)

let run_rounds t ~init ~step ~on_round k =
  let states = Array.init (Graph.num_vertices t.g) init in
  let inboxes = ref (Array.make (Graph.num_vertices t.g) []) in
  for round = 1 to k do
    inboxes := exec_round t ~round states !inboxes step;
    on_round round states
  done;
  states
