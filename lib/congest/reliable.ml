module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Invariant = Dex_util.Invariant

let default_max_retries = 64

exception
  Delivery_failed of {
    label : string;
    vertex : int;
    neighbor : int;
    value : int;
    attempts : int;
  }

(* single-word codec: | has_data:1 | data:30 | has_ack:1 | ack:30 |.
   A word stands for O(log n) bits, so packing two O(log n)-bit values
   plus presence flags stays within the model's word budget. *)
let value_bits = 30
let value_limit = 1 lsl value_bits

let pack = function
  | None -> 0
  | Some v ->
    Invariant.require (v >= 0 && v < value_limit) ~where:"Reliable" "value out of range";
    (v lsl 1) lor 1

let unpack f = if f land 1 = 1 then Some (f lsr 1) else None

let encode ~data ~ack = (pack data lsl (value_bits + 1)) lor pack ack

let decode w = (unpack (w lsr (value_bits + 1)), unpack (w land ((value_limit lsl 1) - 1)))

let infinity_value = value_limit - 1

(* per-neighbor delivery state: [outstanding] is the value still to be
   acknowledged (-1 = none), [ack_due] the just-received value to ack
   next round (-1 = none) *)
type peer = {
  nbr : int;
  mutable outstanding : int;
  mutable attempts : int;
  mutable ack_due : int;
  mutable abandoned : bool;
}

type vstate = { mutable value : int; mutable parent : int; peers : peer array }

let quiet st =
  Array.for_all (fun p -> (p.outstanding < 0 || p.abandoned) && p.ack_due < 0) st.peers

(* Reliable monotone flooding: each vertex holds a value improving via
   min; adopting a better candidate (received value + delta) re-arms
   delivery of the new value to every neighbor. A BFS from [root] floods
   distances (delta 1) from the root alone; leader election floods ids
   (delta 0) from everyone. A vertex stays awake while it is not quiet,
   so the kernel's quiescence is the protocol's. *)
let protocol g ~max_retries ~failure kind =
  let delta, init_value, init_parent, announce =
    match kind with
    | `Bfs root ->
      ( 1,
        (fun v -> if v = root then 0 else infinity_value),
        (fun v -> if v = root then root else -1),
        fun v -> v = root )
    | `Leader -> (0, Fun.id, Fun.id, fun _ -> true)
  in
  let init v =
    let value = init_value v in
    let peers =
      Array.map
        (fun u ->
          { nbr = u;
            outstanding = (if announce v then value else -1);
            attempts = 0;
            ack_due = -1;
            abandoned = false })
        (Graph.neighbors g v)
    in
    { value; parent = init_parent v; peers }
  in
  let step ~round:_ ~vertex st ib ob =
    let v = Vertex.local_int vertex in
    let before = st.value in
    Arena.Inbox.iter1 ib (fun sender w ->
        let data, ack = decode w in
        let peer = st.peers.(Graph.neighbor_rank g v sender) in
        (match data with
        | Some x ->
          peer.ack_due <- x;
          let candidate = x + delta in
          if candidate < st.value then begin
            st.value <- candidate;
            st.parent <- sender;
            Array.iter
              (fun p ->
                p.outstanding <- st.value;
                p.attempts <- 0;
                p.abandoned <- false)
              st.peers
          end
          else if candidate = st.value && candidate < before && sender > st.parent then
            (* among this round's best offers, the parent is the
               largest sender *)
            st.parent <- sender
        | None -> ());
        match ack with
        | Some y ->
          if peer.outstanding = y then begin
            peer.outstanding <- -1;
            peer.attempts <- 0
          end
        | None -> ());
    Array.iter
      (fun p ->
        let data =
          if p.outstanding >= 0 && not p.abandoned then
            if p.attempts >= max_retries then begin
              (* retry budget exhausted: stop retransmitting so the
                 protocol can quiesce; the failure is raised after the
                 run, once rounds are charged *)
              if !failure = None then failure := Some (v, p.nbr, p.outstanding, p.attempts);
              p.abandoned <- true;
              None
            end
            else begin
              p.attempts <- p.attempts + 1;
              Some p.outstanding
            end
          else None
        in
        let ack = if p.ack_due >= 0 then Some p.ack_due else None in
        p.ack_due <- -1;
        if data <> None || ack <> None then
          Arena.Outbox.send1 ob ~dst:(Vertex.local p.nbr) (encode ~data ~ack))
      st.peers;
    if not (quiet st) then Arena.Outbox.wake ob;
    st
  in
  { Conformance.init; step }

let flood net ~label ~max_retries kind =
  Invariant.require (max_retries >= 1) ~where:"Reliable" "max_retries must be >= 1";
  let g = Network.graph net in
  let failure = ref None in
  let p = protocol g ~max_retries ~failure kind in
  let states0 = Array.init (Graph.num_vertices g) p.init in
  let states =
    if Array.for_all quiet states0 then begin
      (* nothing to deliver anywhere: the flood is over before round 1 *)
      Network.charge net ~label 0;
      states0
    end
    else fst (Network.run_active net ~label ~init:p.init ~step:p.step ())
  in
  Option.iter
    (fun (vertex, neighbor, value, attempts) ->
      raise (Delivery_failed { label; vertex; neighbor; value; attempts }))
    !failure;
  states

let bfs_protocol g ~root =
  protocol g ~max_retries:default_max_retries ~failure:(ref None) (`Bfs (Vertex.local_int root))

let bfs_tree ?(max_retries = default_max_retries) net ~root =
  let r = Vertex.local_int root in
  let n = Graph.num_vertices (Network.graph net) in
  Invariant.require (r >= 0 && r < n) ~where:"Reliable.bfs_tree" "root out of range";
  let states = flood net ~label:"bfs-reliable" ~max_retries (`Bfs r) in
  let depth =
    Array.map (fun st -> if st.value >= infinity_value then max_int else st.value) states
  in
  let parent = Array.mapi (fun v st -> if depth.(v) = max_int then -1 else st.parent) states in
  Primitives.tree ~root ~parent ~depth

let elect_leader ?(max_retries = default_max_retries) net =
  let states = flood net ~label:"leader-reliable" ~max_retries `Leader in
  Array.map (fun st -> st.value) states
