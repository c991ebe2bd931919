(* The seed kernel's round loop, kept as the test oracle for the cursor
   kernel. A protocol here is a list step: it reads its inbox as a list
   of (sender, word) and returns its outbox as one. Every vertex is
   stepped every round, in ascending order: step [v] against the
   previous round's inboxes, validate its outbox (neighbour, then
   duplicate), apply the fault schedule and deliver in ascending
   destination order, then step [v + 1]. Inboxes are handed over
   senders descending, as the seed kernel did. A message is one word.

   Below it, ParallelNibble's sequential copy loop, the oracle for its
   lockstep schedule, the binary searches that the arena's mirror pass
   and Nibble's j-sequence replaced, the small helpers tests use where
   the library exports nothing for them, the validators and reference
   computations tests check library outputs against (graph invariants,
   Refine's output conditions, the BFS tree, the most balanced sparse
   cut, the ACL push loop), and the dense and Hashtbl walk and sweep
   oracles the walker and the sweep workspace are checked against. *)

module Graph = Dex_graph.Graph
module Vertex = Dex_graph.Vertex
module Arena = Dex_congest.Arena
module Faults = Dex_congest.Faults

type 's step =
  round:int -> vertex:Vertex.local -> 's -> (int * int) list -> 's * (int * int) list

type t = { g : Graph.t; faults : Faults.t option; mutable messages : int; mutable words : int }

let create ?faults g = { g; faults; messages = 0; words = 0 }

let validate t ~round v outbox =
  let fail violation = raise (Arena.Congestion_violation { round; violation }) in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (u, _) ->
      if not (u <> v && Graph.neighbor_rank t.g v u >= 0) then
        fail (Arena.Not_a_neighbor { vertex = v; dst = u });
      if Hashtbl.mem seen u then fail (Arena.Duplicate_edge { vertex = v; dst = u });
      Hashtbl.add seen u ())
    outbox

let exec_round t ~round states inboxes (step : 's step) =
  let next = Array.make (Graph.num_vertices t.g) [] in
  let deliver src dst msg =
    t.messages <- t.messages + 1;
    t.words <- t.words + 1;
    next.(dst) <- (src, msg) :: next.(dst)
  in
  Array.iteri
    (fun v inbox ->
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
        (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) outbox))
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

(* ---------------- ParallelNibble's sequential copies ---------------- *)

(* [f u v i] once for each edge of P-star — the non-loop edges with at
   least one endpoint in [outcome.participants] — with [u < v].
   Parallel edges are one edge of P-star and are visited once. Edges
   are visited by their participating endpoint (the smaller one when
   both participate) in the order of [outcome.participants], then by
   neighbour ascending. [i] is [Graph.neighbor_rank g u v] (leftmost
   under parallel edges) when the edge is visited from [u], and [-1]
   when it is visited from [v]. The sorted adjacency makes parallel
   copies adjacent, so skipping repeats drops them and leaves [i] the
   leftmost rank. *)
let iter_participating_edges g (outcome : Dex_sparsecut.Nibble.outcome) f =
  let mask = Array.make (Graph.num_vertices g) false in
  Array.iter (fun v -> mask.(v) <- true) outcome.participants;
  Array.iter
    (fun v ->
      let a = Graph.neighbors g v in
      for i = 0 to Array.length a - 1 do
        let u = a.(i) in
        if (i = 0 || a.(i - 1) <> u) && (u > v || not mask.(u)) then
          if u > v then f v u i else f u v (-1)
      done)
    outcome.participants

(* ParallelNibble's congestion counted one P-star edge at a time: per
   edge, the copies whose P-star holds it, at the CSR slot of (u, v),
   u < v, which a binary search finds for every edge *)
let overlap_counters g outcomes =
  let off = Graph.csr_offsets g in
  let overlap = Array.make off.(Graph.num_vertices g) 0 in
  List.iter
    (fun outcome ->
      iter_participating_edges g outcome (fun u v _ ->
          let slot = off.(u) + Graph.neighbor_rank g u v in
          overlap.(slot) <- overlap.(slot) + 1))
    outcomes;
  overlap

(* ParallelNibble as it ran before its copies went into lockstep: each
   copy draws its (start, scale) pair and runs ApproximateNibble to the
   end, in one shared Nibble workspace, before the next copy draws;
   then the overlap count, the Lemma 10 charge and the prefix-union
   selection of the outcomes. *)
let sequential_parallel_nibble ~k params g rng =
  let module Nibble = Dex_sparsecut.Nibble in
  let module Params = Dex_sparsecut.Params in
  let module Rng = Dex_util.Rng in
  let total_volume = Graph.total_volume g in
  if total_volume = 0 then
    { Dex_sparsecut.Parallel_nibble.cut = [||]; rounds = 0; copies = 0; aborted = false;
      max_overlap = 0; nibbles = [] }
  else
  let degrees = Array.init (Graph.num_vertices g) (fun v -> float_of_int (Graph.degree g v)) in
  let sample_scale () =
    let ell = params.Params.ell in
    1 + Rng.weighted_index rng (Array.init ell (fun i -> 2.0 ** float_of_int (-(i + 1))))
  in
  let workspace = Nibble.workspace g in
  let outcomes =
    List.init k (fun _ ->
        let src = Rng.weighted_index rng degrees in
        let b = sample_scale () in
        Nibble.approximate ~workspace params g ~src ~b)
  in
  let w = Params.overlap_bound params ~volume:total_volume in
  let max_overlap = Array.fold_left Int.max 0 (overlap_counters g outcomes) in
  let aborted = max_overlap > w in
  let max_copy_rounds =
    List.fold_left (fun acc (o : Nibble.outcome) -> Int.max acc o.rounds) 0 outcomes
  in
  let depth_proxy =
    List.fold_left (fun acc (o : Nibble.outcome) -> Int.max acc o.steps_executed) 1 outcomes
  in
  let congestion = Int.max 1 (Int.min max_overlap w) in
  let rounds =
    depth_proxy + Params.ceil_log2 k + (congestion * max_copy_rounds)
    + (depth_proxy * Params.ceil_log2 k)
  in
  let cut =
    if aborted then [||]
    else begin
      let threshold = 23 * total_volume / 24 in
      let is_member = Array.make (Graph.num_vertices g) false in
      let members = ref [] and vol = ref 0 in
      let rec select best = function
        | [] -> best
        | (o : Nibble.outcome) :: rest ->
          Option.iter
            (fun (cut : Nibble.cut) ->
              Array.iter
                (fun v ->
                  if not is_member.(v) then begin
                    is_member.(v) <- true;
                    members := v :: !members;
                    vol := !vol + Graph.degree g v
                  end)
                cut.vertices)
            o.result;
          if !vol <= threshold then select !members rest else best
      in
      let cut = Array.of_list (select [] outcomes) in
      Array.sort Int.compare cut;
      cut
    end
  in
  { Dex_sparsecut.Parallel_nibble.cut; rounds; copies = k; aborted; max_overlap;
    nibbles = outcomes }

(* ---------------- the search forms of two cursors ---------------- *)

(* the arena's mirror table as a binary search per slot finds it: for
   the slot on (v, u), u's leftmost slot on (u, v) *)
let mirrors_by_search g =
  let off = Graph.csr_offsets g in
  Array.concat
    (List.init (Graph.num_vertices g) (fun v ->
         Array.map (fun u -> off.(u) + Graph.neighbor_rank g u v) (Graph.neighbors g v)))

(* Appendix A.2's j-sequence with each next index binary-searched in
   [cur, length]: the largest j with Vol(1..j) ≤ (1+φ)·Vol(1..cur), at
   least cur + 1 *)
let j_sequence_by_search (params : Dex_sparsecut.Params.t) volumes ~length =
  let next cur =
    let budget = (1.0 +. params.phi) *. float_of_int volumes.(cur - 1) in
    let lo = ref cur and hi = ref length in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if float_of_int volumes.(mid - 1) <= budget then lo := mid else hi := mid - 1
    done;
    Int.max (cur + 1) !lo
  in
  let rec go j acc = if j > length then List.rev acc else go (next j) (j :: acc) in
  if length = 0 then [] else go 1 []

(* ---------------- helpers the library does not export ---------------- *)

(* K_{1,n-1} with center 0 *)
let star n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

(* [g] in the edge-list format Graph_io.load reads *)
let edge_list g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# dexpander edge list\nn %d\n" (Graph.num_vertices g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

(* Graph_io.load on [text], through a temporary file *)
let load_string text =
  let path = Filename.temp_file "dex_graph" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Dex_graph.Graph_io.load path)

(* the leader flood on [net], as Reliable runs it without faults *)
let elect_leader net =
  let module Network = Dex_congest.Network in
  let p = Dex_congest.Primitives.leader (Network.graph net) in
  let states, _ = Network.run_active net ~label:"leader" ~init:p.init ~step:p.step () in
  Array.map (fun (st : Dex_congest.Primitives.leader_state) -> st.best) states

(* a log of every event of [faults], through its observer: the events
   so far, oldest first. A network created later with a trace attached
   replaces the observer. *)
let fault_log faults =
  let events = ref [] in
  Faults.set_observer faults (Some (fun e -> events := e :: !events));
  fun () -> List.rev !events

(* P-star as a list, in the reverse of iter_participating_edges order *)
let participating_edges g outcome =
  let acc = ref [] in
  iter_participating_edges g outcome (fun u v _ -> acc := (u, v) :: !acc);
  !acc

(* QCheck's [int_range lo hi] shrinks toward 0, which leaves the range
   when lo > 0: a failing property then reports the error of a value it
   was never meant to see. This one draws the same values and shrinks
   toward lo, inside [lo, hi]. *)
let int_range lo hi =
  QCheck.set_shrink
    (fun x yield -> QCheck.Shrink.int (x - lo) (fun d -> yield (lo + d)))
    (QCheck.int_range lo hi)

(* ---------------- validators and reference computations ---------------- *)

(* the representation invariants of [g], read through the public API:
   neighbours in range, no loop stored as a neighbour, sorted and
   symmetric adjacency, and edge counts that match the degrees; raises
   [Failure] with a description on violation *)
let check_graph g =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = Graph.num_vertices g in
  if n < 0 then fail "negative vertex count";
  let plain = ref 0 and loops = ref 0 in
  for v = 0 to n - 1 do
    let a = Graph.neighbors g v in
    for i = 0 to Array.length a - 1 do
      let u = a.(i) in
      if u < 0 || u >= n then fail "neighbor out of range at %d" v;
      if u = v then fail "self-loop stored in adjacency at %d" v;
      if i > 0 && a.(i - 1) > u then fail "unsorted adjacency at %d" v;
      if not (Array.exists (fun w -> w = v) (Graph.neighbors g u)) then
        fail "asymmetric edge %d-%d" v u
    done;
    plain := !plain + Array.length a;
    loops := !loops + Graph.self_loops g v
  done;
  if !plain <> 2 * Graph.num_plain_edges g then fail "plain edge count mismatch";
  if !loops <> Graph.num_edges g - Graph.num_plain_edges g then fail "loop count mismatch"

(* a non-loop edge between distinct [u], [v], or a self-loop when
   [u = v] *)
let mem_edge g u v = if u = v then Graph.self_loops g u > 0 else Graph.neighbor_rank g u v >= 0

(* [g] with [extra.(v)] more self-loops at each vertex [v] *)
let with_self_loops g extra =
  Graph.of_edges ~n:(Graph.num_vertices g)
    (Graph.edges g
    @ List.concat (List.init (Array.length extra) (fun v -> List.init extra.(v) (fun _ -> (v, v)))))

(* Metrics.bfs level by level over lists: level 0 holds the sources in
   [mask], first occurrence first; below [limit], the next level holds
   the unreached neighbours in [mask] of the last one, in order, each
   labelled like the vertex it is first reached from. Returns the
   distances (max_int off the search), the labels and the visit order. *)
let bfs g ~mask ~label ~limit sources =
  let dist = Array.make (Graph.num_vertices g) max_int in
  let label = Array.copy label in
  let enter d from u =
    let fresh = mask.(u) && dist.(u) = max_int in
    if fresh then begin
      dist.(u) <- d;
      Option.iter (fun v -> label.(u) <- label.(v)) from
    end;
    fresh
  in
  let rec levels d level =
    if level = [] then []
    else
      let next =
        if d >= limit then []
        else
          List.concat_map
            (fun v -> List.filter (enter (d + 1) (Some v)) (Array.to_list (Graph.neighbors g v)))
            level
      in
      level @ levels (d + 1) next
  in
  let order = levels 0 (List.filter (enter 0 None) sources) in
  (dist, label, order)

(* |E(N^d(v))| by a depth-bounded BFS from [v], self-loops of ball
   members counted: the per-vertex count Neighborhood keeps private *)
let ball_edge_count g ~d v =
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist v 0;
  let queue = Queue.create () in
  Queue.add v queue;
  while not (Queue.is_empty queue) do
    let x = Queue.take queue in
    let dx = Hashtbl.find dist x in
    if dx < d then
      Graph.iter_neighbors g x (fun y ->
          if not (Hashtbl.mem dist y) then begin
            Hashtbl.replace dist y (dx + 1);
            Queue.add y queue
          end)
  done;
  let count = ref 0 in
  Hashtbl.iter
    (fun x _ ->
      count := !count + Graph.self_loops g x;
      Graph.iter_neighbors g x (fun y -> if y > x && Hashtbl.mem dist y then incr count))
    dist;
  !count

(* Refine's two output conditions (separation > a would need all-pairs
   distances): every V_D component has diameter at most the
   invariant-H bound 10·a·N_S with N_S ≤ 2b, i.e. 20·a·b, and every
   V_S vertex has |E(N^a(v))| ≤ |E|/b; raises [Failure] on violation *)
let check_refine g (t : Dex_ldd.Refine.t) =
  let module Metrics = Dex_graph.Metrics in
  let members = Metrics.vertices_of_mask t.in_vd in
  if Array.length members > 0 then begin
    let sub, mapping = Graph.induced_subgraph g members in
    List.iter
      (fun comp ->
        let d = Metrics.subset_diameter g (Array.map (fun v -> mapping.(v)) comp) in
        if d > 20 * t.a * t.b then
          failwith
            (Printf.sprintf "Refine: V_D component diameter %d exceeds 20ab = %d" d
               (20 * t.a * t.b)))
      (Metrics.connected_components sub)
  end;
  let m = Graph.num_edges g in
  Array.iteri
    (fun v in_vd ->
      if not in_vd then begin
        let c = ball_edge_count g ~d:t.a v in
        if c * t.b > m then
          failwith
            (Printf.sprintf "Refine: V_S vertex %d has dense ball (%d > %d/%d)" v c m t.b)
      end)
    t.in_vd

(* the BFS tree of the Primitives.bfs flood from [root], run on [net]
   under the label "bfs" *)
let bfs_tree net ~root =
  let module Network = Dex_congest.Network in
  let module Primitives = Dex_congest.Primitives in
  let p = Primitives.bfs (Network.graph net) ~root in
  let states, _ = Network.run_active net ~label:"bfs" ~init:p.init ~step:p.step () in
  Primitives.tree ~root
    ~parent:(Array.map (fun (st : Primitives.bfs_state) -> st.par) states)
    ~depth:(Array.map (fun (st : Primitives.bfs_state) -> st.dist) states)

(* the cut of conductance ≤ [phi] of largest balance, with its balance,
   over every cut {S, S̄} of a graph of at most 24 vertices (vertex
   n-1 fixed outside S) *)
let most_balanced_sparse_cut g ~phi =
  let module Metrics = Dex_graph.Metrics in
  let n = Graph.num_vertices g in
  if n > 24 then invalid_arg "most_balanced_sparse_cut: graph too large";
  let best = ref None in
  for mask = 1 to (1 lsl Int.max 0 (n - 1)) - 1 do
    let s =
      Array.of_list (List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init (n - 1) Fun.id))
    in
    let c = Metrics.conductance g s in
    if Float.is_finite c && c <= phi then begin
      let b = Metrics.balance g s in
      match !best with
      | Some (bb, _) when bb >= b -> ()
      | _ -> best := Some (b, s)
    end
  done;
  !best

(* Pagerank_cut's ACL push loop at teleport α = 0.1 and ε = 1/(20·m):
   the approximate PageRank p, the residual r, and the push count *)
let approximate_pagerank g ~src =
  let alpha = 0.1 in
  let m = Int.max 1 (Graph.num_edges g) in
  (* accuracy ε = 1/(20·m) *)
  let eps = 1.0 /. (20.0 *. float_of_int m) in
  let p = Hashtbl.create 64 in
  let r = Hashtbl.create 64 in
  Hashtbl.replace r src 1.0;
  let get tbl v = try Hashtbl.find tbl v with Not_found -> 0.0 in
  let add tbl v x = Hashtbl.replace tbl v (get tbl v +. x) in
  (* work queue of vertices that may violate r(v) < eps·deg(v) *)
  let queue = Queue.create () in
  let queued = Hashtbl.create 64 in
  let enqueue v =
    if not (Hashtbl.mem queued v) then begin
      Hashtbl.replace queued v ();
      Queue.add v queue
    end
  in
  enqueue src;
  let pushes = ref 0 in
  let push_limit = 64 * m in
  while (not (Queue.is_empty queue)) && !pushes < push_limit do
    let v = Queue.take queue in
    Hashtbl.remove queued v;
    let deg = float_of_int (Graph.degree g v) in
    let rv = get r v in
    if deg > 0.0 && rv >= eps *. deg then begin
      incr pushes;
      (* lazy ACL push: p += alpha·r(v); half of the rest stays, half
         spreads over incident edges (self-loops included) *)
      add p v (alpha *. rv);
      let rest = (1.0 -. alpha) *. rv in
      Hashtbl.replace r v (rest /. 2.0);
      let share = rest /. 2.0 /. deg in
      (* the self-loop share also stays home *)
      if Graph.self_loops g v > 0 then
        add r v (share *. float_of_int (Graph.self_loops g v));
      Graph.iter_neighbors g v (fun u ->
          add r u share;
          let du = float_of_int (Graph.degree g u) in
          if du > 0.0 && get r u >= eps *. du then enqueue u);
      let dv = float_of_int (Graph.degree g v) in
      if get r v >= eps *. dv then enqueue v
    end
  done;
  (p, r, !pushes)

(* ---------------- the walk and sweep oracles ---------------- *)

(* M·p for a dense distribution: each vertex of nonzero mass, in
   ascending order, keeps its lazy half plus its self-loops' share, one
   term as the walker adds it, and pushes one share per incident edge *)
let step_dense g p =
  let q = Array.make (Graph.num_vertices g) 0.0 in
  Array.iteri
    (fun v mass ->
      if mass <> 0.0 then begin
        let deg = float_of_int (Graph.degree g v) in
        if deg = 0.0 then q.(v) <- q.(v) +. mass
        else begin
          let share = mass /. (2.0 *. deg) in
          q.(v) <- q.(v) +. ((mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v)));
          Graph.iter_neighbors g v (fun u -> q.(u) <- q.(u) +. share)
        end
      end)
    p;
  q

(* The walker's step, truncation and L1 change and the sweep's order
   and prefixes over a Hashtbl per distribution, iterated in ascending
   key order: the oracle the array code must match bit for bit
   (DESIGN.md §12). *)

let of_walk (p : Dex_spectral.Walk.sparse) =
  let t = Hashtbl.create 16 in
  for i = 0 to p.len - 1 do
    Hashtbl.replace t p.support.(i) p.masses.(i)
  done;
  t

(* the keys of an int-keyed Hashtbl, ascending: the oracles' one way
   to iterate a table, whatever its insertion history *)
let sorted_keys tbl = List.sort_uniq Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let iter_ascending f p = List.iter (fun v -> f v (Hashtbl.find p v)) (sorted_keys p)

let step_sparse g p =
  let q = Hashtbl.create (2 * Hashtbl.length p) in
  let add v x =
    let prev = try Hashtbl.find q v with Not_found -> 0.0 in
    Hashtbl.replace q v (prev +. x)
  in
  iter_ascending
    (fun v mass ->
      let deg = float_of_int (Graph.degree g v) in
      if deg = 0.0 then add v mass
      else begin
        let share = mass /. (2.0 *. deg) in
        add v ((mass /. 2.0) +. (share *. float_of_int (Graph.self_loops g v)));
        Graph.iter_neighbors g v (fun u -> add u share)
      end)
    p;
  q

(* the paper's [p]_eps: drop entries with p(v) < 2·eps·deg(v) *)
let truncate g ~eps p =
  let q = Hashtbl.create (Hashtbl.length p) in
  iter_ascending
    (fun v mass ->
      if mass >= 2.0 *. eps *. float_of_int (Graph.degree g v) then Hashtbl.replace q v mass)
    p;
  q

(* ‖next − prev‖₁ summed over [next] ascending, then over the entries
   of [prev] that left the support, ascending *)
let l1_change ~prev ~next =
  let acc = ref 0.0 in
  iter_ascending
    (fun v x ->
      let y = Option.value (Hashtbl.find_opt prev v) ~default:0.0 in
      acc := !acc +. Float.abs (x -. y))
    next;
  iter_ascending (fun v y -> if not (Hashtbl.mem next v) then acc := !acc +. y) prev;
  !acc

let rho g p v =
  let deg = Graph.degree g v in
  if deg = 0 then 0.0
  else match Hashtbl.find_opt p v with None -> 0.0 | Some m -> m /. float_of_int deg

(* the support of positive degree by ρ descending, ties by vertex, in
   [Float.compare]'s total order: NaN equals itself and lies below
   every other value *)
let order g p =
  List.map (fun v -> (v, Hashtbl.find p v)) (sorted_keys p)
  |> List.filter (fun (v, _) -> Graph.degree g v > 0)
  |> List.map (fun (v, mass) -> (v, mass /. float_of_int (Graph.degree g v)))
  |> List.sort (fun (v1, r1) (v2, r2) ->
         match Float.compare r2 r1 with 0 -> Int.compare v1 v2 | c -> c)
  |> List.map fst |> Array.of_list

(* one run of Mixing.mixing_times as a dense loop over [step_sparse]: three
   degree-weighted starts drawn from [rng], one after the other, each
   walked untruncated until every vertex of positive π is within 1/4
   of π relative, testing before each step, for at most [max_steps]
   steps (default 4·n); the worst of the three. n ≤ 1 gives 0 and an
   edgeless graph [max_steps], neither drawing. *)
let mixing_time ?(max_steps = 0) g rng =
  let n = Graph.num_vertices g in
  let max_steps = if max_steps > 0 then max_steps else 4 * n in
  if n <= 1 then 0
  else if Graph.total_volume g = 0 then max_steps
  else begin
    let total = float_of_int (Graph.total_volume g) in
    let pi = Array.init n (fun v -> float_of_int (Graph.degree g v) /. total) in
    let mixed p =
      let p = Array.init n (fun v -> Option.value (Hashtbl.find_opt p v) ~default:0.0) in
      Array.for_all2 (fun x y -> not (x > 0.0 && Float.abs (y -. x) > 0.25 *. x)) pi p
    in
    let degrees = Array.init n (fun v -> float_of_int (Graph.degree g v)) in
    let worst = ref 0 in
    for _ = 1 to 3 do
      let src = Dex_util.Rng.weighted_index rng degrees in
      let p = ref (of_walk (Dex_spectral.Walk.indicator src)) in
      let t = ref 0 in
      while (not (mixed !p)) && !t < max_steps do
        p := step_sparse g !p;
        incr t
      done;
      worst := Int.max !worst !t
    done;
    !worst
  end

(* one sweep prefix π(1..len) *)
type prefix = { len : int; volume : int; cut : int; conductance : float; last_rho : float }

let scan g p =
  let ordered = order g p in
  let total_volume = Graph.total_volume g in
  let in_set = Hashtbl.create 16 in
  let volume = ref 0 and cut = ref 0 in
  Array.mapi
    (fun j v ->
      let inside = ref 0 in
      Graph.iter_neighbors g v (fun u -> if Hashtbl.mem in_set u then incr inside);
      Hashtbl.replace in_set v ();
      volume := !volume + Graph.degree g v;
      cut := !cut + Graph.plain_degree g v - (2 * !inside);
      let small = min !volume (total_volume - !volume) in
      let conductance =
        if small <= 0 then Float.infinity else float_of_int !cut /. float_of_int small
      in
      { len = j + 1; volume = !volume; cut = !cut; conductance; last_rho = rho g p v })
    ordered

(* Views of a sparse walk distribution, read off its private record *)
module Walk_view = struct
  module Walk = Dex_spectral.Walk

  let iter f (p : Walk.sparse) =
    for i = 0 to p.len - 1 do
      f p.support.(i) p.masses.(i)
    done

  let get (p : Walk.sparse) v =
    let m = ref 0.0 in
    iter (fun u x -> if u = v then m := x) p;
    !m

  let mem (p : Walk.sparse) v = Array.exists (( = ) v) (Array.sub p.support 0 p.len)
  let support (p : Walk.sparse) = Array.sub p.support 0 p.len

  (* summed in ascending vertex order *)
  let mass p =
    let acc = ref 0.0 in
    iter (fun _ x -> acc := !acc +. x) p;
    !acc

  (* p(v)/deg(v), 0 when deg(v) = 0 *)
  let rho g p v =
    let deg = Graph.degree g v in
    if deg = 0 then 0.0 else get p v /. float_of_int deg

  (* the paper's [p]_eps: drop entries with p(v) < 2·eps·deg(v) *)
  let truncate g ~eps p =
    let keep = ref [] in
    iter (fun v x -> if x >= 2.0 *. eps *. float_of_int (Graph.degree g v) then keep := (v, x) :: !keep) p;
    Walk.of_assoc (List.rev !keep)

  (* [steps] un-truncated dense steps from the indicator of [src] *)
  let walk_from g ~src ~steps =
    let p = Array.make (Graph.num_vertices g) 0.0 in
    p.(src) <- 1.0;
    let cur = ref p in
    for _ = 1 to steps do
      cur := step_dense g !cur
    done;
    !cur
end
