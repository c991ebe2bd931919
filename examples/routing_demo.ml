(* Routing on an expander: the GKS trade-off and an executed router.

   Build & run:  dune exec examples/routing_demo.exe

   Theorem 2 needs to solve many routing tasks inside each expander
   component. The Ghaffari–Kuhn–Su structure trades preprocessing for
   query time through its depth parameter k — this demo prints the
   trade-off measured on a concrete expander, shows how the best k
   shifts with the number of queries, and then actually routes a
   degree-respecting request set with the token router to see
   congestion behave. *)

module X = Dexpander

let () =
  let seed = 99 in
  let rng = X.Rng.create seed in
  let g = X.Generators.random_regular rng ~n:256 ~d:8 in
  Printf.printf "expander: n = %d, m = %d\n" (X.Graph.num_vertices g) (X.Graph.num_edges g);
  Printf.printf "measured mixing time: %d steps\n"
    (X.Mixing.mixing_times g (X.Rng.create (seed + 1)) ~runs:1).(0);

  Printf.printf "\nGKS trade-off (measured τ_mix, cost model of Section 3):\n";
  Printf.printf "%4s %14s %12s\n" "k" "preprocess" "query";
  for k = 1 to 4 do
    let h = X.Routing.build g (X.Rng.create (seed + 2)) ~k in
    Printf.printf "%4d %14d %12d\n" k h.X.Routing.preprocess_rounds h.X.Routing.query_rounds
  done;

  Printf.printf "\nbest k by query load:\n";
  List.iter
    (fun queries ->
      let h = X.Routing.best_k_for g (X.Rng.create (seed + 2)) ~queries ~k_max:4 in
      Printf.printf "  %6d queries -> k = %d (total %d rounds)\n" queries h.X.Routing.k
        (X.Routing.total_rounds h ~queries))
    [ 1; 10; 1000; 100000 ];

  Printf.printf "\nexecuted token routing (lazy random walks, capacity 4/edge):\n";
  let requests = X.Token_router.degree_respecting_requests g rng ~load:0.5 in
  Printf.printf "  %d requests (≈ deg(v)/2 per vertex)\n" (List.length requests);
  let stats = X.Token_router.route ~capacity:4 g rng requests in
  Printf.printf "  delivered %d tokens in %d simulated rounds (%d moves, max queue %d)\n"
    stats.X.Token_router.delivered stats.X.Token_router.rounds stats.X.Token_router.moves
    stats.X.Token_router.max_queue
