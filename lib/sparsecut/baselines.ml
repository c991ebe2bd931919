module Graph = Dex_graph.Graph
module Metrics = Dex_graph.Metrics
module Walk = Dex_spectral.Walk
module Sweep = Dex_spectral.Sweep
module View = Dex_spectral.View
module Mixing = Dex_spectral.Mixing
module Rng = Dex_util.Rng

type cut = {
  vertices : int array;
  conductance : float;
  balance : float;
  rounds : int;
}

let of_sweep g (sweep : Sweep.t) =
  Option.map
    (fun j ->
      let vertices = Sweep.take sweep j in
      Array.sort Int.compare vertices;
      { vertices;
        conductance = sweep.conductance.(j - 1);
        balance = Metrics.balance g vertices;
        rounds = 0 })
    (Sweep.best sweep)

let spectral g rng =
  let iters = 100 in
  let _gap, vector = Mixing.spectral_gap ~iters g rng in
  (* mass x_v·deg(v), so the sweep's ρ = mass/deg(v) orders by x *)
  let masses =
    List.init (Graph.num_vertices g) (fun v -> (v, vector.(v) *. float_of_int (Graph.degree g v)))
  in
  let sweep = Sweep.scan g (Walk.of_assoc masses) in
  Option.map (fun c -> { c with rounds = iters }) (of_sweep g sweep)

let dsmp g rng =
  let n = Graph.num_vertices g in
  if n = 0 || Graph.total_volume g = 0 then None
  else begin
    let steps =
      let lf = log (Float.max 2.0 (float_of_int n)) in
      int_of_float (Float.ceil (16.0 *. lf *. lf))
    in
    let view = View.make g in
    let src = Rng.weighted_index rng view.degrees in
    let w = Walk.walker g and mask = Array.make n false in
    let sweep = Sweep.workspace g in
    Walk.start w (Walk.indicator src);
    let best = ref None in
    for _ = 1 to steps do
      (* ε = 0: the untruncated lazy walk *)
      ignore (Walk.advance w view ~eps:0.0 ~mask : float);
      Sweep.rescan sweep view (Walk.current w);
      match Sweep.best sweep with
      | None -> ()
      | Some j ->
        let conductance = sweep.conductance.(j - 1) in
        (match !best with
        | Some (bc, _) when bc <= conductance -> ()
        | _ ->
          let vertices = Sweep.take sweep j in
          Array.sort Int.compare vertices;
          best := Some (conductance, vertices))
    done;
    Option.map
      (fun (conductance, vertices) ->
        { vertices;
          conductance;
          balance = Metrics.balance g vertices;
          rounds = steps })
      !best
  end
