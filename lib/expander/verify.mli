(** Verification of an (ε, φ)-expander decomposition result.

    For each part we measure a conductance figure: exact minimum
    conductance of G{Vi} for tiny parts (≤ 16 vertices), otherwise the
    lazy spectral gap as {!Dex_spectral.Mixing.spectral_gap} estimates
    it, which Cheeger's inequality would make a lower bound on Φ if the
    gap were exact. The power iteration's Rayleigh quotient can only
    under-state λ₂, so the estimate can over-state the gap and hence Φ:
    [phi_ok] on a part above 16 vertices is not a certificate. The
    report lets tests and benches check the two Theorem-1 conditions
    on concrete runs. *)

type part_report = {
  size : int;
  volume : int;
  conductance_lower : float;
  (** Φ(G{Vi}): exact for tiny parts; for larger ones the estimated
      gap of the lazy walk, a lower bound only when that estimate is
      exact; singletons get +inf *)
  method_ : string; (** "exact" | "spectral" | "singleton" *)
}

type report = {
  is_partition : bool;
  edge_fraction_removed : float;
  epsilon_ok : bool; (** measured fraction ≤ ε *)
  parts : part_report list;
  min_conductance_lower : float; (** over non-singleton parts; +inf if none *)
  phi_ok : bool; (** min_conductance_lower ≥ φ_target *)
}

(** [check g result] verifies [result] against its own schedule. *)
val check : Dex_graph.Graph.t -> Decomposition.result -> Dex_util.Rng.t -> report
