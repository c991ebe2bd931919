(** The truncated lazy random walk as a {e real} message-passing
    CONGEST protocol.

    The sequential Nibble machinery computes p̃_t centrally for speed;
    this module is the executable witness that the computation is a
    legitimate CONGEST protocol with one round per step: in round t
    every vertex v holding mass p(v) sends p(v)/(2·deg v) to each
    neighbor (one O(log n)-bit value per edge — a fixed-point share),
    keeps the lazy half plus its self-loop share, applies the ε_b
    truncation, and repeats.

    It runs on the cursor kernel ({!Dex_congest.Network.run_active_rounds},
    [steps + 1] rounds); a vertex holding mass wakes, so only the walk's
    support is stepped. Each vertex sums its kept share and the shares
    it receives in ascending order of the vertex they come from, the
    order a {!Dex_spectral.Walk.walker} sums them in, so tests check that
    the protocol's distribution equals
    {!Dex_spectral.Walk.truncated_walk} bit for bit, and that the
    kernel charges exactly [steps + 1] rounds — the basis for the
    "one diffusion step = one communication round" accounting used by
    [Dex_sparsecut.Nibble]. *)

(** [run net ~src ~eps ~steps] executes the protocol and returns the
    final distribution as (vertex, mass) pairs plus the rounds
    charged. *)
val run :
  Dex_congest.Network.t ->
  src:int -> eps:float -> steps:int ->
  (int * float) list * int

(** [distribution_table pairs] is the {!Dex_spectral.Walk.sparse} form,
    comparable to {!Dex_spectral.Walk.truncated_walk} distributions. *)
val distribution_table : (int * float) list -> Dex_spectral.Walk.sparse
