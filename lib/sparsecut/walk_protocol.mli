(** The truncated lazy random walk as a {e real} message-passing
    CONGEST protocol.

    The sequential Nibble machinery computes p̃_t centrally for speed;
    this module is the executable witness that the computation is a
    legitimate CONGEST protocol with one round per step: in round t
    every vertex v holding mass p(v) sends p(v)/(2·deg v) to each
    neighbor (one O(log n)-bit value per edge — a fixed-point share),
    keeps the lazy half plus its self-loop share, applies the ε_b
    truncation, and repeats.

    Tests check that the protocol's distribution equals
    {!Dex_spectral.Walk.truncated_walk} step for step, and that the
    kernel charges exactly [steps] rounds — the basis for the
    "one diffusion step = one communication round" accounting used by
    {!Nibble}. *)

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
