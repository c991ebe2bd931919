(** Disjoint-set forest with union by rank and path compression.
    Used to merge components when edges are removed from a graph
    during the decomposition. *)

type t

(** [create n] makes [n] singleton sets [{0}, ..., {n-1}]. *)
val create : int -> t

(** [find t x] is the canonical representative of [x]'s set. *)
val find : t -> int -> int

(** [union t x y] merges the sets of [x] and [y]; returns [true] iff
    they were previously distinct. *)
val union : t -> int -> int -> bool
