(** Ordering an epoch-stamped vertex set: the set a round's deliveries
    or a walk step's pushes built in first-touch order, with
    [stamp.(v) = epoch] marking each member. The CONGEST kernel's
    worklist and the walk kernel's touched set are both sorted here. *)

(** [sort ~stamp ~epoch ~n set k] puts [set.(0 .. k-1)] in ascending
    order, in place and without allocating. Those entries must be
    exactly the distinct [v < n] with [stamp.(v) = epoch]. A set of at
    least [n/8] vertices is rebuilt by one scan of the stamps, O(n);
    a sparser one is heapsorted, O(k log k). Both give the same
    order. *)
val sort : stamp:int array -> epoch:int -> n:int -> int array -> int -> unit
