(* [used] is referenced by Fx_c004_user; [never_used] must fail C004,
   and so must [pardoned]: no comment silences any rule *)

val used : int
val never_used : int
(* dex-lint: allow C004 a pragma cannot keep a dead export alive *)
val pardoned : int
