(* must pass: the dynamic length is dominated by the runtime guard the
   certifier recognizes, Dex_util.Invariant.words *)

let site ob dst n =
  Dex_congest.Arena.Outbox.send ob ~dst
    (Dex_util.Invariant.words ~budget:1 ~where:"fx_c002_ok" (Array.make n 0))
