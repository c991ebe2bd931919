(* must fail: a dynamic-length send with no Invariant.words guard *)

let site ob dst n = Dex_congest.Arena.Outbox.send ob ~dst (Array.make n 0)
