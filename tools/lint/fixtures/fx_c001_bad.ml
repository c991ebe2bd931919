(* must fail: a 3-word send against a literal 2-word budget *)

module Arena = Dex_congest.Arena

let net g = Dex_congest.Network.create ~word_size:2 g (Dex_congest.Rounds.create ())
let site ob dst = Arena.Outbox.send ob ~dst [| 1; 2; 3 |]
