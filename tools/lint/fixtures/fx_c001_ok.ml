(* must pass: literal lengths within the literal budget, including a
   length decided through a local binding and a local helper, and the
   one-word send1 *)

module Arena = Dex_congest.Arena

let net g = Dex_congest.Network.create ~word_size:2 g (Dex_congest.Rounds.create ())
let pair = [| 4; 5 |]
let encode x = [| x |]
let direct ob dst = Arena.Outbox.send ob ~dst [| 1; 2 |]
let via_binding ob dst = Arena.Outbox.send ob ~dst pair
let via_helper ob dst x = Arena.Outbox.send ob ~dst (encode x)
let one_word ob dst x = Arena.Outbox.send1 ob ~dst x
