(* a former suppression pragma is an ordinary comment: D002 still fires *)
(* dex-lint: allow D002 fixture demonstrating that no comment silences a rule *)
let coin () = Random.bool ()
