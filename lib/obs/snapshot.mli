(** Benchmark tables as aligned text.

    The bench harness builds every table once and prints it with
    {!render}; its whole stdout is the committed golden
    [bench/snapshots/bench.txt]. Every row of a table has exactly as
    many cells as the table has headers (short rows are padded with
    [""] as they are added). The test suite pins the exact text
    {!render} produces. *)

type table

(** [create ~title headers] starts a table with no rows. *)
val create : title:string -> string list -> table

(** [add_row t cells] appends a row, padding it with empty cells to
    the header arity.
    Raises [Invalid_argument] if [cells] is longer than the headers. *)
val add_row : table -> string list -> unit

(** [render t] is the aligned text rendering: the title, the headers,
    a rule, then the rows in the order they were added, columns
    separated by two spaces. *)
val render : table -> string
