(** Benchmark tables, as aligned text and as one JSON snapshot.

    The bench harness builds every table once: {!render} prints it for
    humans, and {!write} records the same rows as one JSON document so
    the perf trajectory can be tracked from run to run (CI uploads the
    snapshot of every run as an artifact).

    Schema, version ["dexpander-bench/1"], keys always in this order:

    {v
    { "schema":   "dexpander-bench/1",
      "mode":     "quick" | "full",
      "sections": [
        { "id":     "e5",
          "title":  "Theorem 1: rounds scaling",
          "tables": [
            { "title":   "...",
              "headers": ["n", "m", ...],
              "rows":    [["128", "812", ...], ...] } ],
          "notes":  ["log-log slope ...", ...] } ] }
    v}

    Every row of a table has exactly as many cells as the table has
    headers (short rows are padded with [""] as they are added), and
    all cells are the strings {!render} prints — a snapshot is a
    faithful transcript of the human-readable output. The test suite
    pins the exact text {!render} and {!write} produce. *)

type table
type section = { id : string; title : string; tables : table list; notes : string list }

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

(** [write ~path ~mode sections] writes the document (plus a trailing
    newline) to [path]. *)
val write : path:string -> mode:string -> section list -> unit
