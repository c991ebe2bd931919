(** Machine-readable benchmark snapshots.

    The bench harness renders every section as aligned text tables for
    humans; this module captures the same rows as one JSON document so
    the perf trajectory can be tracked across PRs (CI uploads the
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
    headers (short rows are padded with [""] at construction), and all
    cells are the strings the text renderer printed — a snapshot is a
    faithful transcript of the human-readable output. The test suite
    pins the exact text {!write} produces. *)

type table = { title : string; headers : string list; rows : string list list }
type section = { id : string; title : string; tables : table list; notes : string list }

(** [table ~title ~headers rows] builds a table, padding every short
    row with empty cells to the header arity.
    Raises [Invalid_argument] if a row is longer than [headers]. *)
val table : title:string -> headers:string list -> string list list -> table

(** [write ~path ~mode sections] writes the document (plus a trailing
    newline) to [path]. *)
val write : path:string -> mode:string -> section list -> unit
