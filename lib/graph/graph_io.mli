(** Plain-text graph input, so the CLI and examples can run on real
    edge lists as well as generated families.

    The format is a whitespace edge list:

    {v
    # comment lines start with '#'
    n <vertex-count>        (optional; inferred as 1 + max id if absent)
    <u> <v>                 (one undirected edge per line; u = v is a self-loop)
    v}

    Vertex ids are non-negative integers. *)

(** [load path] reads a graph from the file [path]. Raises [Failure]
    with a one-line message naming the path and line, e.g.
    ["g.txt: line 3: invalid edge \"1 x\""], on malformed input (an
    endpoint at or above a declared [n] is reported on the line of the
    largest endpoint), and [Sys_error] when the file cannot be read.
    The file is closed either way. *)
val load : string -> Graph.t
