(** CSV ingestion for the analytic tool: object datasets and top-k
    query workloads as the CLI exchanges them.

    Object CSVs: any table with a header; every numeric column becomes
    an attribute, in column order. Query CSVs: a column named [k] plus
    the weight columns (any names), one query per row.

    A column named [id] is an {e identity declaration}, not data: it is
    never extracted as an attribute or weight (before this carve-out a
    query [id] column silently became a weight coordinate), query rows
    adopt it as their [Topk.Query.id], and the file loaders reject
    non-integer or duplicate ids with a typed error pointing at the
    {e second} occurrence — the row that breaks the table.

    The file-loading entry points ({!load_objects}, {!load_queries})
    return typed parse errors with line numbers instead of raising —
    the CLI prints them and exits cleanly. The table-level variants
    keep their raising contracts for callers that already hold a
    parsed table. *)

type parse_error = {
  file : string;
  line : int;
      (** 1-based CSV line: the header is line 1, data row [i]
          (0-based) is line [i + 2]; 0 when the failure has no
          meaningful line (missing file, empty document) *)
  msg : string;
}

val parse_error_to_string : parse_error -> string
(** [file:line: msg], omitting the line when it is 0. *)

val objects_of_table : Relation.Table.t -> string list * Geom.Vec.t array
(** The numeric column names used (excluding [id]) and the extracted
    points. @raise Invalid_argument when no numeric column exists. *)

val load_objects :
  string ->
  (Relation.Table.t * Geom.Vec.t array, [ `Parse_error of parse_error ]) result
(** Load a CSV file and extract its numeric columns as objects. With
    an [id] column, ids must be unique integers; a duplicate is a
    [`Parse_error] at the line of its second occurrence. A NaN or
    infinite cell is a [`Parse_error] at its line. *)

val queries_of_table : Relation.Table.t -> Topk.Query.t list
(** @raise Failure when the [k] column is missing or malformed.
    Unlike the file loader, this raising variant does not police [id]
    uniqueness. *)

val load_queries :
  string -> (Topk.Query.t list, [ `Parse_error of parse_error ]) result
(** As {!queries_of_table} but from a file, reporting the offending
    line: a missing [k] column points at the header, a bad [k],
    non-numeric or non-finite weight, or duplicate [id] at its data
    row. *)

val queries_to_table : Topk.Query.t list -> Relation.Table.t
(** Inverse of {!queries_of_table}: a [k] column plus [w0..w(d-1)]. *)

val save_queries : string -> Topk.Query.t list -> unit
