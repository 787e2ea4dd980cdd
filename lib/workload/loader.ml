open Relation

type parse_error = { file : string; line : int; msg : string }

let parse_error_to_string { file; line; msg } =
  if line > 0 then Printf.sprintf "%s:%d: %s" file line msg
  else Printf.sprintf "%s: %s" file msg

(* An [id] column is an identity declaration, not data: it never
   becomes an attribute, and the loaders enforce its uniqueness —
   before this check, a duplicated id silently produced two distinct
   objects and every later row shifted off its declared identity. *)
let id_column = "id"

let numeric_columns table =
  Schema.columns (Table.schema table)
  |> List.filter (fun c ->
         c.Schema.name <> id_column
         &&
         match c.Schema.ty with
         | Value.TInt | Value.TFloat -> true
         | Value.TBool | Value.TText -> false)
  |> List.map (fun c -> c.Schema.name)

let objects_of_table table =
  match numeric_columns table with
  | [] -> invalid_arg "Loader.objects_of_table: no numeric columns"
  | cols -> (cols, Table.to_points table cols)

(* Duplicate-id scan: [Ok ()] when the table has no [id] column;
   otherwise every id must be an int seen once. Errors point at the
   {e second} occurrence (the row that breaks the table), with the
   first occurrence named in the message. *)
let check_unique_ids ~file ~what table =
  match Schema.index_of (Table.schema table) id_column with
  | None -> Ok ()
  | Some idx ->
      let seen = Hashtbl.create 64 in
      let rec scan i = function
        | [] -> Ok ()
        | row :: rest -> (
            let line = i + 2 in
            match Value.to_int row.(idx) with
            | None ->
                Error
                  (`Parse_error
                     { file; line; msg = "bad id value (not an integer)" })
            | Some id -> (
                match Hashtbl.find_opt seen id with
                | Some first_line ->
                    Error
                      (`Parse_error
                         {
                           file;
                           line;
                           msg =
                             Printf.sprintf
                               "duplicate %s id %d (first declared at line %d)"
                               what id first_line;
                         })
                | None ->
                    Hashtbl.add seen id line;
                    scan (i + 1) rest))
      in
      scan 0 (Table.to_list table)

(* File-level failures: a missing file or a CSV the parser rejects
   outright has no meaningful data line, so those report line 0; the
   header is line 1 and data row [i] (0-based) is line [i + 2]. *)
let load_table file =
  match Csv.load_file file with
  | table -> Ok table
  | exception Sys_error msg -> Error (`Parse_error { file; line = 0; msg })
  | exception Invalid_argument msg ->
      Error (`Parse_error { file; line = 0; msg })
  | exception Failure msg -> Error (`Parse_error { file; line = 0; msg })

let ( let* ) = Result.bind

let load_objects file =
  let* table = load_table file in
  let* () = check_unique_ids ~file ~what:"object" table in
  match objects_of_table table with
  | cols, points -> (
      (* NaN and infinite cells parse as floats, but no object can be
         ranked by them: reject the first at its line. *)
      let bad_cell i p =
        Array.find_index (fun x -> not (Float.is_finite x)) p
        |> Option.map (fun j -> (i, j))
      in
      match Array.find_mapi bad_cell points with
      | None -> Ok (table, points)
      | Some (i, j) ->
          Error
            (`Parse_error
               {
                 file;
                 line = i + 2;
                 msg =
                   Printf.sprintf "non-finite value in column %s"
                     (Array.of_list cols).(j);
               }))
  | exception Invalid_argument _ ->
      Error
        (`Parse_error
           { file; line = 1; msg = "no numeric columns in header" })

let query_of_row ~k_idx ~id_idx ~weight_cols fallback_id row =
  let* id =
    match id_idx with
    | None -> Ok fallback_id
    | Some i -> (
        match Value.to_int row.(i) with
        | Some id -> Ok id
        | None -> Error "bad id value (not an integer)")
  in
  match Value.to_int row.(k_idx) with
  | Some k when k > 0 -> (
      let rec weights acc = function
        | [] -> Ok (Topk.Query.make ~id ~k (Array.of_list (List.rev acc)))
        | i :: rest -> (
            match Value.to_float row.(i) with
            | Some f when Float.is_finite f -> weights (f :: acc) rest
            | Some _ ->
                Error (Printf.sprintf "non-finite weight in column %d" i)
            | None ->
                Error (Printf.sprintf "non-numeric weight in column %d" i))
      in
      weights [] weight_cols)
  | Some k -> Error (Printf.sprintf "bad k value %d (must be positive)" k)
  | None -> Error "bad k value (not an integer)"

let query_columns schema =
  match Schema.index_of schema "k" with
  | None -> Error "query table needs a 'k' column"
  | Some k_idx ->
      let id_idx = Schema.index_of schema id_column in
      let weight_cols =
        Schema.columns schema
        |> List.mapi (fun i c -> (i, c))
        |> List.filter (fun (i, _) -> i <> k_idx && Some i <> id_idx)
        |> List.map fst
      in
      Ok (k_idx, id_idx, weight_cols)

let queries_of_table table =
  let k_idx, id_idx, weight_cols =
    match query_columns (Table.schema table) with
    | Ok cols -> cols
    | Error msg -> failwith msg
  in
  Table.to_list table
  |> List.mapi (fun i row ->
         match query_of_row ~k_idx ~id_idx ~weight_cols i row with
         | Ok q -> q
         | Error msg -> failwith msg)

let load_queries file =
  let* table = load_table file in
  let* () = check_unique_ids ~file ~what:"query" table in
  match query_columns (Table.schema table) with
  | Error msg -> Error (`Parse_error { file; line = 1; msg })
  | Ok (k_idx, id_idx, weight_cols) ->
      let rec rows i acc = function
        | [] -> Ok (List.rev acc)
        | row :: rest -> (
            match query_of_row ~k_idx ~id_idx ~weight_cols i row with
            | Ok q -> rows (i + 1) (q :: acc) rest
            | Error msg -> Error (`Parse_error { file; line = i + 2; msg }))
      in
      rows 0 [] (Table.to_list table)

let queries_to_table queries =
  let d =
    match queries with
    | [] -> 0
    | q :: _ -> Geom.Vec.dim q.Topk.Query.weights
  in
  let schema =
    Schema.make
      ({ Schema.name = "k"; ty = Value.TInt }
      :: List.init d (fun j ->
             { Schema.name = Printf.sprintf "w%d" j; ty = Value.TFloat }))
  in
  let table = Table.create schema in
  List.iter
    (fun (q : Topk.Query.t) ->
      Table.insert table
        (Array.append
           [| Value.Int q.Topk.Query.k |]
           (Array.map (fun w -> Value.Float w) q.Topk.Query.weights)))
    queries;
  table

let save_queries path queries = Csv.save_file path (queries_to_table queries)
