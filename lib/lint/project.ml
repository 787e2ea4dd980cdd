(* Whole-program source loader.

   Parses every [.ml] / [.mli] under the given paths into a module
   map, tagging each file with the dune library that owns it (name,
   wrapper module, declared dependencies). The library metadata drives
   conservative cross-module resolution in {!Callgraph}: a file may
   only reference modules of its own library, of libraries its dune
   stanza depends on, or of unwrapped libraries — exactly the
   visibility dune itself enforces. Directories without a dune file
   (ad-hoc fixture dirs, single-file CLI invocations) get unrestricted
   visibility instead of none, which errs toward finding more edges.

   compiler-libs keeps lexer/parser state in module-global refs, so
   [parse] serialises the actual [Parse.*] call behind a mutex while
   file reading and everything downstream runs freely on the pool. *)

type kind = Impl | Intf

type file = {
  path : string;
  modname : string;  (** "Engine" for [lib/core/engine.ml] *)
  library : string;  (** dune library name, or the directory basename *)
  wrapper : string option;  (** [Some "Iq"] for wrapped libraries *)
  is_library : bool;  (** a dune [(library ...)] stanza owns this dir *)
  deps : string list option;  (** declared library deps; [None] = unrestricted *)
  kind : kind;
  source : string;
  str : Parsetree.structure option;
  sg : Parsetree.signature option;
  parse_failed : bool;
}

type t = {
  files : file list;  (** sorted by path *)
  lib_mods : (string, string list) Hashtbl.t;  (** library -> module names *)
  wrappers : (string, string) Hashtbl.t;  (** wrapper module -> library *)
  unwrapped : (string, string) Hashtbl.t;  (** module -> unwrapped library *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------------- dune metadata ----------------------------- *)

type sexp = Atom of string | List of sexp list

let parse_sexps src =
  let n = String.length src in
  let pos = ref 0 in
  let rec skip () =
    if !pos < n then
      match src.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip ()
      | ';' ->
          while !pos < n && src.[!pos] <> '\n' do
            incr pos
          done;
          skip ()
      | _ -> ()
  in
  let atom () =
    if src.[!pos] = '"' then begin
      incr pos;
      let buf = Buffer.create 16 in
      while !pos < n && src.[!pos] <> '"' do
        if src.[!pos] = '\\' && !pos + 1 < n then incr pos;
        Buffer.add_char buf src.[!pos];
        incr pos
      done;
      if !pos < n then incr pos;
      Buffer.contents buf
    end
    else begin
      let start = !pos in
      while
        !pos < n
        && not
             (match src.[!pos] with
             | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> true
             | _ -> false)
      do
        incr pos
      done;
      String.sub src start (!pos - start)
    end
  in
  let rec value () =
    skip ();
    if !pos >= n then None
    else if src.[!pos] = '(' then begin
      incr pos;
      let rec items acc =
        skip ();
        if !pos >= n then Some (List (List.rev acc))
        else if src.[!pos] = ')' then begin
          incr pos;
          Some (List (List.rev acc))
        end
        else match value () with Some v -> items (v :: acc) | None -> Some (List (List.rev acc))
      in
      items []
    end
    else if src.[!pos] = ')' then begin
      (* stray close — skip it *)
      incr pos;
      value ()
    end
    else Some (Atom (atom ()))
  in
  let rec top acc =
    match value () with Some v -> top (v :: acc) | None -> List.rev acc
  in
  top []

type dir_info = {
  di_lib : string;
  di_wrapper : string option;
  di_is_library : bool;
  di_deps : string list option;
}

let field name = function
  | List (Atom f :: rest) when f = name -> Some rest
  | _ -> None

let atoms l =
  List.filter_map (function Atom a -> Some a | List _ -> None) l

let dir_info dir =
  let dune = Filename.concat dir "dune" in
  let default_info =
    let base = Filename.basename dir in
    let base = if base = "" || base = "." || base = "/" then "adhoc" else base in
    { di_lib = base; di_wrapper = None; di_is_library = false; di_deps = None }
  in
  if not (Sys.file_exists dune) then default_info
  else
    match parse_sexps (read_file dune) with
    | exception Sys_error _ -> default_info
    | stanzas -> (
        let libraries_of fields =
          List.concat_map
            (fun s -> match field "libraries" s with Some l -> atoms l | None -> [])
            fields
        in
        let lib_stanza =
          List.find_map
            (function
              | List (Atom "library" :: fields) -> Some fields
              | _ -> None)
            stanzas
        in
        match lib_stanza with
        | Some fields ->
            let name =
              List.find_map
                (fun s ->
                  match field "name" s with Some [ Atom n ] -> Some n | _ -> None)
                fields
            in
            let unwrapped =
              List.exists
                (fun s ->
                  match field "wrapped" s with
                  | Some [ Atom "false" ] -> true
                  | _ -> false)
                fields
            in
            let name = Option.value name ~default:default_info.di_lib in
            {
              di_lib = name;
              di_wrapper =
                (if unwrapped then None else Some (String.capitalize_ascii name));
              di_is_library = true;
              di_deps = Some (libraries_of fields);
            }
        | None ->
            (* Executable / test directory: union every stanza's deps. *)
            let deps =
              List.concat_map
                (function
                  | List (Atom ("executable" | "executables" | "test" | "tests") :: fields)
                    ->
                      libraries_of fields
                  | _ -> [])
                stanzas
            in
            { default_info with di_deps = Some deps })

(* ---------------------- loading ----------------------------------- *)

let collect_sources paths =
  let rec go path acc =
    if not (Sys.file_exists path) then acc
    else if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
             if String.length name = 0 || name.[0] = '.' || name = "_build" then
               acc
             else go (Filename.concat path name) acc)
           acc
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then path :: acc
    else acc
  in
  List.fold_left (fun acc p -> go p acc) [] paths
  |> List.sort_uniq String.compare

let parse_lock = Mutex.create ()

(* compiler-libs' lexer and parser keep global mutable state; hold the
   lock for the whole parse so [--jobs] stays safe. *)
let parse_impl_locked ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  Parse.implementation lexbuf

let parse_intf_locked ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  Parse.interface lexbuf

let parse_impl ~file src =
  Mutex.protect parse_lock (fun () -> parse_impl_locked ~file src)

let parse_intf ~file src =
  Mutex.protect parse_lock (fun () -> parse_intf_locked ~file src)

(* Parsed-AST cache. One [load] already parses each file exactly once,
   but the driver is re-entered many times over the same tree (test
   suite, editor loops, [--baseline-write] then lint), and every entry
   used to pay a full re-parse per file. Keyed by content digest +
   path + kind, so edits invalidate naturally; guarded by [parse_lock],
   which the parse itself needs anyway. The saved wall-clock (the
   original parse cost of every hit) is surfaced in [--timings] as the
   [parse-cache-saved] entry. *)
type cached_parse = {
  cp_str : Parsetree.structure option;
  cp_sg : Parsetree.signature option;
  cp_failed : bool;
  cp_seconds : float;
}

let parse_cache : (string, cached_parse) Hashtbl.t = Hashtbl.create 64
let parse_hits = ref 0
let parse_misses = ref 0
let parse_saved = ref 0.0

(* (hits, misses, seconds of parsing avoided) since process start. *)
let parse_cache_stats () = (!parse_hits, !parse_misses, !parse_saved)

let parse_cached ~path kind source =
  let key =
    Digest.to_hex (Digest.string source)
    ^ (match kind with Impl -> ":i:" | Intf -> ":s:")
    ^ path
  in
  Mutex.protect parse_lock (fun () ->
      match Hashtbl.find_opt parse_cache key with
      | Some c ->
          incr parse_hits;
          parse_saved := !parse_saved +. c.cp_seconds;
          (c.cp_str, c.cp_sg, c.cp_failed)
      | None ->
          incr parse_misses;
          let t0 = Unix.gettimeofday () in
          let str, sg, failed =
            match kind with
            | Impl -> (
                match parse_impl_locked ~file:path source with
                | ast -> (Some ast, None, false)
                | exception (Syntaxerr.Error _ | Lexer.Error _) ->
                    (None, None, true))
            | Intf -> (
                match parse_intf_locked ~file:path source with
                | sg -> (None, Some sg, false)
                | exception (Syntaxerr.Error _ | Lexer.Error _) ->
                    (None, None, true))
          in
          let c =
            {
              cp_str = str;
              cp_sg = sg;
              cp_failed = failed;
              cp_seconds = Unix.gettimeofday () -. t0;
            }
          in
          if Hashtbl.length parse_cache > 4096 then Hashtbl.reset parse_cache;
          Hashtbl.add parse_cache key c;
          (str, sg, failed))

let modname_of_path path =
  Filename.basename path |> Filename.remove_extension
  |> String.capitalize_ascii

let load ~pool paths =
  let sources = collect_sources paths in
  let dirs = Hashtbl.create 16 in
  let info_of_dir dir =
    match Hashtbl.find_opt dirs dir with
    | Some i -> i
    | None ->
        let i = dir_info dir in
        Hashtbl.add dirs dir i;
        i
  in
  (* Resolve dune metadata up front (sequential: Hashtbl cache), then
     read + parse on the pool. *)
  let metas =
    List.map (fun path -> (path, info_of_dir (Filename.dirname path))) sources
  in
  let load_one (path, di) =
    let kind = if Filename.check_suffix path ".mli" then Intf else Impl in
    let source = try read_file path with Sys_error _ -> "" in
    let str, sg, parse_failed = parse_cached ~path kind source in
    {
      path;
      modname = modname_of_path path;
      library = di.di_lib;
      wrapper = di.di_wrapper;
      is_library = di.di_is_library;
      deps = di.di_deps;
      kind;
      source;
      str;
      sg;
      parse_failed;
    }
  in
  let files =
    Parallel.map_array pool load_one (Array.of_list metas) |> Array.to_list
  in
  let lib_mods = Hashtbl.create 16 in
  let wrappers = Hashtbl.create 16 in
  let unwrapped = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let mods =
        Option.value (Hashtbl.find_opt lib_mods f.library) ~default:[]
      in
      if not (List.mem f.modname mods) then
        Hashtbl.replace lib_mods f.library (f.modname :: mods);
      (match f.wrapper with
      | Some w -> Hashtbl.replace wrappers w f.library
      | None -> ());
      if f.is_library && f.wrapper = None then
        Hashtbl.replace unwrapped f.modname f.library)
    files;
  { files; lib_mods; wrappers; unwrapped }

let lib_has_module t lib m =
  match Hashtbl.find_opt t.lib_mods lib with
  | Some mods -> List.mem m mods
  | None -> false

let find_files t ~modname =
  List.filter (fun f -> f.modname = modname) t.files
