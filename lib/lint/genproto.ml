(* generation-protocol: the engine's cache-coherence contract, checked
   statically.

   The engine serialises readers against writers with a generation
   counter: every structural mutation must bump [t.gen], and every
   consumer of a gen-stamped snapshot (a record carrying a [*_gen]
   field) must compare that stamp against the live counter before
   trusting the payload. This rule verifies both directions over each
   file that participates in the protocol:

   (a) every mutation path reaches a bump — a call into another
       module's mutator ([add_*]/[remove_*]/[set_*]/…, applied to a
       projected field of the owner) sets a pending obligation that
       only a [gen <- …] assignment (or a callee known to perform one)
       discharges; an exported entry point whose exit still carries
       the obligation is reported at the mutation site, with the entry
       point as a related location;

   (b) every payload read is dominated by a stamp check — reading a
       non-gen field of a stamped record while no comparison against a
       [*_gen] field has happened on this path is reported. Creating
       the stamp (a record literal with a [*_gen] label) counts as
       checked, as does calling a same-file function that checks on
       all of its paths.

   Analysis is context-insensitive but interprocedural within the
   file: bindings are summarised in definition order (three rounds, so
   forward and mutually recursive references stabilise), and call
   sites splice callee summaries — a callee that bumps clears the
   caller's obligation; a callee that checks marks the caller's path
   checked. Trivial accessors (a body that is just a field chain over
   a parameter) are exempt from (b): they forward the payload, their
   caller owns the check.

   Files are gated in only when they define the protocol's types: (a)
   needs a record with a [mutable gen] field, (b) needs a record with
   a [*_gen]-suffixed stamp field. Everything else costs nothing. *)

open Parsetree

let rule_id = "generation-protocol"

let strip = Ast_util.strip
let last_comp = Ast_util.last_comp

(* ---------------------- lattice ----------------------------------- *)

type st = {
  pending : (Location.t * string) option;
      (** an un-bumped mutation: where, and what was called *)
  bumped : bool;  (** may-bump on this path (clears pending) *)
  checked : bool;  (** must-check: a stamp comparison dominates *)
}

let init = { pending = None; bumped = false; checked = false }

let join a b =
  {
    pending = (match a.pending with Some _ -> a.pending | None -> b.pending);
    bumped = a.bumped && b.bumped;
    checked = a.checked && b.checked;
  }

let equal (a : st) b = a = b

(* Splice a callee summary into the caller's state at a call site. *)
let apply_summary st sg =
  {
    pending =
      (if sg.bumped then sg.pending
       else match st.pending with Some _ -> st.pending | None -> sg.pending);
    bumped = st.bumped || sg.bumped;
    checked = st.checked || sg.checked;
  }

(* ---------------------- protocol vocabulary ----------------------- *)

let is_genish name = name = "gen" || String.ends_with ~suffix:"_gen" name

let mutator_prefixes =
  [ "add"; "remove"; "update"; "set"; "clear"; "insert"; "delete"; "push";
    "patch" ]

let is_mutator name =
  List.exists
    (fun p -> name = p || String.starts_with ~prefix:(p ^ "_") name)
    mutator_prefixes

let comparisons =
  [ "="; "<>"; "=="; "!="; "<"; ">"; "<="; ">="; "compare"; "equal" ]

(* ---------------------- per-file gate ----------------------------- *)

type gate = {
  g_owner : bool;  (** a record with [mutable gen] lives here *)
  g_payload : string list;  (** non-gen fields of stamped records *)
}

let gate_of str =
  let owner = ref false in
  let payload = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun self td ->
          (match td.ptype_kind with
          | Ptype_record labels ->
              if
                List.exists
                  (fun ld ->
                    ld.pld_name.txt = "gen" && ld.pld_mutable = Asttypes.Mutable)
                  labels
              then owner := true;
              if
                List.exists
                  (fun ld -> String.ends_with ~suffix:"_gen" ld.pld_name.txt)
                  labels
              then
                List.iter
                  (fun ld ->
                    if not (is_genish ld.pld_name.txt) then
                      payload := ld.pld_name.txt :: !payload)
                  labels
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration self td);
    }
  in
  it.structure it str;
  { g_owner = !owner; g_payload = List.sort_uniq compare !payload }

(* A body that merely projects fields off a parameter forwards the
   stamped value; the caller owns the stamp check. *)
let trivial_accessor body =
  let params, core = Typestate.peel_params body in
  let rec chain e =
    match (strip e).pexp_desc with
    | Pexp_field (b, _) -> chain b
    | Pexp_ident { txt = Longident.Lident x; _ } -> List.mem x params
    | _ -> false
  in
  params <> [] && chain core

(* ---------------------- the analysis ------------------------------ *)

let analyze_file ~resolve ~(cg : Callgraph.t) (file : Project.file) str gate =
  let modname = file.Project.modname in
  let path = file.Project.path in
  let summaries : (string, st) Hashtbl.t = Hashtbl.create 16 in
  let bindings = Typestate.top_bindings str in
  let reads = ref [] in
  let hooks ~collect =
    let on_apply st lid loc args =
      (* A stamp comparison: [e.c_gen = t.gen], [compare p.p_gen g]… *)
      let st =
        if
          List.mem (last_comp lid) comparisons
          && List.exists
               (fun (_, a) ->
                 match (strip a).pexp_desc with
                 | Pexp_field (_, { txt; _ }) -> is_genish (last_comp txt)
                 | _ -> false)
               args
        then { st with checked = true }
        else st
      in
      match resolve lid with
      | Callgraph.RNodes ns -> (
          match
            List.find_opt (fun n -> n.Callgraph.n_mod = modname) ns
          with
          | Some n -> (
              match Hashtbl.find_opt summaries n.Callgraph.n_val with
              | Some sg -> apply_summary st sg
              | None -> st)
          | None ->
              (* Another module's mutator applied to our projected
                 state: an obligation until a bump. *)
              if
                is_mutator (last_comp lid)
                && List.exists
                     (fun (_, a) ->
                       match (strip a).pexp_desc with
                       | Pexp_field _ -> true
                       | _ -> false)
                     args
              then
                match st.pending with
                | Some _ -> st
                | None ->
                    { st with pending = Some (loc, Ast_util.flatten_lid lid) }
              else st)
      | Callgraph.RExt _ | Callgraph.ROther -> st
    in
    let on_field st _base field loc =
      if List.mem field gate.g_payload && not st.checked then
        if collect then reads := (loc, field) :: !reads;
      st
    in
    let on_setfield st _base field _loc =
      if is_genish field then { st with pending = None; bumped = true }
      else st
    in
    let on_record st labels _loc =
      if List.exists (fun l -> String.ends_with ~suffix:"_gen" l) labels then
        { st with checked = true }
      else st
    in
    (* A closure handed to a same-file wrapper that checks on every
       path ([with_entry t (fun e -> … e.c_eval …)]) runs after the
       wrapper's stamp check, even though inlining executes it at the
       call site — pre-establish the check for its body. *)
    let on_closure_arg st lid =
      match resolve lid with
      | Callgraph.RNodes ns -> (
          match
            List.find_opt (fun n -> n.Callgraph.n_mod = modname) ns
          with
          | Some n -> (
              match Hashtbl.find_opt summaries n.Callgraph.n_val with
              | Some sg when sg.checked -> { st with checked = true }
              | _ -> st)
          | None -> st)
      | _ -> st
    in
    {
      (Typestate.default_hooks ~join ~equal) with
      Typestate.on_apply;
      on_field;
      on_setfield;
      on_record;
      on_closure_arg;
    }
  in
  (* Three definition-order rounds stabilise forward references. *)
  let summarise () =
    List.iter
      (fun (name, body, _) ->
        let _, core = Typestate.peel_params body in
        Hashtbl.replace summaries name
          (Typestate.exec (hooks ~collect:false) init core))
      bindings
  in
  summarise ();
  summarise ();
  summarise ();
  (* Collection round: payload reads, skipping trivial accessors. *)
  List.iter
    (fun (_, body, _) ->
      if not (trivial_accessor body) then
        let _, core = Typestate.peel_params body in
        ignore (Typestate.exec (hooks ~collect:true) init core))
    bindings;
  let out = ref [] in
  (* (b) unchecked payload reads, deduplicated per location. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (loc, field) ->
      if not (Hashtbl.mem seen loc) then begin
        Hashtbl.replace seen loc ();
        out :=
          Report.mk ~file:path loc rule_id
            (Printf.sprintf
               "gen-stamped payload field `%s` is read on a path with no \
                generation check; compare the snapshot's `*_gen` stamp \
                against the live counter first (stale reads otherwise go \
                undetected)"
               field)
          :: !out
      end)
    (List.rev !reads);
  (* (a) pending mutations at the exit of exported entry points. *)
  if gate.g_owner then begin
    let exported =
      List.filter_map
        (fun (e : Callgraph.export) ->
          if e.ex_node.Callgraph.n_mod = modname then
            Some e.ex_node.Callgraph.n_val
          else None)
        cg.Callgraph.cg_exports
    in
    let roots =
      if exported = [] then List.map (fun (n, _, _) -> n) bindings
      else exported
    in
    let seen_mut = Hashtbl.create 4 in
    List.iter
      (fun (name, _, bloc) ->
        if List.mem name roots then
          match Hashtbl.find_opt summaries name with
          | Some { pending = Some (mloc, what); _ } ->
              if not (Hashtbl.mem seen_mut mloc) then begin
                Hashtbl.replace seen_mut mloc ();
                out :=
                  Report.mk ~file:path mloc rule_id
                    ~related:
                      [
                        Report.rel ~file:path bloc
                          (Printf.sprintf "reachable from exported `%s`" name);
                      ]
                    (Printf.sprintf
                       "mutation `%s` can reach the exit of exported `%s` \
                        without a generation bump; stamped snapshots stay \
                        valid against stale state — bump `gen` on every \
                        mutation path"
                       what name)
                  :: !out
              end
          | _ -> ())
      bindings
  end;
  List.rev !out

let findings (cg : Callgraph.t) =
  let proj = cg.Callgraph.cg_project in
  let resolver = Callgraph.resolver_of cg in
  List.concat_map
    (fun (f : Project.file) ->
      match (f.Project.kind, f.Project.str) with
      | Project.Impl, Some str ->
          let gate = gate_of str in
          if gate.g_owner || gate.g_payload <> [] then
            analyze_file ~resolve:(resolver f) ~cg f str gate
          else []
      | _ -> [])
    proj.Project.files
