(* Path-sensitive abstract interpretation over untyped function
   bodies.

   The protocol rules (Genproto, Budget_loop, Lifecycle) all walk an
   expression in evaluation order, carrying an abstract state that
   joins at control-flow merges. This module owns that walk once; a
   rule supplies a {!hooks} record — its lattice ([join]/[equal]) plus
   callbacks for the events it cares about — and [exec] threads the
   state through lets, sequences, branches, matches, loops, pipes and
   inlined closures.

   Approximations, deliberate and shared by every client:
   - Closures are inlined at their occurrence: the body of a [fun]
     argument executes as part of the call. Higher-order flow is thus
     "called here, immediately" — right for the [with_lock f] /
     [guard f] / [Fun.protect] idioms this codebase uses, and an
     over-approximation elsewhere.
   - [Fun.protect ~finally:g f] executes [f]'s body before [g]'s
     regardless of argument order, matching runtime order.
   - A [match] case's guard may run even when a later case is taken,
     so guard effects thread into subsequent cases' entry states.
   - [try] handlers start from the join of the pre-body state and the
     post-body state (the exception may fire before or after the
     body's effects).
   - Loop bodies run to a fixpoint capped at [loop_limit] iterations;
     on hitting the cap the pre/post join is taken as-is, so a
     non-converging client lattice degrades to imprecision, not
     divergence.
   - [let*] (and friends) join the post-binding state into the result,
     modelling the early-exit path of result/option binds. *)

open Parsetree

type 'st hooks = {
  join : 'st -> 'st -> 'st;
  equal : 'st -> 'st -> bool;
  on_apply :
    'st ->
    Longident.t ->
    Location.t ->
    (Asttypes.arg_label * expression) list ->
    'st;
      (** Called after the arguments have executed. Bare-identifier
          arguments are NOT routed through [on_ident]; they appear
          only in the argument list here (an argument position is a
          use/escape, not a read, and clients treat it differently). *)
  on_field : 'st -> expression -> string -> Location.t -> 'st;
      (** [on_field st base field loc] — a read [base.field]; [base]
          has already executed. *)
  on_setfield : 'st -> expression -> string -> Location.t -> 'st;
      (** [base.field <- v] after [base] and [v] have executed. *)
  on_bind : 'st -> string list -> expression option -> 'st;
      (** [let p = rhs] after [rhs] executed; the names bound by [p],
          and the (stripped) rhs when there is one ([None] for
          match/function case patterns). *)
  on_record : 'st -> string list -> Location.t -> 'st;
      (** A record literal (or functional update), with the last
          components of its field labels. *)
  on_ident : 'st -> Longident.t -> Location.t -> 'st;
      (** A value identifier in evaluation position (not the head of
          an application, not a bare argument). *)
  on_closure_arg : 'st -> Longident.t -> 'st;
      (** Called just before a literal [fun]/[function] argument of an
          application of [lid] is inlined. Closure inlining runs the
          body "at the call site", which is too early for
          callback-style wrappers ([with_entry t (fun e -> …)])
          whose precondition is established *inside* the callee before
          the callback runs; a client can use the head's summary to
          pre-establish that state here. *)
  loop_limit : int;
}

let default_hooks ~join ~equal =
  {
    join;
    equal;
    on_apply = (fun st _ _ _ -> st);
    on_field = (fun st _ _ _ -> st);
    on_setfield = (fun st _ _ _ -> st);
    on_bind = (fun st _ _ -> st);
    on_record = (fun st _ _ -> st);
    on_ident = (fun st _ _ -> st);
    on_closure_arg = (fun st _ -> st);
    loop_limit = 8;
  }

(* [fun a b -> e] / [fun (type t) -> e] — parameter names and the
   innermost body. *)
let rec peel_params e =
  let e = Ast_util.strip e in
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      let ps, b = peel_params body in
      (Ast_util.pattern_vars pat @ ps, b)
  | _ -> ([], e)

let is_bare_ident e =
  match (Ast_util.strip e).pexp_desc with
  | Pexp_ident _ -> true
  | _ -> false

(* [f @@ x] and [x |> f] rewritten to direct application; a curried
   head collapses ([g a |> f] stays [f (g a)], [(f a) @@ b] becomes
   [f a b]). *)
let rewrite_pipe f args =
  match ((Ast_util.strip f).pexp_desc, args) with
  | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, g); (_, x) ] ->
      Some (g, [ (Asttypes.Nolabel, x) ])
  | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ (_, x); (_, g) ] ->
      Some (g, [ (Asttypes.Nolabel, x) ])
  | _ -> None

let rec exec h st e =
  let e = Ast_util.strip e in
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> h.on_ident st txt loc
  | Pexp_constant _ -> st
  | Pexp_apply (f, args) -> exec_apply h st loc f args
  | Pexp_field (base, { txt = flid; _ }) ->
      let st = exec h st base in
      h.on_field st base (Ast_util.last_comp flid) loc
  | Pexp_setfield (base, { txt = flid; _ }, v) ->
      let st = exec h st base in
      let st = exec h st v in
      h.on_setfield st base (Ast_util.last_comp flid) loc
  | Pexp_record (fields, base) ->
      let st = match base with Some b -> exec h st b | None -> st in
      let st =
        List.fold_left (fun st (_, fe) -> exec h st fe) st fields
      in
      h.on_record st
        (List.map (fun ({ Location.txt; _ }, _) -> Ast_util.last_comp txt) fields)
        loc
  | Pexp_let (_, vbs, body) ->
      let st =
        List.fold_left
          (fun st vb ->
            let rhs = Ast_util.strip vb.pvb_expr in
            let st = exec h st vb.pvb_expr in
            h.on_bind st (Ast_util.pattern_vars vb.pvb_pat) (Some rhs))
          st vbs
      in
      exec h st body
  | Pexp_sequence (a, b) -> exec h (exec h st a) b
  | Pexp_ifthenelse (c, t, f) ->
      let st = exec h st c in
      let st_t = exec h st t in
      let st_f = match f with Some f -> exec h st f | None -> st in
      h.join st_t st_f
  | Pexp_match (scrut, cases) ->
      let st = exec h st scrut in
      exec_cases h st cases
  | Pexp_function cases -> exec_cases h st cases
  | Pexp_try (body, handlers) ->
      let st_body = exec h st body in
      (* The exception may fire before or after the body's effects. *)
      let st_exn = h.join st st_body in
      List.fold_left
        (fun acc c -> h.join acc (exec_case h st_exn c))
        st_body handlers
  | Pexp_fun (_, dflt, pat, body) ->
      (* Inline the closure: its body's effects happen "here". A
         default-argument expression executes on some calls. *)
      let st = match dflt with Some d -> h.join st (exec h st d) | None -> st in
      let st = h.on_bind st (Ast_util.pattern_vars pat) None in
      exec h st body
  | Pexp_while (cond, body) ->
      exec_loop h st (fun st -> exec h (exec h st cond) body)
  | Pexp_for (pat, lo, hi, _, body) ->
      let st = exec h (exec h st lo) hi in
      exec_loop h st (fun st ->
          exec h (h.on_bind st (Ast_util.pattern_vars pat) None) body)
  | Pexp_letop { let_; ands; body } ->
      let st =
        List.fold_left
          (fun st (op : binding_op) ->
            let st = exec h st op.pbop_exp in
            h.on_bind st (Ast_util.pattern_vars op.pbop_pat) None)
          st (let_ :: ands)
      in
      (* [let*] can stop at the bind: the result is reachable both through
         the body and straight from the bind. *)
      h.join st (exec h st body)
  | Pexp_letmodule (_, _, body) | Pexp_open (_, body) | Pexp_lazy body ->
      exec h st body
  | Pexp_assert a | Pexp_send (a, _) -> exec h st a
  | Pexp_tuple es | Pexp_array es ->
      List.fold_left (fun st e -> exec h st e) st es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
      match arg with Some a -> exec h st a | None -> st)
  | _ ->
      (* Anything else (objects, packs, extensions…): fold over the
         immediate sub-expressions in syntactic order. *)
      exec_children h st e

and exec_apply h st loc f args =
  match rewrite_pipe f args with
  | Some (g, args') -> (
      match (Ast_util.strip g).pexp_desc with
      | Pexp_apply (g0, gargs) -> exec_apply h st loc g0 (gargs @ args')
      | _ -> exec_apply h st loc g args')
  | None -> (
      let fs = Ast_util.strip f in
      match fs.pexp_desc with
      | Pexp_ident
          { txt = Longident.Ldot (Longident.Lident "Fun", "protect") as txt; _ }
        ->
          (* Runtime order: body first, then ~finally — whatever the
             argument order in source. *)
          let finally, rest =
            List.partition
              (fun (lbl, _) ->
                match lbl with
                | Asttypes.Labelled "finally" -> true
                | _ -> false)
              args
          in
          let st = List.fold_left (fun st (_, a) -> exec h st a) st rest in
          let st =
            List.fold_left (fun st (_, a) -> exec h st a) st finally
          in
          h.on_apply st txt loc args
      | Pexp_ident { txt; _ } ->
          let st =
            List.fold_left
              (fun st (_, a) ->
                if is_bare_ident a then st
                else
                  let st =
                    match (Ast_util.strip a).pexp_desc with
                    | Pexp_fun _ | Pexp_function _ -> h.on_closure_arg st txt
                    | _ -> st
                  in
                  exec h st a)
              st args
          in
          h.on_apply st txt loc args
      | _ ->
          let st = exec h st f in
          List.fold_left
            (fun st (_, a) -> if is_bare_ident a then st else exec h st a)
            st args)

and exec_case h st (c : case) =
  let st = h.on_bind st (Ast_util.pattern_vars c.pc_lhs) None in
  let st = match c.pc_guard with Some g -> exec h st g | None -> st in
  exec h st c.pc_rhs

and exec_cases h st cases =
  (* A case's guard can run even when a later case is selected, so its
     effects flow into every subsequent case's entry state. *)
  let entry = ref st in
  let result = ref None in
  List.iter
    (fun (c : case) ->
      let st0 = !entry in
      let bound = h.on_bind st0 (Ast_util.pattern_vars c.pc_lhs) None in
      let after_guard =
        match c.pc_guard with Some g -> exec h bound g | None -> bound
      in
      if c.pc_guard <> None then entry := h.join !entry after_guard;
      let out = exec h after_guard c.pc_rhs in
      result :=
        Some (match !result with None -> out | Some r -> h.join r out))
    cases;
  match !result with None -> st | Some r -> r

and exec_loop h st body =
  (* Zero-or-more iterations: fixpoint of [join pre (body pre)],
     capped at [loop_limit]. *)
  let cur = ref st in
  let continue = ref true in
  let n = ref 0 in
  while !continue && !n < h.loop_limit do
    incr n;
    let next = h.join !cur (body !cur) in
    if h.equal next !cur then continue := false else cur := next
  done;
  if !continue then cur := h.join !cur (body !cur);
  !cur

and exec_children h st e =
  let acc = ref st in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ child -> acc := exec h !acc child);
    }
  in
  Ast_iterator.default_iterator.expr it e;
  !acc

(* ------------------------------------------------------------------ *)
(* Structure helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Top-level value bindings of a structure, flattened through inline
   submodules — the unit the protocol rules summarise. Names follow
   the callgraph convention: a binding [f] inside [module Sub = struct
   … end] is reported as ["Sub.f"], so they line up with
   [Callgraph.node.n_val]. *)
let top_bindings str =
  let acc = ref [] in
  let rec go prefix items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } ->
                    acc := (prefix ^ txt, vb.pvb_expr, vb.pvb_loc) :: !acc
                | _ -> ())
              vbs
        | Pstr_module
            {
              pmb_name = { txt = name; _ };
              pmb_expr = { pmod_desc = Pmod_structure sub; _ };
              _;
            } ->
            let p =
              match name with Some n -> prefix ^ n ^ "." | None -> prefix
            in
            go p sub
        | _ -> ())
      items
  in
  go "" str;
  List.rev !acc
