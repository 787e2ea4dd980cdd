open Geom

(* The anytime payload of a deadline/cancellation trip: the best
   strategies found in fully completed iterations. [hits] is the exact
   hit (or union-hit) count of those strategies — a degraded answer is
   under-achieved, never silently wrong. *)
type partial = {
  p_strategies : (int * Strategy.t) list;
  p_hits : int;
  p_total_cost : float;
  p_iterations : int;
  p_flag : [ `Degraded ];
}

module Error = struct
  type t =
    | Dim_mismatch of { expected : int; got : int }
    | Unknown_target of { id : int; n_objects : int }
    | Unknown_query of { q : int; n_queries : int }
    | Depth_exceeded of { k : int; depth : int }
    | Non_finite of { what : string; coordinate : int }
    | Budget_exhausted of float
    | Infeasible
    | Stale_state of { held : int; current : int }
    | Unknown_backend of string
    | Empty_targets
    | Deadline_exceeded of { elapsed_ms : float; partial : partial option }
    | Cancelled of { partial : partial option }
    | Fault_spec of { spec : string; msg : string }
    | Wal_corrupt of { path : string; offset : int }
    | Internal of string

  let partial_str = function
    | None -> "no partial result"
    | Some p ->
        Printf.sprintf "degraded partial: %d hits at cost %g after %d iterations"
          p.p_hits p.p_total_cost p.p_iterations

  let to_string = function
    | Dim_mismatch { expected; got } ->
        Printf.sprintf "dimension mismatch: expected %d, got %d" expected got
    | Unknown_target { id; n_objects } ->
        Printf.sprintf "unknown target %d (instance has %d objects)" id
          n_objects
    | Unknown_query { q; n_queries } ->
        Printf.sprintf "unknown query %d (workload has %d queries)" q
          n_queries
    | Depth_exceeded { k; depth } ->
        Printf.sprintf
          "query k=%d exceeds index depth %d (rebuild with depth_slack)" k
          depth
    | Non_finite { what; coordinate } ->
        Printf.sprintf "non-finite %s at coordinate %d" what coordinate
    | Budget_exhausted beta -> Printf.sprintf "budget %g is negative" beta
    | Infeasible -> "goal unreachable: no feasible strategy"
    | Stale_state { held; current } ->
        Printf.sprintf "stale state: prepared at generation %d, engine at %d"
          held current
    | Unknown_backend name ->
        Printf.sprintf "unknown backend %S (expected ese, scan or rta)" name
    | Empty_targets -> "no targets given"
    | Deadline_exceeded { elapsed_ms; partial } ->
        Printf.sprintf "deadline exceeded after %.1f ms (%s)" elapsed_ms
          (partial_str partial)
    | Cancelled { partial } ->
        Printf.sprintf "cancelled (%s)" (partial_str partial)
    | Fault_spec { spec; msg } ->
        Printf.sprintf "bad IQ_FAULT spec %S: %s" spec msg
    | Wal_corrupt { path; offset } ->
        Printf.sprintf "corrupt durable log %s at byte %d" path offset
    | Internal msg -> "internal error: " ^ msg
end

let ( let* ) = Result.bind

(* Last-resort boundary conversion. The inner layers guard their
   invariants with [invalid_arg]/[assert] and the pool re-raises
   worker exceptions; the serving boundary promises typed results, so
   anything that still escapes becomes [Error (Internal _)] here
   rather than a raw exception in the caller's lap. The handler is
   deliberately total — at a serving boundary even Out_of_memory is
   better reported than leaked. *)
let guard f =
  try f () with e -> Error (Error.Internal (Printexc.to_string e))

module type BACKEND = sig
  val name : string

  val prepare :
    layers:(int -> int) option ->
    index:Query_index.t ->
    pool:Parallel.pool ->
    target:int ->
    Evaluator.t * Ese.state option
end

type backend = (module BACKEND)

module Ese_backend = struct
  let name = "ese"

  let prepare ~layers ~index ~pool:_ ~target =
    let state = Ese.prepare ?layers index ~target in
    (Evaluator.of_state index state, Some state)
end

module Scan_backend = struct
  let name = "scan"

  let prepare ~layers:_ ~index ~pool ~target =
    (Evaluator.naive ~pool (Query_index.instance index) ~target, None)
end

module Rta_backend = struct
  let name = "rta"

  let prepare ~layers:_ ~index ~pool ~target =
    (Evaluator.rta ~pool (Query_index.instance index) ~target, None)
end

let backend_of_name name =
  match String.lowercase_ascii (String.trim name) with
  | "ese" | "efficient" | "efficient-iq" -> Ok (module Ese_backend : BACKEND)
  | "scan" | "naive" -> Ok (module Scan_backend : BACKEND)
  | "rta" | "rta-iq" -> Ok (module Rta_backend : BACKEND)
  | other -> Error (Error.Unknown_backend other)

(* {2 Durability hooks} *)

(* The plain-data description of one successful mutation, exactly as
   submitted (queries pre-normalization): what the durable layer
   journals and what replay feeds back through {!apply_mutation}, so a
   recovered engine runs the very same code paths the original did. *)
type mutation =
  | M_add_object of Vec.t
  | M_update_object of { id : int; raw : Vec.t }
  | M_remove_object of int
  | M_add_query of Topk.Query.t
  | M_remove_query of int

(* The durable backend as the engine sees it: callbacks invoked under
   the writer lock. [j_append] persists one mutation record before the
   successor snapshot publishes (a raise aborts the mutation, so no
   acknowledged mutation can be lost); [j_checkpoint] persists a whole
   snapshot and truncates the log. The engine stays file-format
   agnostic — [Durable.Store] owns the bytes. *)
type journal = {
  j_append : generation:int -> mutation -> int;
  j_checkpoint : Snapshot.t -> int;
  j_every : int option;
}

(* The MVCC core. [current] is the published snapshot: readers
   [Atomic.get] it (acquire) and then work against that immutable
   bundle for the whole call; the writer path builds the successor
   through the functional [Query_index.with_*] updates under [wlock]
   and [Atomic.set]s it (release). Nothing a reader touches is ever
   patched in place, so a pinned snapshot stays valid forever.

   [slock] protects the small cross-generation tables: [seen] (which
   targets were prepared at which generation — the bridge that keeps
   the pre-MVCC [cached_targets]/[stale_cached]/[repreparations]
   stats semantics), [pins] (generation -> live session pin count)
   and [retained] (the IQ_SNAPSHOT_KEEP ring of recently retired
   snapshots kept reachable for late readers). Lock order is
   snapshot-lock -> slock; [wlock] never nests inside either. *)
type t = {
  pool : Parallel.pool;
  backend : backend;
  fault : Resilience.Fault.t option;
  prune : bool;
  current : Snapshot.t Atomic.t;
  wlock : Mutex.t;
  slock : Mutex.t;
  seen : (int, int) Hashtbl.t;
  pins : (int, int) Hashtbl.t;
  mutable retained : Snapshot.t list;
  keep : int;
  last_dom : (int * int) option Atomic.t;
      (* (generation, layer_count) of the most recently built onion,
         for {!dominance_stats}: a stale pair after a mutation is the
         observable form of "rebuilt lazily on next prepare" *)
  repreps : int Atomic.t;
  retired_evals : int Atomic.t;
      (* evaluation counts of retired snapshots, so [stats] stays
         monotonic across generations *)
  deadline_trips : int Atomic.t;
  cancellations : int Atomic.t;
  (* admission control for serving sessions *)
  alock : Mutex.t;
  mutable adm_active : int;
  mutable adm_waiting : int;
  adm_max : int;
  rejections : int Atomic.t;
  (* durability: the attached journal plus its accounting. [journal]
     is written once at attach time and read under [wlock] on the
     mutation path; the counters are Atomics so [stats] can read them
     from any domain. [wal_bytes] counts log bytes since the last
     checkpoint (the log is truncated there); [last_ckpt] is -1 until
     a checkpoint exists. *)
  journal : journal option Atomic.t;
  wal_bytes : int Atomic.t;
  last_ckpt : int Atomic.t;
  replayed : int Atomic.t;
  muts_since_ckpt : int Atomic.t;
}

let with_mutex m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let resolve_backend = function
  | Some b -> Ok b
  | None -> backend_of_name (Workload.Config.backend ())

(* Without an explicit schedule the environment decides: IQ_FAULT. A
   malformed spec is a typed error — silently running without the
   faults a chaos run asked for would invalidate the run. *)
let resolve_fault = function
  | Some _ as fault -> Ok fault
  | None -> (
      match Resilience.Fault.of_env () with
      | Ok fault -> Ok fault
      | Error msg ->
          let spec = Option.value ~default:"" (Workload.Config.fault ()) in
          Error (Error.Fault_spec { spec; msg }))

let assemble ~backend ~fault ?prune ?generation ~pool index =
  let prune =
    match prune with Some p -> p | None -> Workload.Config.prune ()
  in
  {
    pool;
    backend;
    fault;
    prune;
    current = Atomic.make (Snapshot.root ?generation ~prune index);
    wlock = Mutex.create ();
    slock = Mutex.create ();
    seen = Hashtbl.create 16;
    pins = Hashtbl.create 8;
    retained = [];
    keep = Workload.Config.snapshot_keep ();
    last_dom = Atomic.make None;
    repreps = Atomic.make 0;
    retired_evals = Atomic.make 0;
    deadline_trips = Atomic.make 0;
    cancellations = Atomic.make 0;
    alock = Mutex.create ();
    adm_active = 0;
    adm_waiting = 0;
    adm_max = Workload.Config.max_sessions ();
    rejections = Atomic.make 0;
    journal = Atomic.make None;
    wal_bytes = Atomic.make 0;
    last_ckpt = Atomic.make (-1);
    replayed = Atomic.make 0;
    muts_since_ckpt = Atomic.make 0;
  }

let resolve_pool = function Some p -> p | None -> Parallel.default ()

let of_index ?backend ?fault ?prune ?generation ?pool index =
  guard @@ fun () ->
  let* backend = resolve_backend backend in
  let* fault = resolve_fault fault in
  let pool = resolve_pool pool in
  Ok (assemble ~backend ~fault ?prune ?generation ~pool index)

(* The index build consults its own fault site; an injection escapes
   to [guard] like any other build failure. *)
let create ?backend ?fault ?prune ?generation ?depth_slack ?method_ ?pool inst
    =
  guard @@ fun () ->
  let* backend = resolve_backend backend in
  let* fault = resolve_fault fault in
  let pool = resolve_pool pool in
  Resilience.Fault.point fault ~site:"index.build";
  let index = Query_index.build ?depth_slack ?method_ ~pool inst in
  Ok (assemble ~backend ~fault ?prune ?generation ~pool index)

let create_exn ?backend ?fault ?prune ?depth_slack ?method_ ?pool inst =
  match create ?backend ?fault ?prune ?depth_slack ?method_ ?pool inst with
  | Ok t -> t
  | Error e -> invalid_arg ("Engine.create: " ^ Error.to_string e)

let snapshot t = Atomic.get t.current

let resolve_snap t = function Some s -> s | None -> snapshot t

let instance t = Snapshot.instance (snapshot t)

let index t = Snapshot.index (snapshot t)

let pool t = t.pool

let generation t = Snapshot.generation (snapshot t)

let backend_name t =
  let (module B : BACKEND) = t.backend in
  B.name

let pruning_enabled t = t.prune

let dominance_stats t = Atomic.get t.last_dom

(* {2 Validation} *)

let check_target_in snap id =
  let n = Instance.n_objects (Snapshot.instance snap) in
  if id < 0 || id >= n then Error (Error.Unknown_target { id; n_objects = n })
  else Ok ()

let check_query_in snap q =
  let m = Instance.n_queries (Snapshot.instance snap) in
  if q < 0 || q >= m then Error (Error.Unknown_query { q; n_queries = m })
  else Ok ()

let check_dim ~expected ~got =
  if expected <> got then Error (Error.Dim_mismatch { expected; got })
  else Ok ()

let check_finite what v =
  let rec scan i =
    if i >= Array.length v then Ok ()
    else if Float.is_finite v.(i) then scan (i + 1)
    else Error (Error.Non_finite { what; coordinate = i })
  in
  scan 0

(* An object's raw attributes and their feature image: a NaN in
   either would break the ranking order the index maintains. *)
let check_object snap raw =
  let* () =
    check_dim
      ~expected:(Instance.dim_raw (Snapshot.instance snap))
      ~got:(Vec.dim raw)
  in
  let* () = check_finite "object attribute" raw in
  let utility = (Snapshot.instance snap).Instance.utility in
  check_finite "object feature" (utility.Topk.Utility.features raw)

(* {2 Evaluator cache} *)

(* Prepare [target] against [snap] and cache the entry; the snapshot's
   cache lock is held. The backend's prepare fault site is consulted
   first: an injection, like any exception a backend raises,
   propagates to [guard] and leaves nothing cached. *)
let prepare_in t snap ~target =
  let (module B : BACKEND) = t.backend in
  Resilience.Fault.point t.fault ~site:("backend." ^ B.name ^ ".prepare");
  let eval, state =
    B.prepare ~layers:(Snapshot.layers snap) ~index:(Snapshot.index snap)
      ~pool:t.pool ~target
  in
  let e = { Snapshot.e_eval = eval; e_state = state } in
  Snapshot.set_entry snap target e;
  let gen = Snapshot.generation snap in
  with_mutex t.slock (fun () ->
      (match Hashtbl.find_opt t.seen target with
      | Some g when g <> gen ->
          (* Transparent re-preparation: a mutation moved the engine
             past this target's last evaluator. *)
          Atomic.incr t.repreps
      | Some _ | None -> ());
      Hashtbl.replace t.seen target gen);
  (match Snapshot.onion_layers snap with
  | Some layers -> Atomic.set t.last_dom (Some (gen, layers))
  | None -> ());
  e

(* The target's cached entry, prepared on first use. Generation
   staleness needs no check here — an entry lives in exactly one
   snapshot. *)
let entry ?snap t ~target =
  let snap = resolve_snap t snap in
  Snapshot.locked snap (fun () ->
      match Snapshot.find_entry snap target with
      | Some e -> e
      | None -> prepare_in t snap ~target)

let evaluator ?snap t ~target =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_target_in snap target in
  Ok (entry ~snap t ~target).Snapshot.e_eval

let hits ?snap t ~target =
  let* ev = evaluator ?snap t ~target in
  Ok ev.Evaluator.base_hits

let member ?snap t ~target ~q =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_target_in snap target in
  let* () = check_query_in snap q in
  let e = entry ~snap t ~target in
  match e.Snapshot.e_state with
  | Some state -> Ok (Ese.member state ~q)
  | None ->
      Ok
        (e.Snapshot.e_eval.Evaluator.member ~q
           (Strategy.zero (Instance.dim (Snapshot.instance snap))))

let dirty_queries ?snap t ~target ~s =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_target_in snap target in
  let* () =
    check_dim ~expected:(Instance.dim (Snapshot.instance snap)) ~got:(Vec.dim s)
  in
  match (entry ~snap t ~target).Snapshot.e_state with
  | Some state -> Ok (Ese.dirty_queries state ~s)
  | None -> Ok (List.init (Instance.n_queries (Snapshot.instance snap)) Fun.id)

(* {2 Prepared handles} *)

type prepared = { p_target : int; p_gen : int; p_entry : Snapshot.entry }

let prepare t ~target =
  guard @@ fun () ->
  let snap = snapshot t in
  let* () = check_target_in snap target in
  let e = entry ~snap t ~target in
  Ok { p_target = target; p_gen = Snapshot.generation snap; p_entry = e }

let prepared_target p = p.p_target

let prepared_generation p = p.p_gen

let evaluate t p ~s =
  guard @@ fun () ->
  let* () =
    check_dim ~expected:(Instance.dim (instance t)) ~got:(Vec.dim s)
  in
  let current = generation t in
  if p.p_gen <> current then
    Error (Error.Stale_state { held = p.p_gen; current })
  else Ok (p.p_entry.Snapshot.e_eval.Evaluator.hit_count s)

(* Re-preparing a stale handle is the one read of its payload that must
   not be gated on the stamp: the target survives the generation change
   by design, and [prepare] re-stamps it against the live counter. *)
(* iqlint: allow generation-protocol *)
let refresh t p = prepare t ~target:p.p_target

(* {2 Improvement queries} *)

(* Budget precedence: an explicit budget wins, then an explicit
   deadline argument, then the IQ_DEADLINE_MS environment knob, then
   the shared unlimited budget (whose checks are a few atomic reads —
   the clean path stays clean). *)
let resolve_budget ?deadline_ms ?budget () =
  match budget with
  | Some b -> b
  | None -> (
      let dl =
        match deadline_ms with
        | Some _ -> deadline_ms
        | None -> Workload.Config.deadline_ms ()
      in
      match dl with
      | Some ms -> Resilience.Budget.create ~deadline_ms:ms ()
      | None -> Resilience.Budget.unlimited)

(* Convert a degraded search outcome into the typed anytime error,
   bumping the engine's trip counters. A [Steps] trip is reported as
   [Deadline_exceeded] too — both mean "the request's budget ran out";
   the elapsed time is measured from the budget either way. *)
let degraded_error t budget trip partial =
  match (trip : Resilience.Budget.trip) with
  | Resilience.Budget.Cancelled ->
      Atomic.incr t.cancellations;
      Error (Error.Cancelled { partial = Some partial })
  | Resilience.Budget.Deadline { elapsed_ms } ->
      Atomic.incr t.deadline_trips;
      Error (Error.Deadline_exceeded { elapsed_ms; partial = Some partial })
  | Resilience.Budget.Steps _ ->
      Atomic.incr t.deadline_trips;
      Error
        (Error.Deadline_exceeded
           {
             elapsed_ms = Resilience.Budget.elapsed_ms budget;
             partial = Some partial;
           })

let min_cost ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget ?snap
    t ~cost ~target ~tau =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_target_in snap target in
  let* () =
    check_dim ~expected:(Instance.dim (Snapshot.instance snap))
      ~got:cost.Cost.dim
  in
  let budget = resolve_budget ?deadline_ms ?budget () in
  let e = entry ~snap t ~target in
  let before = e.Snapshot.e_eval.Evaluator.evaluations () in
  match
    Min_cost.search ?limits ?max_iterations ?candidate_cap ~pool:t.pool ~budget
      ?fault:t.fault ~evaluator:e.Snapshot.e_eval ~cost ~target ~tau ()
  with
  | None -> Error Error.Infeasible
  | Some o -> (
      (* The cached evaluator accumulates across calls; report only
         this call's work, as a fresh evaluator would. *)
      let o =
        { o with Min_cost.evaluations = o.Min_cost.evaluations - before }
      in
      match o.Min_cost.status with
      | `Complete -> Ok o
      | `Degraded trip ->
          degraded_error t budget trip
            {
              p_strategies = [ (target, o.Min_cost.strategy) ];
              p_hits = o.Min_cost.hits_after;
              p_total_cost = o.Min_cost.total_cost;
              p_iterations = o.Min_cost.iterations;
              p_flag = `Degraded;
            })

let max_hit ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget ?snap t
    ~cost ~target ~beta =
  guard @@ fun () ->
  if beta < 0. then Error (Error.Budget_exhausted beta)
  else
    let snap = resolve_snap t snap in
    let* () = check_target_in snap target in
    let* () =
      check_dim ~expected:(Instance.dim (Snapshot.instance snap))
        ~got:cost.Cost.dim
    in
    let budget = resolve_budget ?deadline_ms ?budget () in
    let e = entry ~snap t ~target in
    let before = e.Snapshot.e_eval.Evaluator.evaluations () in
    let o =
      Max_hit.search ?limits ?max_iterations ?candidate_cap ~pool:t.pool
        ~budget ?fault:t.fault ~evaluator:e.Snapshot.e_eval ~cost ~target ~beta
        ()
    in
    let o = { o with Max_hit.evaluations = o.Max_hit.evaluations - before } in
    match o.Max_hit.status with
    | `Complete -> Ok o
    | `Degraded trip ->
        degraded_error t budget trip
          {
            p_strategies = [ (target, o.Max_hit.strategy) ];
            p_hits = o.Max_hit.hits_after;
            p_total_cost = o.Max_hit.total_cost;
            p_iterations = o.Max_hit.iterations;
            p_flag = `Degraded;
          }

let check_costs snap costs =
  if costs = [] then Error Error.Empty_targets
  else
    let d = Instance.dim (Snapshot.instance snap) in
    List.fold_left
      (fun acc (target, cost) ->
        let* () = acc in
        let* () = check_target_in snap target in
        check_dim ~expected:d ~got:cost.Cost.dim)
      (Ok ()) costs

let cached_states t snap costs =
  List.filter_map
    (fun (target, _) ->
      match (entry ~snap t ~target).Snapshot.e_state with
      | Some state -> Some (target, state)
      | None -> None)
    costs

let multi_partial o =
  {
    p_strategies = o.Combinatorial.strategies;
    p_hits = o.Combinatorial.union_hits_after;
    p_total_cost = o.Combinatorial.total_cost;
    p_iterations = o.Combinatorial.iterations;
    p_flag = `Degraded;
  }

(* The multi-target searches thread budget and faults through
   {!Combinatorial}; an injected fault surfaces via [guard] as
   [Internal], as it does in the single-target searches. *)
let min_cost_multi ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget
    ?snap t ~costs ~tau =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_costs snap costs in
  let budget = resolve_budget ?deadline_ms ?budget () in
  let states = cached_states t snap costs in
  match
    Combinatorial.min_cost ?limits ?max_iterations ?candidate_cap ~states
      ~budget ?fault:t.fault ~index:(Snapshot.index snap) ~costs ~tau ()
  with
  | None -> Error Error.Infeasible
  | Some o -> (
      match o.Combinatorial.status with
      | `Complete -> Ok o
      | `Degraded trip -> degraded_error t budget trip (multi_partial o))

let max_hit_multi ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget
    ?snap t ~costs ~beta =
  guard @@ fun () ->
  if beta < 0. then Error (Error.Budget_exhausted beta)
  else
    let snap = resolve_snap t snap in
    let* () = check_costs snap costs in
    let budget = resolve_budget ?deadline_ms ?budget () in
    let states = cached_states t snap costs in
    let o =
      Combinatorial.max_hit ?limits ?max_iterations ?candidate_cap ~states
        ~budget ?fault:t.fault ~index:(Snapshot.index snap) ~costs ~beta ()
    in
    match o.Combinatorial.status with
    | `Complete -> Ok o
    | `Degraded trip -> degraded_error t budget trip (multi_partial o)

(* {2 Dataset maintenance} *)

(* Persist a checkpoint of [snap] through the journal and reset the
   log accounting. Called under [wlock] only; a raise inside
   [j_checkpoint] (injected fault, full disk) leaves the counters
   untouched — the log still covers everything since the last
   successful checkpoint, so recovery is unaffected. *)
let checkpoint_locked t j snap =
  let _bytes : int = j.j_checkpoint snap in
  Atomic.set t.last_ckpt (Snapshot.generation snap);
  Atomic.set t.wal_bytes 0;
  Atomic.set t.muts_since_ckpt 0

(* The single writer path. Under [wlock]: validate against the
   snapshot that will actually be mutated, build the successor index
   through the functional [Query_index.with_*] updates (the published
   snapshot is never touched), journal the mutation (write-ahead: a
   journal failure aborts before anything becomes visible), fold the
   outgoing generation's evaluation counts into the retired total,
   slide the retention ring, and publish. [Atomic.set] gives release
   semantics: a reader that acquires the new snapshot sees every write
   that built it. After publishing, a due automatic checkpoint
   ([j_every]) runs while the lock is still held. *)
let mutate t ~m validate f =
  with_mutex t.wlock (fun () ->
      let snap = Atomic.get t.current in
      let* () = validate snap in
      let index', r = f (Snapshot.index snap) in
      let snap' = Snapshot.next snap index' in
      (match Atomic.get t.journal with
      | None -> ()
      | Some j ->
          let bytes =
            j.j_append ~generation:(Snapshot.generation snap') m
          in
          ignore (Atomic.fetch_and_add t.wal_bytes bytes));
      let outgoing = Snapshot.eval_total snap in
      if outgoing > 0 then
        ignore (Atomic.fetch_and_add t.retired_evals outgoing);
      with_mutex t.slock (fun () ->
          let rec take n = function
            | [] -> []
            | _ when n <= 0 -> []
            | s :: rest -> s :: take (n - 1) rest
          in
          t.retained <- take t.keep (snap :: t.retained));
      Atomic.set t.current snap';
      (match Atomic.get t.journal with
      | None -> ()
      | Some j -> (
          match j.j_every with
          | Some every
            when 1 + Atomic.fetch_and_add t.muts_since_ckpt 1 >= every ->
              checkpoint_locked t j snap'
          | Some _ | None -> ()));
      Ok r)

let add_query t q =
  guard @@ fun () ->
  mutate t ~m:(M_add_query q)
    (fun snap ->
      let* () =
        check_dim
          ~expected:(Instance.dim (Snapshot.instance snap))
          ~got:(Vec.dim q.Topk.Query.weights)
      in
      let* () = check_finite "query weight" q.Topk.Query.weights in
      let depth = Query_index.depth (Snapshot.index snap) in
      if q.Topk.Query.k + 1 > depth then
        Error (Error.Depth_exceeded { k = q.Topk.Query.k; depth })
      else Ok ())
    (fun idx -> Query_index.with_query_added idx q)

let remove_query t q =
  guard @@ fun () ->
  mutate t ~m:(M_remove_query q)
    (fun snap -> check_query_in snap q)
    (fun idx -> (Query_index.with_query_removed idx q, ()))

let add_object t raw =
  guard @@ fun () ->
  mutate t ~m:(M_add_object raw)
    (fun snap -> check_object snap raw)
    (fun idx -> Query_index.with_object_added idx raw)

let update_object t id raw =
  guard @@ fun () ->
  mutate t ~m:(M_update_object { id; raw })
    (fun snap ->
      let* () = check_target_in snap id in
      check_object snap raw)
    (fun idx -> (Query_index.with_object_updated idx id raw, ()))

let remove_object t id =
  guard @@ fun () ->
  mutate t ~m:(M_remove_object id)
    (fun snap -> check_target_in snap id)
    (fun idx -> (Query_index.with_object_removed idx id, ()))

(* {2 Durability API} *)

let attach_journal ?(replayed_records = 0) ?checkpoint_generation
    ?(wal_bytes = 0) t j =
  Atomic.set t.replayed replayed_records;
  (match checkpoint_generation with
  | Some g -> Atomic.set t.last_ckpt g
  | None -> ());
  Atomic.set t.wal_bytes wal_bytes;
  Atomic.set t.muts_since_ckpt 0;
  Atomic.set t.journal (Some j)

let detach_journal t = Atomic.set t.journal None

let journaled t = Atomic.get t.journal <> None

let checkpoint t =
  guard @@ fun () ->
  with_mutex t.wlock (fun () ->
      match Atomic.get t.journal with
      | None -> Ok ()
      | Some j ->
          checkpoint_locked t j (Atomic.get t.current);
          Ok ())

let apply_mutation t m =
  match m with
  | M_add_object raw -> Result.map (fun (_ : int) -> ()) (add_object t raw)
  | M_update_object { id; raw } -> update_object t id raw
  | M_remove_object id -> remove_object t id
  | M_add_query q -> Result.map (fun (_ : int) -> ()) (add_query t q)
  | M_remove_query q -> remove_query t q

(* {2 Serving sessions: admission and snapshot pinning} *)

let pin t snap =
  let g = Snapshot.generation snap in
  with_mutex t.slock (fun () ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t.pins g) in
      Hashtbl.replace t.pins g (n + 1))

let unpin t snap =
  let g = Snapshot.generation snap in
  with_mutex t.slock (fun () ->
      match Hashtbl.find_opt t.pins g with
      | Some n when n <= 1 -> Hashtbl.remove t.pins g
      | Some n -> Hashtbl.replace t.pins g (n - 1)
      | None -> ())

(* Wait for an admission slot. OCaml's stdlib [Condition] has no timed
   wait, so a full queue polls: each miss checks the caller's budget
   (deadline/cancellation) and sleeps 1ms. A tripped budget while
   queued is an admission rejection — typed like any other deadline. *)
let acquire_slot t ~budget =
  let registered = ref false in
  let enter () =
    with_mutex t.alock (fun () ->
        if t.adm_active < t.adm_max then begin
          t.adm_active <- t.adm_active + 1;
          if !registered then t.adm_waiting <- t.adm_waiting - 1;
          true
        end
        else begin
          if not !registered then begin
            registered := true;
            t.adm_waiting <- t.adm_waiting + 1
          end;
          false
        end)
  in
  let give_up () =
    with_mutex t.alock (fun () ->
        if !registered then t.adm_waiting <- t.adm_waiting - 1)
  in
  let rec loop () =
    if enter () then Ok ()
    else
      match Resilience.Budget.check budget with
      | Some trip -> (
          give_up ();
          Atomic.incr t.rejections;
          match trip with
          | Resilience.Budget.Cancelled ->
              Error (Error.Cancelled { partial = None })
          | Resilience.Budget.Deadline { elapsed_ms } ->
              Error (Error.Deadline_exceeded { elapsed_ms; partial = None })
          | Resilience.Budget.Steps _ ->
              Error
                (Error.Deadline_exceeded
                   {
                     elapsed_ms = Resilience.Budget.elapsed_ms budget;
                     partial = None;
                   }))
      | None ->
          Unix.sleepf 0.001;
          loop ()
  in
  loop ()

let release_slot t =
  with_mutex t.alock (fun () -> t.adm_active <- Int.max 0 (t.adm_active - 1))

let acquire_session ?deadline_ms ?budget t =
  guard @@ fun () ->
  let budget = resolve_budget ?deadline_ms ?budget () in
  let* () = acquire_slot t ~budget in
  let snap = snapshot t in
  pin t snap;
  Ok snap

let release_session t snap =
  unpin t snap;
  release_slot t

let repin t snap =
  let snap' = snapshot t in
  if snap' != snap then begin
    pin t snap';
    unpin t snap
  end;
  snap'

(* {2 Stats} *)

type stats = {
  generation : int;
  backend : string;
  prune : bool;
  domains : int;
  n_objects : int;
  n_queries : int;
  n_groups : int;
  index_words : int;
  cached_targets : int;
  stale_cached : int;
  repreparations : int;
  evaluations : int;
  deadline_trips : int;
  cancellations : int;
  faults_injected : int;
  active_sessions : int;
  queue_depth : int;
  admission_rejections : int;
  pinned_snapshots : int;
  oldest_pinned : int option;
  wal_bytes : int;
  last_checkpoint_generation : int option;
  replayed_records : int;
}

let stats t =
  let snap = snapshot t in
  let gen = Snapshot.generation snap in
  let inst = Snapshot.instance snap in
  let cached, stale, pinned, oldest =
    with_mutex t.slock (fun () ->
        let cached, stale =
          Hashtbl.fold
            (fun _ g (c, s) -> (c + 1, if g <> gen then s + 1 else s))
            t.seen (0, 0)
        in
        let pinned = Hashtbl.length t.pins in
        let oldest =
          Hashtbl.fold
            (fun g _ acc ->
              match acc with Some o when o <= g -> acc | _ -> Some g)
            t.pins None
        in
        (cached, stale, pinned, oldest))
  in
  let live_evals = Snapshot.eval_total snap in
  let active, waiting =
    with_mutex t.alock (fun () -> (t.adm_active, t.adm_waiting))
  in
  {
    generation = gen;
    backend = backend_name t;
    prune = t.prune;
    domains = Parallel.domains t.pool;
    n_objects = Instance.n_objects inst;
    n_queries = Instance.n_queries inst;
    n_groups = Query_index.n_groups (Snapshot.index snap);
    index_words = Query_index.size_words (Snapshot.index snap);
    cached_targets = cached;
    stale_cached = stale;
    repreparations = Atomic.get t.repreps;
    evaluations = Atomic.get t.retired_evals + live_evals;
    deadline_trips = Atomic.get t.deadline_trips;
    cancellations = Atomic.get t.cancellations;
    faults_injected =
      (match t.fault with
      | None -> 0
      | Some f -> Resilience.Fault.injections f);
    active_sessions = active;
    queue_depth = waiting;
    admission_rejections = Atomic.get t.rejections;
    pinned_snapshots = pinned;
    oldest_pinned = oldest;
    wal_bytes = Atomic.get t.wal_bytes;
    last_checkpoint_generation =
      (let g = Atomic.get t.last_ckpt in
       if g < 0 then None else Some g);
    replayed_records = Atomic.get t.replayed;
  }
