(* End-to-end serving benchmark. One closed-loop client drives the
   served system from outside: CSV load -> Engine.create ->
   Store.attach -> one Serve.Session per request -> journaled
   mutations -> Store.detach -> Recovery.replay. See README.md for the
   workloads, the metric definitions and the layer map.

   Usage: main.exe --workload read-warm|churn --seed N --seconds S --trace 0|1

   The last line of stdout is one JSON object; with --trace 0 it holds
   the end-to-end metrics, with --trace 1 the per-layer metrics of a
   traced run (which first repeats the untraced run to report the
   tracing overhead and to check that both runs did identical work). *)

open Perfbench

(* Request parameters, the same for every workload and seed. With a
   candidate cap of 8 and room for 32 iterations, a Min-Cost request
   needs 8-19 iterations to reach tau, and almost every Max-Hit request
   spends all 32 iterations inside beta, so the number of evaluations per
   request varies by about 2x, not by orders of magnitude. *)
let tau = 20
let beta = 0.1
let candidate_cap = 8
let max_iterations = 32

(* Reads per run re-checked against the scan backend, evenly spaced,
   outside the timed sections. *)
let verified_reads = 6

let cost = Iq.Cost.euclidean Gen.dim
let now = Unix.gettimeofday
let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let failure_count () = List.length !failures

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Iq.Engine.Error.to_string e)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* --- one request ------------------------------------------------------ *)

type answer =
  | Answer of {
      hits_before : int;
      hits_after : int;
      iterations : int;
      evaluations : int;
      cost_spent : float;
      strategy : float array;
    }
  | Infeasible

let answer_to_string = function
  | Infeasible -> "infeasible"
  | Answer a -> Printf.sprintf "%d %d %d" a.hits_before a.hits_after a.iterations

let search engine_or_session kind target =
  let mc (o : Iq.Min_cost.outcome) =
    Answer
      {
        hits_before = o.hits_before;
        hits_after = o.hits_after;
        iterations = o.iterations;
        evaluations = o.evaluations;
        cost_spent = o.total_cost;
        strategy = o.strategy;
      }
  in
  let mh (o : Iq.Max_hit.outcome) =
    Answer
      {
        hits_before = o.hits_before;
        hits_after = o.hits_after;
        iterations = o.iterations;
        evaluations = o.evaluations;
        cost_spent = o.incremental_cost;
        strategy = o.strategy;
      }
  in
  match (engine_or_session, kind) with
  | `Session s, Gen.Min_cost -> (
      match Serve.Session.min_cost ~candidate_cap ~max_iterations s ~cost ~target ~tau with
      | Ok o -> Ok (mc o)
      | Error (Serve.Session.Error.Engine Iq.Engine.Error.Infeasible) -> Ok Infeasible
      | Error e -> Error (Serve.Session.Error.to_string e))
  | `Session s, Gen.Max_hit -> (
      match Serve.Session.max_hit ~candidate_cap ~max_iterations s ~cost ~target ~beta with
      | Ok o -> Ok (mh o)
      | Error e -> Error (Serve.Session.Error.to_string e))
  | `Engine e, Gen.Min_cost -> (
      match Iq.Engine.min_cost ~candidate_cap ~max_iterations e ~cost ~target ~tau with
      | Ok o -> Ok (mc o)
      | Error Iq.Engine.Error.Infeasible -> Ok Infeasible
      | Error e -> Error (Iq.Engine.Error.to_string e))
  | `Engine e, Gen.Max_hit -> (
      match Iq.Engine.max_hit ~candidate_cap ~max_iterations e ~cost ~target ~beta with
      | Ok o -> Ok (mh o)
      | Error e -> Error (Iq.Engine.Error.to_string e))

(* A request: open a session, search, close it. With tracing, the onion
   build (on a read after a write) and the evaluator prepare (on a
   target the snapshot has not prepared yet) are pulled out of the
   search into their own spans; both are memoised in the snapshot, so
   the search then reuses them. *)
let request tr ~req ~after_write ~cold engine kind target =
  Trace.span tr ~req "request" @@ fun () ->
  if after_write && Option.is_some tr then begin
    let snap = Iq.Engine.snapshot engine in
    Trace.span tr ~req "topk.onion_build" (fun () ->
        ignore (Iq.Snapshot.locked snap (fun () -> Iq.Snapshot.layers snap)))
  end;
  match Trace.span tr ~req "serve.session_open" (fun () -> Serve.Session.open_ engine) with
  | Error e -> Error (Serve.Session.Error.to_string e)
  | Ok sess ->
      Fun.protect
        ~finally:(fun () ->
          Trace.span tr ~req "serve.session_close" (fun () -> Serve.Session.close sess))
        (fun () ->
          if cold && Option.is_some tr then
            Trace.span tr ~req "core.prepare" (fun () ->
                ignore
                  (Iq.Engine.evaluator ~snap:(Serve.Session.snapshot sess) engine ~target));
          let name =
            match kind with
            | Gen.Min_cost -> "core.min_cost_search"
            | Gen.Max_hit -> "core.max_hit_search"
          in
          Trace.span tr ~req name (fun () -> search (`Session sess) kind target))

(* The goal of every answer: a Min-Cost answer reaches tau, a Max-Hit
   answer stays within beta. *)
let goal_met kind target = function
  | Infeasible -> true
  | Answer a -> (
      let where = Printf.sprintf "%s target %d" (Gen.kind_name kind) target in
      match kind with
      | Gen.Min_cost when a.hits_after < tau ->
          fail "%s: Min-Cost answer reaches %d < tau %d" where a.hits_after tau;
          false
      | Gen.Max_hit when a.cost_spent > beta +. 1e-9 ->
          fail "%s: Max-Hit spent %g > beta %g" where a.cost_spent beta;
          false
      | Gen.Min_cost | Gen.Max_hit -> true)

(* Re-run a request on a scan-backend engine over the same generation
   and re-evaluate the answer's strategy there; false on any mismatch. *)
let verify scan kind target answer =
  let before = failure_count () in
  let where = Printf.sprintf "%s target %d" (Gen.kind_name kind) target in
  (match (search (`Engine scan) kind target, answer) with
  | Error e, _ -> fail "%s: scan backend failed: %s" where e
  | Ok Infeasible, Infeasible -> ()
  | Ok (Answer s), Answer a ->
      let same =
        s.hits_before = a.hits_before
        && s.hits_after = a.hits_after
        && s.iterations = a.iterations
        && Array.for_all2 Float.equal s.strategy a.strategy
      in
      if not same then
        fail "%s: ese answered %s, scan %s" where (answer_to_string answer)
          (answer_to_string (Answer s));
      let ev = ok "scan evaluator" (Iq.Engine.evaluator scan ~target) in
      if ev.Iq.Evaluator.hit_count a.strategy <> a.hits_after then
        fail "%s: strategy re-evaluates to a different hit count" where
  | Ok s, a ->
      fail "%s: ese answered %s, scan %s" where (answer_to_string a) (answer_to_string s));
  failure_count () = before

(* --- one full run of the pipeline ------------------------------------- *)

type run = {
  setup_s : float array;
  recovery_s : float array;
  min_cost_ms : float array;  (** warm reads only *)
  max_hit_ms : float array;
  after_write_ms : float array;
  mutation_ms : float array;
  phase_s : float;
  attempted : int;
  ok_ops : int;  (** answered, and verified where sampled *)
  evaluations : int;
  iterations : int;
  improving : int;
  infeasible : int;
  min_cost_reads : int;
  prepares : int;
  onion_builds : int;
  warmup_onion_builds : int;  (** 1 when the warm-up built the onion *)
  warm_onion_builds : int;  (** builds on reads that follow no write *)
  onion_layers : int;
  wal_bytes : int;
  replay_records : int;
  disk_bytes : int;
  checkpoint_bytes : int;
  index_groups : int;
  domains : int;
  gc_minor_words : float;
  gc_major : int;
  outcome_digest : string;
}

let load_inputs ~obj_csv ~q_csv =
  let perr (`Parse_error e) = failwith (Workload.Loader.parse_error_to_string e) in
  let data =
    match Workload.Loader.load_objects obj_csv with Ok (_, d) -> d | Error e -> perr e
  in
  let queries =
    match Workload.Loader.load_queries q_csv with Ok q -> q | Error e -> perr e
  in
  (data, queries)

(* CSV load + Engine.create + Store.attach (which writes the initial
   checkpoint): the set-up a served deployment pays at start. *)
let setup tr ~obj_csv ~q_csv ~dir =
  Gc.compact ();
  rm_rf dir;
  let t0 = now () in
  let data, queries =
    Trace.span tr ~req:(-1) "workload.load" (fun () -> load_inputs ~obj_csv ~q_csv)
  in
  let engine =
    Trace.span tr ~req:(-1) "core.index_build" (fun () ->
        ok "Engine.create" (Iq.Engine.create (Iq.Instance.create ~data ~queries ())))
  in
  let store =
    Trace.span tr ~req:(-1) "durable.attach" (fun () ->
        ok "Store.attach" (Durable.Store.attach ~dir engine))
  in
  (now () -. t0, data, engine, store)

(* A scan-backend engine over one generation, rebuilt when the
   generation moves on. *)
let scan_engines () =
  let cur = ref None in
  fun snap ->
    let gen = Iq.Snapshot.generation snap in
    match !cur with
    | Some (g, e) when g = gen -> e
    | Some _ | None ->
        let e =
          ok "scan engine"
            (Iq.Engine.of_index
               ~backend:(module Iq.Engine.Scan_backend : Iq.Engine.BACKEND)
               ~prune:false (Iq.Snapshot.index snap))
        in
        cur := Some (gen, e);
        e

let write_op tr ~req engine (g : Gen.t) = function
  | Gen.Update { id; raw } ->
      Trace.span tr ~req "core.update_object" (fun () ->
          Iq.Engine.update_object engine id raw)
  | Gen.Add_query { k; weights } ->
      Trace.span tr ~req "core.add_query" (fun () ->
          Result.map ignore
            (Iq.Engine.add_query engine (Topk.Query.make ~id:(g.shape.m + req) ~k weights)))
  | Gen.Remove_query q ->
      Trace.span tr ~req "core.remove_query" (fun () -> Iq.Engine.remove_query engine q)
  | Gen.Read _ -> Ok ()

let run_pipeline ~repeats tr (g : Gen.t) ~root =
  let obj_csv = Filename.concat root "objects.csv"
  and q_csv = Filename.concat root "queries.csv" in
  let store_dir i = Filename.concat root (Printf.sprintf "store-%d" i) in
  (* Set up [repeats] times; the last engine serves the run. *)
  let setup_s = Array.make repeats 0. in
  let rec setups i =
    let s, data, engine, store = setup tr ~obj_csv ~q_csv ~dir:(store_dir i) in
    setup_s.(i) <- s;
    if i = repeats - 1 then (data, engine, store, store_dir i)
    else begin
      Durable.Store.detach store;
      rm_rf (store_dir i);
      setups (i + 1)
    end
  in
  let data, engine, store, dir = setups 0 in
  if
    Array.length data <> Array.length g.data
    || not (Array.for_all2 (Array.for_all2 Float.equal) data g.data)
  then fail "loaded objects differ from the generated ones";
  let checkpoint_bytes = dir_bytes dir in
  (* Untimed warm-up: prepare every hot target (which builds the onion),
     then compact the heap. *)
  let onion_built () = Option.is_some (Iq.Snapshot.onion_layers (Iq.Engine.snapshot engine)) in
  let built_before = onion_built () in
  let warm_up () =
    Array.iter (fun target -> ignore (ok "warm-up" (Iq.Engine.evaluator engine ~target))) g.hot
  in
  warm_up ();
  let warmup_onion_builds = Bool.to_int (onion_built () && not built_before) in
  Gc.compact ();
  let classes = Stats.classify Gen.is_write g.ops in
  let mc = ref [] and mh = ref [] and raw = ref [] and mut = ref [] in
  let ok_ops = ref 0 and evaluations = ref 0 and iterations = ref 0 in
  let improving = ref 0 and infeasible = ref 0 and mc_reads = ref 0 in
  let prepares = ref 0 and onion_builds = ref 0 and warm_onion_builds = ref 0 in
  let reads = ref 0 in
  (* Time spent on bookkeeping and verification inside the measured
     phase, taken out of its wall time. *)
  let paused = ref 0. in
  let digest = Buffer.create 4096 in
  let scan_for = scan_engines () in
  let all_reads = Array.fold_left (fun n op -> if Gen.is_write op then n else n + 1) 0 g.ops in
  let verify_stride = Int.max 1 (all_reads / verified_reads) in
  let wal0 = (Iq.Engine.stats engine).wal_bytes in
  let gc0 = Gc.quick_stat () in
  let t_start = now () in
  Array.iteri
    (fun i op ->
      let p0 = now () in
      match (op, classes.(i)) with
      | Gen.Read { kind; target }, Some cls ->
          let snap = Iq.Engine.snapshot engine in
          if Option.is_none (Iq.Snapshot.onion_layers snap) then begin
            incr onion_builds;
            if cls = Stats.Warm then incr warm_onion_builds
          end;
          let cold =
            Option.is_none
              (Iq.Snapshot.locked snap (fun () -> Iq.Snapshot.find_entry snap target))
          in
          if cold then incr prepares;
          if kind = Gen.Min_cost then incr mc_reads;
          let after_write = cls = Stats.After_write in
          let t0 = now () in
          let res = request tr ~req:i ~after_write ~cold engine kind target in
          let t1 = now () in
          let ms = 1000. *. (t1 -. t0) in
          (match (cls, kind) with
          | Stats.After_write, _ -> raw := ms :: !raw
          | Stats.Warm, Gen.Min_cost -> mc := ms :: !mc
          | Stats.Warm, Gen.Max_hit -> mh := ms :: !mh);
          (match res with
          | Error e -> fail "op %d (%s): %s" i (Gen.op_to_string op) e
          | Ok a ->
              Printf.bprintf digest "%d %s %d %s\n" i (Gen.kind_name kind) target
                (answer_to_string a);
              (match a with
              | Infeasible -> incr infeasible
              | Answer a ->
                  evaluations := !evaluations + a.evaluations;
                  iterations := !iterations + a.iterations;
                  if a.hits_after > a.hits_before then incr improving);
              if
                goal_met kind target a
                && ((!reads + 1) mod verify_stride <> 0 || verify (scan_for snap) kind target a)
              then incr ok_ops);
          if after_write && g.shape.rewarm then warm_up ();
          incr reads;
          paused := !paused +. (t0 -. p0) +. (now () -. t1)
      | (Gen.Update _ | Gen.Add_query _ | Gen.Remove_query _ | Gen.Read _), _ ->
          let t0 = now () in
          let res = write_op tr ~req:i engine g op in
          let t1 = now () in
          mut := (1000. *. (t1 -. t0)) :: !mut;
          (match res with
          | Ok () ->
              incr ok_ops;
              Printf.bprintf digest "%d w\n" i
          | Error e ->
              fail "op %d (%s): %s" i (Gen.op_to_string op) (Iq.Engine.Error.to_string e));
          paused := !paused +. (t0 -. p0) +. (now () -. t1))
    g.ops;
  let phase_s = now () -. t_start -. !paused in
  let gc1 = Gc.quick_stat () in
  let st = Iq.Engine.stats engine in
  let onion_layers =
    Option.value ~default:0 (Iq.Snapshot.onion_layers (Iq.Engine.snapshot engine))
  in
  let hits e target = ok "hits" (Iq.Engine.hits e ~target) in
  let writer_generation = Iq.Engine.generation engine in
  let writer_hits = Array.map (hits engine) g.hot in
  Durable.Store.detach store;
  let disk_bytes = dir_bytes dir in
  (* Recover [repeats] times from the same directory; the first
     recovered engine must match the writer. Nothing below refers to
     the writer's engine, so recovery runs without its heap, as it
     would in a restarted process. *)
  let replay_records = ref 0 in
  let recovery_s =
    Array.init repeats (fun i ->
        Gc.compact ();
        if Option.is_some tr then
          Trace.span tr ~req:(-1) "durable.checkpoint_read" (fun () ->
              match Durable.Checkpoint.read (Durable.Checkpoint.path_in dir) with
              | Ok _ -> ()
              | Error e -> fail "Checkpoint.read: %s" e);
        let t0 = now () in
        let recovered, report =
          Trace.span tr ~req:(-1) "durable.replay" (fun () ->
              ok "Recovery.replay" (Durable.Recovery.replay dir))
        in
        let s = now () -. t0 in
        replay_records := report.r_replayed;
        if i = 0 then begin
          let before = failure_count () in
          if Iq.Engine.generation recovered <> writer_generation then
            fail "recovered generation %d, writer at %d"
              (Iq.Engine.generation recovered) writer_generation;
          Array.iteri
            (fun i target ->
              let h = hits recovered target in
              if h <> writer_hits.(i) then
                fail "target %d: recovered hits %d, writer %d" target h writer_hits.(i))
            g.hot;
          (* A mismatch means the journaled writes were not durable. *)
          if failure_count () > before then ok_ops := !ok_ops - List.length !mut
        end;
        s)
  in
  {
    setup_s;
    recovery_s;
    min_cost_ms = Array.of_list !mc;
    max_hit_ms = Array.of_list !mh;
    after_write_ms = Array.of_list !raw;
    mutation_ms = Array.of_list !mut;
    phase_s;
    attempted = Array.length g.ops;
    ok_ops = !ok_ops;
    evaluations = !evaluations;
    iterations = !iterations;
    improving = !improving;
    infeasible = !infeasible;
    min_cost_reads = !mc_reads;
    prepares = !prepares;
    onion_builds = !onion_builds;
    warmup_onion_builds;
    warm_onion_builds = !warm_onion_builds;
    onion_layers;
    wal_bytes = st.wal_bytes - wal0;
    replay_records = !replay_records;
    disk_bytes;
    checkpoint_bytes;
    index_groups = st.n_groups;
    domains = st.domains;
    gc_minor_words = gc1.minor_words -. gc0.minor_words;
    gc_major = gc1.major_collections - gc0.major_collections;
    outcome_digest = Digest.to_hex (Digest.string (Buffer.contents digest));
  }

(* --- reporting -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name value unit_ = { name; value; unit_; note }

(* [<prefix>_p50_ms] and [<prefix>_tail_ms] of one latency class. *)
let latency prefix a =
  let n = Array.length a in
  let p = Stats.tail_percentile n in
  [
    metric (prefix ^ "_p50_ms") (Stats.median a) "ms" ~note:(Printf.sprintf "n=%d" n);
    metric (prefix ^ "_tail_ms") (Stats.percentile p a) "ms"
      ~note:(Printf.sprintf "n=%d p%g" n p);
  ]

let end_to_end (g : Gen.t) r =
  let data_bytes = 8 * ((g.shape.n * Gen.dim) + (g.shape.m * (Gen.dim + 1))) in
  let n_raw = Array.length r.after_write_ms in
  [
    metric "setup_s" (Stats.median r.setup_s) "s"
      ~note:(Printf.sprintf "n=%d" (Array.length r.setup_s));
    metric "throughput_ops_s"
      (float_of_int r.attempted /. r.phase_s)
      "ops/s"
      ~note:(Printf.sprintf "%d ops in %.3f s" r.attempted r.phase_s);
  ]
  @ latency "min_cost" r.min_cost_ms
  @ latency "max_hit" r.max_hit_ms
  @ [
      metric "read_after_write_p50_ms" (Stats.median r.after_write_ms) "ms"
        ~note:(Printf.sprintf "n=%d" n_raw);
    ]
  @ latency "mutation" r.mutation_ms
  @ [
      metric "recovery_s" (Stats.median r.recovery_s) "s"
        ~note:(Printf.sprintf "n=%d, %d records" (Array.length r.recovery_s) r.replay_records);
      metric "disk_bytes_per_data_byte"
        (float_of_int r.disk_bytes /. float_of_int data_bytes)
        "ratio"
        ~note:(Printf.sprintf "%d / %d bytes" r.disk_bytes data_bytes);
      metric "peak_heap_mb"
        (float_of_int ((Gc.quick_stat ()).top_heap_words * 8) /. 1048576.)
        "MB";
      metric "ok_op_ratio"
        (float_of_int r.ok_ops /. float_of_int r.attempted)
        "ratio"
        ~note:(Printf.sprintf "%d / %d" r.ok_ops r.attempted);
    ]

let per_layer tr ~untraced r =
  let spans name = Trace.named tr name in
  let self_ms name = Array.of_list (List.map (fun s -> 1000. *. Trace.self_s s) (spans name)) in
  let med name = match self_ms name with [||] -> 0. | a -> Stats.median a in
  let sum name = Array.fold_left ( +. ) 0. (self_ms name) in
  let kb name = List.fold_left (fun acc s -> acc +. (s.Trace.minor_words *. 8. /. 1024.)) 0. (spans name) in
  let per a b = if b = 0 then 0. else a /. float_of_int b in
  let mutations = Array.length r.mutation_ms in
  let reads = r.attempted - mutations in
  let search = [ "core.min_cost_search"; "core.max_hit_search" ] in
  let total f names = List.fold_left (fun acc n -> acc +. f n) 0. names in
  (* Shares of the median read-after-write request, over the requests
     that carry an onion span. *)
  let raw_reqs = List.map (fun s -> s.Trace.req) (spans "topk.onion_build") in
  let in_raw f name =
    Array.of_list
      (List.filter_map
         (fun s -> if List.mem s.Trace.req raw_reqs then Some (1000. *. f s) else None)
         (spans name))
  in
  let raw_ms = Stats.median (in_raw Trace.duration "request") in
  let share name =
    match in_raw Trace.self_s name with [||] -> 0. | a -> Stats.median a /. raw_ms
  in
  let raw_note = Printf.sprintf "of the median read after a write, %.2f ms" raw_ms in
  let count name v = metric name (float_of_int v) "count" in
  [
    metric "workload.load_ms" (med "workload.load") "ms";
    metric "core.index_build_ms" (med "core.index_build") "ms";
    count "core.index_groups" r.index_groups;
    metric "durable.attach_ms" (med "durable.attach") "ms";
    metric "durable.checkpoint_bytes" (float_of_int r.checkpoint_bytes) "B";
    metric "serve.session_open_us" (1000. *. med "serve.session_open") "us";
    metric "serve.session_close_us" (1000. *. med "serve.session_close") "us";
    metric "topk.onion_build_ms" (med "topk.onion_build") "ms";
    metric "topk.onion_builds" (float_of_int r.onion_builds) "count"
      ~note:
        (Printf.sprintf "warm-up %d, warm reads %d, reads after a write %d"
           r.warmup_onion_builds r.warm_onion_builds
           (r.onion_builds - r.warm_onion_builds));
    count "topk.onion_layers" r.onion_layers;
    metric "topk.onion_share_of_raw" (share "topk.onion_build") "ratio" ~note:raw_note;
    metric "core.prepare_ms" (med "core.prepare") "ms";
    count "core.prepares" r.prepares;
    metric "core.evaluator_reuse_ratio" (1. -. per (float_of_int r.prepares) reads) "ratio";
    metric "core.prepare_share_of_raw" (share "core.prepare") "ratio" ~note:raw_note;
    metric "core.min_cost_search_ms" (med "core.min_cost_search") "ms";
    metric "core.max_hit_search_ms" (med "core.max_hit_search") "ms";
    metric "core.evals_per_request" (per (float_of_int r.evaluations) reads) "count";
    metric "core.iterations_per_request" (per (float_of_int r.iterations) reads) "count";
    metric "core.us_per_eval" (1000. *. per (total sum search) r.evaluations) "us";
    metric "core.alloc_kb_per_eval" (per (total kb search) r.evaluations) "kB";
    metric "core.improving_ratio" (per (float_of_int r.improving) reads) "ratio";
    metric "core.infeasible_ratio" (per (float_of_int r.infeasible) r.min_cost_reads) "ratio";
    metric "core.update_object_ms" (med "core.update_object") "ms";
    metric "core.add_query_ms" (med "core.add_query") "ms";
    metric "core.remove_query_ms" (med "core.remove_query") "ms";
    metric "core.mutation_alloc_kb"
      (per (total kb [ "core.update_object"; "core.add_query"; "core.remove_query" ]) mutations)
      "kB";
    metric "durable.wal_bytes_per_mutation" (per (float_of_int r.wal_bytes) mutations) "B";
    metric "durable.checkpoint_read_ms" (med "durable.checkpoint_read") "ms";
    metric "durable.replay_ms" (med "durable.replay") "ms";
    count "durable.replay_records" r.replay_records;
    metric "gc.minor_mb" (r.gc_minor_words *. 8. /. 1048576.) "MB";
    count "gc.major_collections" r.gc_major;
    count "parallel.domains" r.domains;
    metric "trace.overhead_pct" (100. *. ((r.phase_s /. untraced.phase_s) -. 1.)) "%";
  ]

(* The work a run did, as exact counts: a traced run must repeat them. *)
let counts r =
  Printf.sprintf
    "evaluations=%d iterations=%d prepares=%d onion_builds=%d wal_bytes=%d \
     replay_records=%d outcomes=%s"
    r.evaluations r.iterations r.prepares r.onion_builds r.wal_bytes r.replay_records
    r.outcome_digest

let json ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (num m.value) m.unit_)
          metrics))

let print_knobs () =
  let module C = Workload.Config in
  let opt f = function Some v -> f v | None -> "none" in
  Printf.printf
    "knobs: IQ_BACKEND=%s IQ_DOMAINS=%d IQ_PRUNE=%b IQ_WAL_SYNC=%s IQ_CHECKPOINT_EVERY=%s \
     IQ_SNAPSHOT_KEEP=%d IQ_MAX_SESSIONS=%d IQ_DEADLINE_MS=%s IQ_RETRIES=%d IQ_FAULT=%s\n"
    (C.backend ()) (C.domains ()) (C.prune ()) (C.wal_sync ())
    (opt string_of_int (C.checkpoint_every ()))
    (C.snapshot_keep ()) (C.max_sessions ())
    (opt string_of_float (C.deadline_ms ()))
    (C.retries ())
    (opt Fun.id (C.fault ()))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "read-warm | churn");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let shape =
    match Gen.shape ~name:!workload ~seconds:!seconds with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let root =
    Filename.concat ".perfbench" (Printf.sprintf "%s-%d-%d" shape.name !seed (Unix.getpid ()))
  in
  rm_rf root;
  mkdir_p root;
  let g = Gen.make shape ~seed:!seed in
  Gen.write_objects (Filename.concat root "objects.csv") g.data;
  Gen.write_queries (Filename.concat root "queries.csv") g.queries;
  let writes = Array.fold_left (fun acc op -> if Gen.is_write op then acc + 1 else acc) 0 g.ops in
  Printf.printf "workload %s seed %d: n=%d m=%d d=%d, %d hot targets, %d ops (%d writes)\n"
    shape.name !seed shape.n shape.m Gen.dim (Array.length g.hot) (Array.length g.ops) writes;
  Printf.printf "requests: tau=%d beta=%g candidate_cap=%d max_iterations=%d cost=euclidean\n"
    tau beta candidate_cap max_iterations;
  print_knobs ();
  Printf.printf "op digest %s\n%!" (Gen.digest_ops g.ops);
  (* A traced run repeats the untraced run first, with one setup and
     one recovery each, to measure the tracing overhead and to check
     that tracing changed no count. *)
  let repeats = if !trace = 0 then shape.repeats else 1 in
  let untraced = run_pipeline ~repeats None g ~root in
  Printf.printf "untraced: %s\n%!" (counts untraced);
  let metrics =
    if !trace = 0 then end_to_end g untraced
    else begin
      let tr = Trace.create () in
      let traced = run_pipeline ~repeats (Some tr) g ~root in
      Printf.printf "traced:   %s\n" (counts traced);
      if not (String.equal (counts traced) (counts untraced)) then
        fail "the traced run did different work than the untraced run";
      let path =
        Filename.concat ".perfbench" (Printf.sprintf "trace-%s-%d.jsonl" shape.name !seed)
      in
      Trace.write tr path;
      Printf.printf "spans: %s\n" path;
      per_layer tr ~untraced traced
    end
  in
  rm_rf root;
  List.iter
    (fun m -> Printf.printf "  %-30s %14.4f %-6s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev !failures);
  let correct = !failures = [] in
  print_endline
    (json ~correct ~attempted:untraced.attempted
       ~failed:(untraced.attempted - untraced.ok_ops)
       metrics);
  if not correct then exit 1
