(* The analytic tool of Section 6.1 as a command-line program.

   Workflow (mirrors the paper's GUI):
     iq_tool gen-data    --kind IN --count 5000 --dim 3 --out objects.csv
     iq_tool gen-queries --kind UN --count 500 --dim 3 --out queries.csv
     iq_tool stats   --data objects.csv --queries queries.csv
     iq_tool sql     --data objects.csv --exec "SELECT COUNT(*) FROM data"
     iq_tool mincost --data objects.csv --queries queries.csv \
                     --target 17 --tau 25 --cost euclidean
     iq_tool maxhit  --data objects.csv --queries queries.csv \
                     --target 17 --target 40 --beta 0.5

   Query CSV format: a "k" column followed by weight columns. *)

open Cmdliner

(* --- shared loading helpers ----------------------------------------- *)

(* Malformed input is a user error, not a crash: print the offending
   file:line and exit 2 (1 is cmdliner's own usage-error code). *)
let parse_error_exit e =
  prerr_endline
    ("iq_tool: parse error: " ^ Workload.Loader.parse_error_to_string e);
  exit 2

let load_objects path =
  match Workload.Loader.load_objects path with
  | Ok v -> v
  | Error (`Parse_error e) -> parse_error_exit e

let load_queries path =
  match Workload.Loader.load_queries path with
  | Ok v -> v
  | Error (`Parse_error e) -> parse_error_exit e

let cost_of_name name d =
  match name with
  | "euclidean" -> Iq.Cost.euclidean d
  | "l1" -> Iq.Cost.l1 d
  | other -> failwith ("unknown cost function: " ^ other)

let order_of_name = function
  | "asc" -> Topk.Utility.Asc
  | "desc" -> Topk.Utility.Desc
  | other -> failwith ("unknown order: " ^ other)

let ok_or_die = function
  | Ok v -> v
  | Error e -> failwith (Iq.Engine.Error.to_string e)

(* Searches run through a serving session (pinning a snapshot, passing
   admission control) rather than hitting the engine directly; the
   session layer can only add lifecycle misuses we never commit, so
   anything except an engine error is a bug worth dying loudly on. *)
let to_engine_result = function
  | Ok _ as r -> r
  | Error (Serve.Session.Error.Engine e) -> Error e
  | Error e -> failwith (Serve.Session.Error.to_string e)

let in_session engine f =
  match Serve.Session.with_session engine (fun sess -> Ok (f sess)) with
  | Ok () -> ()
  | Error e -> failwith (Serve.Session.Error.to_string e)

(* The fault schedule is parsed here, not left to Engine.create: a
   malformed IQ_FAULT is a user config error (stderr + exit 2, like a
   parse error) rather than an engine error. *)
let fault_of_env () =
  match Resilience.Fault.of_env () with
  | Error msg ->
      prerr_endline ("iq_tool: bad IQ_FAULT: " ^ msg);
      exit 2
  | Ok fault -> fault

let build_engine ~order data queries =
  let inst =
    Iq.Instance.create ~order:(order_of_name order) ~data ~queries ()
  in
  let engine = ok_or_die (Iq.Engine.create ?fault:(fault_of_env ()) inst) in
  (* Everything in this process serves off the one shared pool the
     engine borrowed from Parallel.default — creating another would
     oversubscribe the cores. *)
  assert (Parallel.live () = 1);
  engine

(* --- common options -------------------------------------------------- *)

let data_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "data" ] ~docv:"CSV" ~doc:"Object dataset (CSV with header).")

let queries_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "queries" ] ~docv:"CSV"
        ~doc:"Top-k query workload (CSV: k column + weight columns).")

let targets_arg =
  Arg.(
    non_empty & opt_all int []
    & info [ "target" ] ~docv:"ID"
        ~doc:"Target object id (row number); repeatable for combinatorial \
              improvement.")

let cost_arg =
  Arg.(
    value & opt string "euclidean"
    & info [ "cost" ] ~docv:"NAME" ~doc:"Cost function: euclidean | l1.")

let order_arg =
  Arg.(
    value & opt string "asc"
    & info [ "order" ] ~docv:"ORDER"
        ~doc:"asc (lowest score wins, default) or desc (highest wins).")

let cap_arg =
  Arg.(
    value & opt (some int) (Some 128)
    & info [ "candidate-cap" ] ~docv:"N"
        ~doc:"Evaluate only the N cheapest candidate steps per iteration \
              (0 = no cap).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline for the search; on expiry the best \
           strategy found so far is reported as a degraded partial \
           result. Overrides IQ_DEADLINE_MS.")

let normalize_cap = function Some 0 -> None | c -> c

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Durable directory (write-ahead log + checkpoint). Every \
           mutation is journaled there before it is acknowledged; after \
           a crash, $(b,iq_tool recover --wal) $(i,DIR) rebuilds the \
           engine. Sync discipline and checkpoint cadence come from \
           IQ_WAL_SYNC and IQ_CHECKPOINT_EVERY.")

(* --- gen-data --------------------------------------------------------- *)

let gen_data kind n d seed out =
  let rng = Workload.Rng.make seed in
  let points =
    match String.uppercase_ascii kind with
    | "IN" -> Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d
    | "CO" -> Workload.Datagen.generate rng Workload.Datagen.Correlated ~n ~d
    | "AC" ->
        Workload.Datagen.generate rng Workload.Datagen.Anticorrelated ~n ~d
    | "VEHICLE" -> Workload.Datagen.vehicle rng ~n ()
    | "HOUSE" -> Workload.Datagen.house rng ~n ()
    | other -> failwith ("unknown data kind: " ^ other)
  in
  Relation.Csv.save_file out (Relation.Table.of_points points);
  Printf.printf "wrote %d objects (%d attributes) to %s\n" (Array.length points)
    (if Array.length points = 0 then 0 else Array.length points.(0))
    out

let gen_data_cmd =
  let kind =
    Arg.(
      value & opt string "IN"
      & info [ "kind" ] ~docv:"KIND" ~doc:"IN | CO | AC | vehicle | house.")
  in
  let n = Arg.(value & opt int 10_000 & info [ "count" ] ~doc:"Object count.") in
  let d = Arg.(value & opt int 3 & info [ "dim" ] ~doc:"Attribute count.") in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"CSV" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "gen-data" ~doc:"Generate a synthetic object dataset")
    Term.(const gen_data $ kind $ n $ d $ seed_arg $ out)

(* --- gen-queries ------------------------------------------------------ *)

let gen_queries kind m d kmin kmax seed out =
  let rng = Workload.Rng.make seed in
  let qkind =
    match String.uppercase_ascii kind with
    | "UN" -> Workload.Querygen.Uniform
    | "CL" -> Workload.Querygen.Clustered
    | other -> failwith ("unknown query kind: " ^ other)
  in
  let queries =
    Workload.Querygen.linear rng qkind ~k_range:(kmin, kmax) ~m ~d ()
  in
  Workload.Loader.save_queries out queries;
  Printf.printf "wrote %d queries to %s\n" m out

let gen_queries_cmd =
  let kind =
    Arg.(value & opt string "UN" & info [ "kind" ] ~doc:"UN | CL.")
  in
  let m = Arg.(value & opt int 1_000 & info [ "count" ] ~doc:"Query count.") in
  let d = Arg.(value & opt int 3 & info [ "dim" ] ~doc:"Weight dimensions.") in
  let kmin = Arg.(value & opt int 1 & info [ "kmin" ] ~doc:"Smallest k.") in
  let kmax = Arg.(value & opt int 50 & info [ "kmax" ] ~doc:"Largest k.") in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"CSV" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "gen-queries" ~doc:"Generate a top-k query workload")
    Term.(const gen_queries $ kind $ m $ d $ kmin $ kmax $ seed_arg $ out)

(* --- sql --------------------------------------------------------------- *)

let run_sql data_path table_name statements =
  let table = Relation.Csv.load_file data_path in
  let catalog = Relation.Catalog.create () in
  Relation.Catalog.add catalog table_name table;
  List.iter
    (fun stmt ->
      Printf.printf "sql> %s\n" stmt;
      match Sql.Executor.query catalog stmt with
      | result -> Format.printf "%a@." Sql.Executor.pp_result result
      | exception Sql.Executor.Error m -> Printf.printf "error: %s\n" m)
    statements

let sql_cmd =
  let table_name =
    Arg.(
      value & opt string "data"
      & info [ "table" ] ~docv:"NAME" ~doc:"Table name for the loaded CSV.")
  in
  let stmts =
    Arg.(
      non_empty & opt_all string []
      & info [ "exec"; "e" ] ~docv:"SQL" ~doc:"Statement to run (repeatable).")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run SQL against a CSV-loaded table")
    Term.(const run_sql $ data_arg $ table_name $ stmts)

(* --- stats ------------------------------------------------------------- *)

let run_stats data_path queries_path order =
  let _, data = load_objects data_path in
  let queries = load_queries queries_path in
  let engine = build_engine ~order data queries in
  let st = Iq.Engine.stats engine in
  let index = Iq.Engine.index engine in
  Printf.printf "objects:           %d\n" st.Iq.Engine.n_objects;
  Printf.printf "queries:           %d\n" st.Iq.Engine.n_queries;
  Printf.printf "subdomain groups:  %d\n" st.Iq.Engine.n_groups;
  Printf.printf "prefix depth:      %d\n" (Iq.Query_index.depth index);
  Printf.printf "candidate rivals:  %d\n"
    (Array.length (Iq.Query_index.candidate_rivals index));
  Printf.printf "index size:        %d words\n" st.Iq.Engine.index_words;
  Printf.printf "build time:        %.3f s\n"
    (Iq.Query_index.build_seconds index);
  Printf.printf "backend:           %s\n" st.Iq.Engine.backend;
  Printf.printf "pool domains:      %d\n" st.Iq.Engine.domains

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Build the Efficient-IQ index and print statistics")
    Term.(const run_stats $ data_arg $ queries_arg $ order_arg)

(* --- mincost / maxhit --------------------------------------------------- *)

let print_strategy prefix s =
  Printf.printf "%s[%s]\n" prefix
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%+.6f") s)))

let print_partial = function
  | None -> Printf.printf "no partial result\n"
  | Some p ->
      Printf.printf "degraded partial: %d hits at cost %.6f (%d iterations)\n"
        p.Iq.Engine.p_hits p.Iq.Engine.p_total_cost p.Iq.Engine.p_iterations;
      List.iter
        (fun (t, s) -> print_strategy (Printf.sprintf "target %d: " t) s)
        p.Iq.Engine.p_strategies

let run_mincost data_path queries_path targets tau cost_name order cap
    deadline =
  let _, data = load_objects data_path in
  let queries = load_queries queries_path in
  let engine = build_engine ~order data queries in
  let d = Iq.Instance.dim (Iq.Engine.instance engine) in
  let cost = cost_of_name cost_name d in
  let cap = normalize_cap cap in
  in_session engine @@ fun sess ->
  match targets with
  | [ target ] -> (
      match
        to_engine_result
          (Serve.Session.min_cost ?candidate_cap:cap ?deadline_ms:deadline sess
             ~cost ~target ~tau)
      with
      | Error Iq.Engine.Error.Infeasible ->
          Printf.printf "tau = %d is unreachable\n" tau
      | Error (Iq.Engine.Error.Deadline_exceeded { elapsed_ms; partial }) ->
          Printf.printf "deadline exceeded after %.1f ms\n" elapsed_ms;
          print_partial partial
      | Error (Iq.Engine.Error.Cancelled { partial }) ->
          Printf.printf "cancelled\n";
          print_partial partial
      | Error e -> Printf.printf "error: %s\n" (Iq.Engine.Error.to_string e)
      | Ok o ->
          Printf.printf "target %d: H = %d\n" target o.Iq.Min_cost.hits_before;
          Printf.printf "hits: %d -> %d, cost %.6f (%d iterations, %d evals)\n"
            o.Iq.Min_cost.hits_before o.Iq.Min_cost.hits_after
            o.Iq.Min_cost.total_cost o.Iq.Min_cost.iterations
            o.Iq.Min_cost.evaluations;
          print_strategy "strategy: " o.Iq.Min_cost.strategy)
  | targets -> (
      let costs = List.map (fun t -> (t, cost)) targets in
      match
        to_engine_result
          (Serve.Session.min_cost_multi ?candidate_cap:cap
             ?deadline_ms:deadline sess ~costs ~tau)
      with
      | Error Iq.Engine.Error.Infeasible ->
          Printf.printf "tau = %d is unreachable\n" tau
      | Error (Iq.Engine.Error.Deadline_exceeded { elapsed_ms; partial }) ->
          Printf.printf "deadline exceeded after %.1f ms\n" elapsed_ms;
          print_partial partial
      | Error (Iq.Engine.Error.Cancelled { partial }) ->
          Printf.printf "cancelled\n";
          print_partial partial
      | Error e -> Printf.printf "error: %s\n" (Iq.Engine.Error.to_string e)
      | Ok o ->
          Printf.printf "union hits: %d -> %d, total cost %.6f\n"
            o.Iq.Combinatorial.union_hits_before
            o.Iq.Combinatorial.union_hits_after o.Iq.Combinatorial.total_cost;
          List.iter
            (fun (t, s) -> print_strategy (Printf.sprintf "target %d: " t) s)
            o.Iq.Combinatorial.strategies)

let mincost_cmd =
  let tau =
    Arg.(
      required
      & opt (some int) None
      & info [ "tau" ] ~docv:"N" ~doc:"Desired number of hit queries.")
  in
  Cmd.v
    (Cmd.info "mincost" ~doc:"Min-Cost Improvement Query (Algorithm 3)")
    Term.(
      const run_mincost $ data_arg $ queries_arg $ targets_arg $ tau $ cost_arg
      $ order_arg $ cap_arg $ deadline_arg)

let run_maxhit data_path queries_path targets beta cost_name order cap
    deadline =
  let _, data = load_objects data_path in
  let queries = load_queries queries_path in
  let engine = build_engine ~order data queries in
  let d = Iq.Instance.dim (Iq.Engine.instance engine) in
  let cost = cost_of_name cost_name d in
  let cap = normalize_cap cap in
  in_session engine @@ fun sess ->
  match targets with
  | [ target ] -> (
      match
        to_engine_result
          (Serve.Session.max_hit ?candidate_cap:cap ?deadline_ms:deadline sess
             ~cost ~target ~beta)
      with
      | Error (Iq.Engine.Error.Deadline_exceeded { elapsed_ms; partial }) ->
          Printf.printf "deadline exceeded after %.1f ms\n" elapsed_ms;
          print_partial partial
      | Error (Iq.Engine.Error.Cancelled { partial }) ->
          Printf.printf "cancelled\n";
          print_partial partial
      | Error e -> Printf.printf "error: %s\n" (Iq.Engine.Error.to_string e)
      | Ok o ->
          Printf.printf "hits: %d -> %d, spent %.6f of %.6f\n"
            o.Iq.Max_hit.hits_before o.Iq.Max_hit.hits_after
            o.Iq.Max_hit.incremental_cost beta;
          print_strategy "strategy: " o.Iq.Max_hit.strategy)
  | targets -> (
      let costs = List.map (fun t -> (t, cost)) targets in
      match
        to_engine_result
          (Serve.Session.max_hit_multi ?candidate_cap:cap
             ?deadline_ms:deadline sess ~costs ~beta)
      with
      | Error (Iq.Engine.Error.Deadline_exceeded { elapsed_ms; partial }) ->
          Printf.printf "deadline exceeded after %.1f ms\n" elapsed_ms;
          print_partial partial
      | Error (Iq.Engine.Error.Cancelled { partial }) ->
          Printf.printf "cancelled\n";
          print_partial partial
      | Error e -> Printf.printf "error: %s\n" (Iq.Engine.Error.to_string e)
      | Ok o ->
          Printf.printf "union hits: %d -> %d, total cost %.6f of %.6f\n"
            o.Iq.Combinatorial.union_hits_before
            o.Iq.Combinatorial.union_hits_after o.Iq.Combinatorial.total_cost
            beta;
          List.iter
            (fun (t, s) -> print_strategy (Printf.sprintf "target %d: " t) s)
            o.Iq.Combinatorial.strategies)

let maxhit_cmd =
  let beta =
    Arg.(
      required
      & opt (some float) None
      & info [ "beta" ] ~docv:"BUDGET" ~doc:"Improvement budget.")
  in
  Cmd.v
    (Cmd.info "maxhit" ~doc:"Max-Hit Improvement Query (Algorithm 4)")
    Term.(
      const run_maxhit $ data_arg $ queries_arg $ targets_arg $ beta $ cost_arg
      $ order_arg $ cap_arg $ deadline_arg)

(* --- exhaustive --------------------------------------------------------- *)

let run_exhaustive data_path queries_path target tau order =
  let _, data = load_objects data_path in
  let queries = load_queries queries_path in
  if List.length queries > 24 then
    failwith "exhaustive search is capped at 24 queries (see --help)";
  let inst =
    Iq.Instance.create ~order:(order_of_name order) ~data ~queries ()
  in
  let d = Iq.Instance.dim inst in
  let weights = Array.make d 1. in
  match Iq.Exhaustive.min_cost ~inst ~weights ~target ~tau () with
  | None -> Printf.printf "tau = %d is unreachable\n" tau
  | Some o ->
      Printf.printf "optimal cost %.6f achieving %d hits (%d LPs solved)\n"
        o.Iq.Exhaustive.total_cost o.Iq.Exhaustive.hits_after
        o.Iq.Exhaustive.lps_solved;
      print_strategy "strategy: " o.Iq.Exhaustive.strategy

let exhaustive_cmd =
  let target =
    Arg.(
      required
      & opt (some int) None
      & info [ "target" ] ~docv:"ID" ~doc:"Target object id.")
  in
  let tau =
    Arg.(
      required
      & opt (some int) None
      & info [ "tau" ] ~docv:"N" ~doc:"Desired number of hit queries.")
  in
  Cmd.v
    (Cmd.info "exhaustive"
       ~doc:
         "Optimal Min-Cost strategy (L1 cost) by exhaustive subset \
          enumeration; exponential, capped at 24 queries")
    Term.(
      const run_exhaustive $ data_arg $ queries_arg $ target $ tau $ order_arg)

(* --- sessions ----------------------------------------------------------- *)

(* Multi-client serving demo: N interleaved sessions over one engine,
   with a mutation landing between each open so the sessions pin
   distinct generations. Each session then answers its Min-Cost query
   from its own snapshot — the printout makes the MVCC isolation and
   the admission counters visible. *)
let run_sessions data_path queries_path order n tau cost_name wal =
  let _, data = load_objects data_path in
  let queries = load_queries queries_path in
  let engine = build_engine ~order data queries in
  let store =
    match wal with
    | None -> None
    | Some dir ->
        let s = ok_or_die (Durable.Store.attach ~dir engine) in
        Printf.printf "journaling mutations to %s\n"
          (Durable.Wal.path (Durable.Store.wal s));
        Some s
  in
  let inst = Iq.Engine.instance engine in
  let d = Iq.Instance.dim inst in
  let n_obj = Iq.Instance.n_objects inst in
  let cost = cost_of_name cost_name d in
  Printf.printf "opening %d sessions (IQ_MAX_SESSIONS=%d), mutating between \
                 opens\n"
    n
    (Workload.Config.max_sessions ());
  let sessions =
    List.init n (fun i ->
        let s = Serve.Session.open_ ~deadline_ms:250. engine in
        (* Nudge object 0 after each admission so the next session
           pins a strictly newer generation. *)
        if i < n - 1 then
          ignore
            (ok_or_die
               (Iq.Engine.update_object engine 0
                  (Array.map
                     (fun v -> v *. 0.995)
                     (Iq.Engine.instance engine).Iq.Instance.raw.(0))));
        (i, s))
  in
  List.iter
    (fun (i, s) ->
      match s with
      | Error e ->
          Format.printf "session %d: not admitted: %a@." i
            Serve.Session.Error.pp e
      | Ok sess -> (
          let target = i mod n_obj in
          match Serve.Session.min_cost sess ~cost ~target ~tau with
          | Ok o ->
              Printf.printf
                "session %d: generation %d, target %d, hits %d -> %d, cost \
                 %.6f\n"
                i
                (Serve.Session.generation sess)
                target o.Iq.Min_cost.hits_before o.Iq.Min_cost.hits_after
                o.Iq.Min_cost.total_cost
          | Error e ->
              Printf.printf "session %d: generation %d, target %d, error: %s\n"
                i
                (Serve.Session.generation sess)
                target
                (Serve.Session.Error.to_string e)))
    sessions;
  let st = Iq.Engine.stats engine in
  Printf.printf "engine generation: %d\n" (Iq.Engine.generation engine);
  Printf.printf "active sessions:   %d\n" st.Iq.Engine.active_sessions;
  Printf.printf "pinned snapshots:  %d\n" st.Iq.Engine.pinned_snapshots;
  (match st.Iq.Engine.oldest_pinned with
  | Some g -> Printf.printf "oldest pinned:     generation %d\n" g
  | None -> Printf.printf "oldest pinned:     none\n");
  Printf.printf "admission rejects: %d\n" st.Iq.Engine.admission_rejections;
  List.iter
    (fun (_, s) -> match s with Ok sess -> Serve.Session.close sess
                              | Error _ -> ())
    sessions;
  let st = Iq.Engine.stats engine in
  Printf.printf "after close:       %d active, %d pinned\n"
    st.Iq.Engine.active_sessions st.Iq.Engine.pinned_snapshots;
  match store with
  | None -> ()
  | Some s ->
      Printf.printf "wal bytes:         %d since last checkpoint\n"
        st.Iq.Engine.wal_bytes;
      (match st.Iq.Engine.last_checkpoint_generation with
      | Some g -> Printf.printf "last checkpoint:   generation %d\n" g
      | None -> Printf.printf "last checkpoint:   none\n");
      Durable.Store.detach s

let sessions_cmd =
  let n =
    Arg.(
      value & opt int 4
      & info [ "sessions" ] ~docv:"N"
          ~doc:
            "Number of interleaved serving sessions to drive through the \
             engine (admission-controlled by IQ_MAX_SESSIONS).")
  in
  let tau =
    Arg.(
      value & opt int 5
      & info [ "tau" ] ~docv:"N" ~doc:"Desired number of hit queries.")
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:
         "Drive the workload through N interleaved MVCC serving sessions and \
          print per-session generations and admission statistics; with \
          $(b,--wal), journal every mutation durably")
    Term.(
      const run_sessions $ data_arg $ queries_arg $ order_arg $ n $ tau
      $ cost_arg $ wal_arg)

(* --- recover ------------------------------------------------------------ *)

let run_recover dir compact =
  match Durable.Recovery.replay dir with
  | Error e ->
      prerr_endline ("iq_tool: recovery failed: " ^ Iq.Engine.Error.to_string e);
      exit 2
  | Ok (engine, report) ->
      Format.printf "recovered %s: %a@." dir Durable.Recovery.pp_report report;
      let st = Iq.Engine.stats engine in
      Printf.printf "generation:        %d\n" st.Iq.Engine.generation;
      Printf.printf "objects:           %d\n" st.Iq.Engine.n_objects;
      Printf.printf "queries:           %d\n" st.Iq.Engine.n_queries;
      Printf.printf "replayed records:  %d\n"
        report.Durable.Recovery.r_replayed;
      (match report.Durable.Recovery.r_corrupt with
      | Some e ->
          Printf.printf "warning:           %s (prefix recovered, tail \
                         dropped)\n"
            (Iq.Engine.Error.to_string e)
      | None -> ());
      if compact then begin
        let store =
          ok_or_die
            (Durable.Store.attach
               ~replayed_records:report.Durable.Recovery.r_replayed ~dir engine)
        in
        ok_or_die (Durable.Store.checkpoint store);
        let st = Iq.Engine.stats engine in
        (match st.Iq.Engine.last_checkpoint_generation with
        | Some g ->
            Printf.printf "checkpointed:      generation %d, log truncated\n" g
        | None -> ());
        Durable.Store.detach store
      end

let recover_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:"Durable directory to recover (checkpoint + log).")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "checkpoint" ]
          ~doc:
            "After replaying, write a fresh checkpoint of the recovered \
             state and truncate the log.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild an engine from a durable directory (checkpoint + \
          write-ahead log), repairing torn tails and reporting corruption, \
          and print what was recovered")
    Term.(const run_recover $ dir $ compact)

(* --- main --------------------------------------------------------------- *)

let () =
  let doc = "Improvement Queries over top-k workloads (EDBT 2017)" in
  let info = Cmd.info "iq_tool" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_data_cmd;
            gen_queries_cmd;
            sql_cmd;
            stats_cmd;
            mincost_cmd;
            maxhit_cmd;
            exhaustive_cmd;
            sessions_cmd;
            recover_cmd;
          ]))
