(* Durability: WAL framing and scanning, atomic checkpoints, crash
   recovery, and the crash-fault oracle.

   The oracle at the bottom is the PR's acceptance bar: for random
   mutation traces crashed at every kind of injection point
   (pre-write, torn mid-write, post-write pre-ack, checkpoint write,
   checkpoint rename), the recovered engine must be byte-identical —
   same generation, same hit counts, same Min-Cost answers — to a
   fresh engine fed exactly the durable prefix of the trace. The
   durable prefix is the acknowledged mutations, plus at most the one
   in-flight mutation whose record survived the crash. *)

open Iq
module Wal = Durable.Wal
module Codec = Durable.Codec
module Checkpoint = Durable.Checkpoint
module Recovery = Durable.Recovery
module Store = Durable.Store

let pool1 = Parallel.create ~domains:1 ()

let ok = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "unexpected engine error: %s" (Engine.Error.to_string e)

let make_instance ?(seed = 91) ?(order = Topk.Utility.Asc) ?(n = 80) ?(m = 40)
    ?(d = 3) () =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 6) ~m
      ~d ()
  in
  Instance.create ~order ~data ~queries ()

let engine ?(pool = pool1) inst = ok (Engine.create ~pool inst)

(* Fresh throwaway durable directory. The suite runs single-process;
   a counter keeps iterations apart without consulting the clock. *)
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iq_durable_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let vec3 a b c = [| a; b; c |]

let sample0 = Engine.M_add_object (vec3 0.25 0.5 0.75)

let sample_mutations =
  [
    sample0;
    Engine.M_update_object { id = 3; raw = vec3 0.1 0.9 0.4 };
    Engine.M_remove_object 7;
    Engine.M_add_query (Topk.Query.make ~id:123 ~k:2 (vec3 0.3 0.3 0.4));
    Engine.M_remove_query 5;
  ]

(* ------------------------- codec ---------------------------------- *)

let test_crc32_vector () =
  Alcotest.(check int)
    "IEEE reference vector" 0xCBF43926
    (Codec.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Codec.crc32 "")

let test_codec_roundtrip_samples () =
  List.iteri
    (fun i m ->
      let payload = Codec.encode ~generation:(i + 1) m in
      match Codec.decode payload with
      | Error msg -> Alcotest.failf "sample %d failed to decode: %s" i msg
      | Ok (g, m') ->
          Alcotest.(check int) "generation survives" (i + 1) g;
          Alcotest.(check bool) "mutation survives" true (m = m'))
    sample_mutations

let test_codec_rejects_garbage () =
  (match Codec.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty payload decoded");
  (* version byte is checked before anything else *)
  let good = Codec.encode ~generation:1 sample0 in
  let bad_version =
    String.init (String.length good) (fun i ->
        if i = 0 then Char.chr (Codec.version + 9) else good.[i])
  in
  (match Codec.decode bad_version with
  | Error msg ->
      Alcotest.(check bool)
        "names the version" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "wrong version decoded");
  (* truncations of a valid payload never decode *)
  for cut = 1 to String.length good - 1 do
    match Codec.decode (String.sub good 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded" cut
  done

let prop_codec_roundtrip =
  let arb_mutation =
    QCheck.make ~print:(fun _ -> "<mutation>")
      QCheck.Gen.(
        let d = 3 in
        let vec = array_repeat d (float_bound_exclusive 1.) in
        let* tag = int_bound 4 in
        match tag with
        | 0 -> map (fun v -> Engine.M_add_object v) vec
        | 1 ->
            map2
              (fun id v -> Engine.M_update_object { id; raw = v })
              (int_bound 10_000) vec
        | 2 -> map (fun id -> Engine.M_remove_object id) (int_bound 10_000)
        | 3 ->
            map2
              (fun (id, k) v ->
                Engine.M_add_query (Topk.Query.make ~id ~k v))
              (pair (int_range (-1) 500) (int_range 1 40))
              vec
        | _ -> map (fun q -> Engine.M_remove_query q) (int_bound 10_000))
  in
  QCheck.Test.make ~name:"codec round-trips random mutations bit-exactly"
    ~count:200
    (QCheck.pair (QCheck.int_bound 1_000_000) arb_mutation)
    (fun (generation, m) ->
      match Codec.decode (Codec.encode ~generation m) with
      | Ok (g, m') -> g = generation && m = m'
      | Error _ -> false)

(* ------------------------- wal ------------------------------------ *)

let append_all wal ms =
  List.iteri
    (fun i m -> ignore (Wal.append wal ~generation:(i + 1) m))
    ms

let test_wal_append_scan () =
  let dir = fresh_dir () in
  let path = Wal.path_in dir in
  let wal = Wal.open_ ~sync:Wal.Always path in
  Fun.protect
    ~finally:(fun () -> Wal.close wal)
    (fun () ->
      Alcotest.(check int) "fresh log is empty" 0 (Wal.size wal);
      append_all wal sample_mutations;
      Wal.fsync wal;
      Alcotest.(check bool) "log grew" true (Wal.size wal > 0));
  let scan = Wal.scan_file path in
  Alcotest.(check int)
    "every record scanned back"
    (List.length sample_mutations)
    (List.length scan.Wal.entries);
  Alcotest.(check bool) "no torn tail" true (scan.Wal.torn_at = None);
  Alcotest.(check bool) "no corruption" true (scan.Wal.corrupt_at = None);
  let samples = Array.of_list sample_mutations in
  List.iteri
    (fun i (g, m) ->
      Alcotest.(check int) "generation order" (i + 1) g;
      Alcotest.(check bool) "mutation identical" true (m = samples.(i)))
    scan.Wal.entries

let test_wal_reset () =
  let dir = fresh_dir () in
  let wal = Wal.open_ (Wal.path_in dir) in
  Fun.protect
    ~finally:(fun () -> Wal.close wal)
    (fun () ->
      append_all wal sample_mutations;
      Wal.reset wal;
      Alcotest.(check int) "reset truncates" 0 (Wal.size wal);
      (* the log keeps working after a reset *)
      ignore (Wal.append wal ~generation:9 sample0);
      Alcotest.(check bool) "append after reset" true (Wal.size wal > 0));
  let scan = Wal.scan_file (Wal.path_in dir) in
  Alcotest.(check int) "only the post-reset record" 1
    (List.length scan.Wal.entries)

let test_wal_sync_of_config () =
  (* the knob parses; unknown values fall back to batching *)
  match Wal.sync_of_config () with
  | Wal.Always | Wal.Off -> Alcotest.fail "default IQ_WAL_SYNC is batch"
  | Wal.Batch n -> Alcotest.(check bool) "batch window positive" true (n > 0)

let test_wal_torn_tail () =
  let dir = fresh_dir () in
  let path = Wal.path_in dir in
  let wal = Wal.open_ path in
  append_all wal sample_mutations;
  Wal.close wal;
  let intact = (Wal.scan_file path).Wal.intact_bytes in
  (* hand-tear: append half a frame, as a mid-write crash would *)
  let frame = Codec.encode ~generation:9 sample0 in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
  in
  output_string oc (String.sub frame 0 (String.length frame / 2));
  close_out oc;
  let scan = Wal.scan_file path in
  Alcotest.(check int)
    "intact records all recovered"
    (List.length sample_mutations)
    (List.length scan.Wal.entries);
  Alcotest.(check (option int)) "torn tail located" (Some intact)
    scan.Wal.torn_at;
  Alcotest.(check bool) "not misreported as corruption" true
    (scan.Wal.corrupt_at = None);
  Alcotest.(check int) "intact prefix ends before the tear" intact
    scan.Wal.intact_bytes;
  (* repair drops the tail; the log scans clean afterwards *)
  Wal.truncate_file path scan.Wal.intact_bytes;
  let scan' = Wal.scan_file path in
  Alcotest.(check bool) "clean after repair" true
    (scan'.Wal.torn_at = None && scan'.Wal.intact_bytes = intact)

let test_wal_corrupt_frame () =
  let dir = fresh_dir () in
  let path = Wal.path_in dir in
  let wal = Wal.open_ path in
  append_all wal sample_mutations;
  Wal.close wal;
  (* flip one payload byte inside the second record *)
  let scan0 = Wal.scan_file path in
  ignore scan0;
  let first_len = String.length (Codec.encode ~generation:1 sample0) + 8 in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (first_len + 10) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xFF") 0 1);
  Unix.close fd;
  let scan = Wal.scan_file path in
  Alcotest.(check int) "prefix before the bad frame survives" 1
    (List.length scan.Wal.entries);
  Alcotest.(check (option int)) "corruption located at frame start"
    (Some first_len) scan.Wal.corrupt_at;
  Alcotest.(check int) "intact prefix stops at the bad frame" first_len
    scan.Wal.intact_bytes

(* ------------------------- checkpoint ------------------------------ *)

let roundtrip_checkpoint order =
  let inst = make_instance ~order () in
  let e = engine inst in
  ignore (ok (Engine.add_object e (vec3 0.4 0.4 0.2)));
  let snap = Engine.snapshot e in
  let c = Checkpoint.of_snapshot snap in
  Alcotest.(check int) "stamped with the snapshot generation" 1
    (Checkpoint.generation c);
  let dir = fresh_dir () in
  let path = Checkpoint.path_in dir in
  let bytes = Checkpoint.write path c in
  Alcotest.(check bool) "reports its size" true (bytes > 0);
  let c' =
    match Checkpoint.read path with
    | Ok c' -> c'
    | Error msg -> Alcotest.failf "read back failed: %s" msg
  in
  let inst' = Checkpoint.instance c' in
  let cur = Snapshot.instance snap in
  Alcotest.(check int) "same objects" (Instance.n_objects cur)
    (Instance.n_objects inst');
  Alcotest.(check int) "same queries" (Instance.n_queries cur)
    (Instance.n_queries inst');
  Alcotest.(check bool) "raw rows bit-identical" true
    (cur.Instance.raw = inst'.Instance.raw);
  Alcotest.(check bool) "feature rows bit-identical" true
    (cur.Instance.features = inst'.Instance.features);
  (* the effective (possibly negated) weights round-trip exactly —
     this is the [Desc] involution the format depends on *)
  Alcotest.(check bool) "query weights bit-identical" true
    (Array.for_all2
       (fun (a : Topk.Query.t) (b : Topk.Query.t) ->
         a.Topk.Query.weights = b.Topk.Query.weights
         && a.Topk.Query.k = b.Topk.Query.k
         && a.Topk.Query.id = b.Topk.Query.id)
       cur.Instance.queries inst'.Instance.queries);
  let e' =
    ok
      (Engine.create ~pool:pool1
         ~generation:(Checkpoint.generation c')
         ~depth_slack:(Checkpoint.depth_slack c' inst')
         inst')
  in
  Alcotest.(check int) "rebuilt at the checkpoint generation" 1
    (Engine.generation e');
  Alcotest.(check int) "rebuilt index depth matches"
    (Query_index.depth (Engine.index e))
    (Query_index.depth (Engine.index e'));
  for target = 0 to 9 do
    Alcotest.(check int)
      (Printf.sprintf "hits of target %d match" target)
      (ok (Engine.hits e ~target))
      (ok (Engine.hits e' ~target))
  done

let test_checkpoint_roundtrip_asc () = roundtrip_checkpoint Topk.Utility.Asc

let test_checkpoint_roundtrip_desc () = roundtrip_checkpoint Topk.Utility.Desc

let test_checkpoint_rejects_nonlinear () =
  let rng = Workload.Rng.make 5 in
  let data =
    Workload.Datagen.generate rng Workload.Datagen.Independent ~n:30 ~d:2
  in
  let utility =
    Topk.Utility.polynomial ~dim_in:2 ~terms:[ [ (0, 2) ]; [ (1, 1) ] ]
  in
  let queries =
    [ Topk.Query.make ~k:2 [| 0.5; 0.5 |]; Topk.Query.make ~k:3 [| 0.2; 0.8 |] ]
  in
  let inst = Instance.create ~utility ~data ~queries () in
  let e = engine inst in
  match Checkpoint.of_snapshot (Engine.snapshot e) with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "says why" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "non-linear utility checkpointed"

let test_checkpoint_read_errors () =
  let dir = fresh_dir () in
  let path = Checkpoint.path_in dir in
  (match Checkpoint.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing checkpoint read");
  let oc = open_out_bin path in
  output_string oc "not a checkpoint\n";
  close_out oc;
  match Checkpoint.read path with
  | Error msg ->
      Alcotest.(check bool) "bad magic reported" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "garbage file read as checkpoint"

(* ------------------------- engine stats + store -------------------- *)

let test_store_attach_and_stats () =
  let inst = make_instance () in
  let e = engine inst in
  Alcotest.(check bool) "fresh engine is not journaled" false
    (Engine.journaled e);
  let dir = fresh_dir () in
  let store = ok (Store.attach ~sync:Wal.Always ~dir e) in
  Fun.protect
    ~finally:(fun () -> Store.detach store)
    (fun () ->
      Alcotest.(check bool) "attached" true (Engine.journaled e);
      Alcotest.(check string) "remembers its directory" dir (Store.dir store);
      Alcotest.(check bool) "hands back its engine" true
        (Store.engine store == e);
      Alcotest.(check bool) "initial checkpoint written" true
        (Sys.file_exists (Checkpoint.path_in dir));
      let st0 = Engine.stats e in
      Alcotest.(check int) "no log bytes yet" 0 st0.Engine.wal_bytes;
      Alcotest.(check (option int)) "initial checkpoint at generation 0"
        (Some 0) st0.Engine.last_checkpoint_generation;
      ignore (ok (Engine.add_object e (vec3 0.7 0.2 0.1)));
      ignore (ok (Engine.update_object e 0 (vec3 0.6 0.3 0.2)));
      let st1 = Engine.stats e in
      Alcotest.(check bool) "appends accounted" true
        (st1.Engine.wal_bytes > 0);
      Alcotest.(check int) "two records on disk" 2
        (List.length (Wal.scan_file (Wal.path_in dir)).Wal.entries);
      (* explicit checkpoint truncates the log and resets the gauge *)
      ok (Engine.checkpoint e);
      let st2 = Engine.stats e in
      Alcotest.(check int) "log truncated" 0 st2.Engine.wal_bytes;
      Alcotest.(check (option int)) "checkpoint generation advanced"
        (Some 2) st2.Engine.last_checkpoint_generation;
      Alcotest.(check int) "wal file empty" 0 (Wal.size (Store.wal store)));
  Alcotest.(check bool) "detached" false (Engine.journaled e);
  (* detached engines mutate without journaling *)
  ignore (ok (Engine.add_object e (vec3 0.1 0.1 0.8)));
  Alcotest.(check int) "no record for the detached mutation" 0
    (List.length (Wal.scan_file (Wal.path_in dir)).Wal.entries)

let test_store_auto_checkpoint () =
  let inst = make_instance () in
  let e = engine inst in
  let dir = fresh_dir () in
  let store = ok (Store.attach ~every:3 ~dir e) in
  Fun.protect
    ~finally:(fun () -> Store.detach store)
    (fun () ->
      for i = 1 to 7 do
        ignore
          (ok (Engine.add_object e (vec3 (0.1 *. float_of_int i) 0.5 0.4)))
      done;
      let st = Engine.stats e in
      (* 7 mutations, cadence 3: checkpoints after the 3rd and 6th *)
      Alcotest.(check (option int)) "auto checkpoint at generation 6" (Some 6)
        st.Engine.last_checkpoint_generation;
      Alcotest.(check int) "one record since the checkpoint" 1
        (List.length (Wal.scan_file (Wal.path_in dir)).Wal.entries))

(* ------------------------- recovery -------------------------------- *)

let targets_upto e n =
  let n_obj = Instance.n_objects (Engine.instance e) in
  List.init (Int.min n n_obj) Fun.id

(* The byte-identity oracle: generation, hit counts and a Min-Cost
   answer must agree between the recovered engine and its reference. *)
let assert_equivalent ~what reference recovered =
  Alcotest.(check int)
    (what ^ ": generation")
    (Engine.generation reference)
    (Engine.generation recovered);
  let ri = Engine.instance reference and vi = Engine.instance recovered in
  Alcotest.(check int) (what ^ ": objects") (Instance.n_objects ri)
    (Instance.n_objects vi);
  Alcotest.(check int) (what ^ ": queries") (Instance.n_queries ri)
    (Instance.n_queries vi);
  Alcotest.(check bool) (what ^ ": raw rows bit-identical") true
    (ri.Instance.raw = vi.Instance.raw);
  List.iter
    (fun target ->
      Alcotest.(check int)
        (Printf.sprintf "%s: hits of %d" what target)
        (ok (Engine.hits reference ~target))
        (ok (Engine.hits recovered ~target)))
    (targets_upto reference 8);
  let cost = Cost.euclidean (Instance.dim ri) in
  let mc e = Engine.min_cost e ~cost ~target:0 ~tau:3 in
  match (mc reference, mc recovered) with
  | Ok a, Ok b ->
      Alcotest.(check bool) (what ^ ": min-cost strategy identical") true
        (a.Min_cost.strategy = b.Min_cost.strategy);
      Alcotest.(check int) (what ^ ": min-cost hits identical")
        a.Min_cost.hits_after b.Min_cost.hits_after
  | Error Engine.Error.Infeasible, Error Engine.Error.Infeasible -> ()
  | a, b ->
      let show = function
        | Ok _ -> "ok"
        | Error e -> Engine.Error.to_string e
      in
      Alcotest.failf "%s: min-cost outcomes diverge (%s vs %s)" what (show a)
        (show b)

let test_recovery_replays_log () =
  let inst = make_instance () in
  let e = engine inst in
  let dir = fresh_dir () in
  let store = ok (Store.attach ~dir e) in
  ignore (ok (Engine.add_object e (vec3 0.9 0.1 0.3)));
  ignore (ok (Engine.add_query e (Topk.Query.make ~id:7 ~k:2 (vec3 0.2 0.5 0.3))));
  ignore (ok (Engine.remove_object e 4));
  ignore (ok (Engine.update_object e 2 (vec3 0.5 0.5 0.5)));
  Store.detach store;
  let recovered, report = ok (Recovery.replay ~pool:pool1 dir) in
  Alcotest.(check int) "replayed the whole tail" 4
    report.Recovery.r_replayed;
  Alcotest.(check int) "from the initial checkpoint" 0
    report.Recovery.r_checkpoint_generation;
  Alcotest.(check bool) "clean log" true
    (report.Recovery.r_torn_at = None && report.Recovery.r_corrupt = None);
  Alcotest.(check bool) "report prints" true
    (String.length (Format.asprintf "%a" Recovery.pp_report report) > 0);
  assert_equivalent ~what:"restart" e recovered;
  (* reattaching carries the recovery accounting into stats *)
  let store' =
    ok
      (Store.attach ~replayed_records:report.Recovery.r_replayed ~dir recovered)
  in
  Fun.protect
    ~finally:(fun () -> Store.detach store')
    (fun () ->
      let st = Engine.stats recovered in
      Alcotest.(check int) "replayed records surfaced" 4
        st.Engine.replayed_records;
      (* and the journal keeps extending the same log *)
      ignore (ok (Engine.add_object recovered (vec3 0.3 0.3 0.3)));
      Alcotest.(check int) "tail keeps growing" 5
        (List.length (Wal.scan_file (Wal.path_in dir)).Wal.entries))

let test_recovery_from_checkpoint_only () =
  let inst = make_instance () in
  let e = engine inst in
  let dir = fresh_dir () in
  let store = ok (Store.attach ~dir e) in
  ignore (ok (Engine.add_object e (vec3 0.2 0.2 0.6)));
  ignore (ok (Engine.remove_query e 3));
  ok (Store.checkpoint store);
  Store.detach store;
  let recovered, report = ok (Recovery.replay ~pool:pool1 dir) in
  Alcotest.(check int) "nothing to replay" 0 report.Recovery.r_replayed;
  Alcotest.(check int) "checkpoint carries the state" 2
    report.Recovery.r_checkpoint_generation;
  assert_equivalent ~what:"checkpoint-only" e recovered

let test_recovery_skips_covered_records () =
  (* Crash window between checkpoint publish and log reset: the log
     still holds records the checkpoint already covers. Replaying
     them would double-apply; the generation stamp prevents it. *)
  let inst = make_instance () in
  let e = engine inst in
  let dir = fresh_dir () in
  let store = ok (Store.attach ~dir e) in
  ignore (ok (Engine.add_object e (vec3 0.8 0.1 0.1)));
  ignore (ok (Engine.remove_object e 0));
  ok (Store.checkpoint store);
  Store.detach store;
  (* resurrect the pre-checkpoint records, as the crash would leave *)
  let wal = Wal.open_ (Wal.path_in dir) in
  ignore (Wal.append wal ~generation:1 (Engine.M_add_object (vec3 0.8 0.1 0.1)));
  ignore (Wal.append wal ~generation:2 (Engine.M_remove_object 0));
  Wal.close wal;
  let recovered, report = ok (Recovery.replay ~pool:pool1 dir) in
  Alcotest.(check int) "covered records skipped, not replayed" 2
    report.Recovery.r_skipped;
  Alcotest.(check int) "nothing replayed" 0 report.Recovery.r_replayed;
  assert_equivalent ~what:"double-apply guard" e recovered

let test_recovery_torn_tail () =
  let inst = make_instance () in
  let e = engine inst in
  let dir = fresh_dir () in
  let store = ok (Store.attach ~dir e) in
  ignore (ok (Engine.add_object e (vec3 0.5 0.2 0.2)));
  ignore (ok (Engine.update_object e 1 (vec3 0.4 0.4 0.1)));
  Store.detach store;
  (* tear a third record in half by hand *)
  let path = Wal.path_in dir in
  let frame = Codec.encode ~generation:3 (Engine.M_remove_object 0) in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc (String.sub frame 0 (String.length frame - 2));
  close_out oc;
  let size_before = (Unix.stat path).Unix.st_size in
  let recovered, report = ok (Recovery.replay ~pool:pool1 dir) in
  Alcotest.(check bool) "torn tail reported" true
    (report.Recovery.r_torn_at <> None);
  Alcotest.(check bool) "no corruption claimed" true
    (report.Recovery.r_corrupt = None);
  Alcotest.(check int) "both intact records replayed" 2
    report.Recovery.r_replayed;
  Alcotest.(check bool) "log repaired on disk" true
    ((Unix.stat path).Unix.st_size < size_before);
  assert_equivalent ~what:"torn tail" e recovered

let test_recovery_corrupt_log () =
  let inst = make_instance () in
  let e = engine inst in
  let reference = engine inst in
  let dir = fresh_dir () in
  let store = ok (Store.attach ~dir e) in
  let m1 = Engine.M_add_object (vec3 0.6 0.2 0.1) in
  ignore (ok (Engine.apply_mutation e m1));
  ignore (ok (Engine.remove_query e 2));
  Store.detach store;
  (* corrupt the second record's payload in place *)
  let path = Wal.path_in dir in
  let first_len = String.length (Codec.encode ~generation:1 m1) + 8 in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (first_len + 9) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\x55") 0 1);
  Unix.close fd;
  let recovered, report = ok (Recovery.replay ~pool:pool1 dir) in
  (match report.Recovery.r_corrupt with
  | Some (Engine.Error.Wal_corrupt { path = p; offset }) ->
      Alcotest.(check string) "names the log" path p;
      Alcotest.(check int) "offset of the bad frame" first_len offset;
      Alcotest.(check bool) "typed error renders" true
        (String.length
           (Engine.Error.to_string
              (Engine.Error.Wal_corrupt { path = p; offset }))
        > 0)
  | _ -> Alcotest.fail "corruption not reported as Wal_corrupt");
  Alcotest.(check int) "intact prefix replayed" 1 report.Recovery.r_replayed;
  (* the reference saw only the surviving prefix *)
  ignore (ok (Engine.apply_mutation reference m1));
  assert_equivalent ~what:"corrupt log" reference recovered

let test_recovery_without_checkpoint () =
  let dir = fresh_dir () in
  match Recovery.replay ~pool:pool1 dir with
  | Error (Engine.Error.Internal msg) ->
      Alcotest.(check bool) "explains the missing checkpoint" true
        (String.length msg > 0)
  | Error e ->
      Alcotest.failf "unexpected error class: %s" (Engine.Error.to_string e)
  | Ok _ -> Alcotest.fail "recovered from an empty directory"

(* ------------------------- crash faults ---------------------------- *)

let test_injected_crash_kills_wal () =
  let inst = make_instance () in
  let e = engine inst in
  let dir = fresh_dir () in
  let fault = Resilience.Fault.make ~seed:3 [ ("wal.append", Resilience.Fault.Exn, 1.0) ] in
  let store = ok (Store.attach ~fault ~dir e) in
  Fun.protect
    ~finally:(fun () -> Store.detach store)
    (fun () ->
      (match Engine.add_object e (vec3 0.1 0.2 0.3) with
      | Error (Engine.Error.Internal _) -> ()
      | Ok _ -> Alcotest.fail "mutation acknowledged across a dead journal"
      | Error err ->
          Alcotest.failf "unexpected error class: %s"
            (Engine.Error.to_string err));
      (* the handle stays dead: no later mutation can slip through *)
      (match Engine.add_object e (vec3 0.2 0.2 0.2) with
      | Error (Engine.Error.Internal _) -> ()
      | _ -> Alcotest.fail "dead log accepted another mutation");
      Alcotest.(check int) "engine never advanced" 0 (Engine.generation e));
  (* and recovery of the untouched directory is the fresh state *)
  let recovered, report = ok (Recovery.replay ~pool:pool1 dir) in
  Alcotest.(check int) "nothing durable" 0 report.Recovery.r_replayed;
  Alcotest.(check int) "generation 0 recovered" 0 (Engine.generation recovered)

(* One crash-fault schedule per kind of injection point. [torn]'s
   fraction and every injection decision are pure in (seed, site, n),
   so each oracle case is reproducible from its integer seed. *)
let crash_sites =
  [|
    ("wal.append", Resilience.Fault.Exn);
    ("wal.append", Resilience.Fault.Torn);
    ("wal.fsync", Resilience.Fault.Exn);
    ("checkpoint.write", Resilience.Fault.Exn);
    ("checkpoint.write", Resilience.Fault.Torn);
    ("checkpoint.rename", Resilience.Fault.Exn);
    ("checkpoint.dirsync", Resilience.Fault.Exn);
  |]

(* A random-but-valid mutation trace: ids are drawn against the
   running object/query counts, so every mutation validates. *)
let gen_trace rng inst len =
  let d = Instance.dim_raw inst in
  let n_obj = ref (Instance.n_objects inst) in
  let n_q = ref (Instance.n_queries inst) in
  let vec () = Array.init d (fun _ -> Workload.Rng.uniform rng) in
  List.init len (fun _ ->
      let pick = Workload.Rng.int rng 100 in
      if pick < 30 then begin
        incr n_obj;
        Engine.M_add_object (vec ())
      end
      else if pick < 55 then
        Engine.M_update_object { id = Workload.Rng.int rng !n_obj; raw = vec () }
      else if pick < 70 && !n_obj > 20 then begin
        let id = Workload.Rng.int rng !n_obj in
        decr n_obj;
        Engine.M_remove_object id
      end
      else if pick < 85 then begin
        incr n_q;
        Engine.M_add_query
          (Topk.Query.make ~k:(1 + Workload.Rng.int rng 3) (vec ()))
      end
      else if !n_q > 5 then begin
        let q = Workload.Rng.int rng !n_q in
        decr n_q;
        Engine.M_remove_query q
      end
      else begin
        incr n_obj;
        Engine.M_add_object (vec ())
      end)

(* Run one crash case: a trace driven into a durable engine with a
   crash-fault schedule; at the first failure the engine is abandoned
   and the directory recovered. The recovered engine must equal a
   fresh engine fed the durable prefix of the trace. *)
let run_crash_case seed =
  let inst = make_instance ~seed:(seed * 7) ~n:60 ~m:30 () in
  let trace = gen_trace (Workload.Rng.make (seed + 1000)) inst 12 in
  let site, kind = crash_sites.(seed mod Array.length crash_sites) in
  let fault = Resilience.Fault.make ~seed [ (site, kind, 0.3) ] in
  let dir = fresh_dir () in
  let e = engine inst in
  match Store.attach ~every:4 ~fault ~dir e with
  | Error _ -> (
      (* the initial checkpoint crashed. Before its rename nothing
         durable exists, and recovery must say so rather than fabricate
         an engine; after the rename (a [checkpoint.dirsync] crash) the
         image is the untouched generation-0 state and nothing else *)
      match Recovery.replay ~pool:pool1 dir with
      | Error _ -> true
      | Ok (recovered, report) ->
          String.equal site "checkpoint.dirsync"
          && report.Recovery.r_replayed = 0
          &&
          (assert_equivalent
             ~what:(Printf.sprintf "crash seed %d at %s" seed site)
             (engine inst) recovered;
           true))
  | Ok store ->
      let rec drive acked = function
        | [] -> (List.rev acked, false)
        | m :: rest -> (
            match Engine.apply_mutation e m with
            | Ok () -> drive (m :: acked) rest
            | Error _ -> (List.rev acked, true))
      in
      let acked, crashed = drive [] trace in
      Store.detach store;
      ignore crashed;
      let recovered, report =
        match Recovery.replay ~pool:pool1 dir with
        | Ok v -> v
        | Error err ->
            Alcotest.failf "recovery failed (seed %d, site %s): %s" seed site
              (Engine.Error.to_string err)
      in
      if report.Recovery.r_corrupt <> None then
        Alcotest.failf "crash produced corruption (seed %d, site %s)" seed site;
      (* durable prefix: every acknowledged mutation, plus at most the
         in-flight one whose record hit the disk before the crash *)
      let durable = Engine.generation recovered in
      let n_acked = List.length acked in
      if durable < n_acked || durable > n_acked + 1 then
        Alcotest.failf
          "durable prefix %d outside [%d, %d] (seed %d, site %s)" durable
          n_acked (n_acked + 1) seed site;
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let reference = engine inst in
      List.iter
        (fun m -> ignore (ok (Engine.apply_mutation reference m)))
        (take durable trace);
      assert_equivalent
        ~what:(Printf.sprintf "crash seed %d at %s" seed site)
        reference recovered;
      true

let prop_crash_recovery_oracle =
  QCheck.Test.make ~name:"crash at every injection point recovers the durable prefix"
    ~count:30
    QCheck.(int_bound 10_000)
    run_crash_case

(* ------------------------- serving over recovery ------------------- *)

let test_session_over_recovered_engine () =
  let inst = make_instance () in
  let e = engine inst in
  let dir = fresh_dir () in
  let store = ok (Store.attach ~dir e) in
  ignore (ok (Engine.add_object e (vec3 0.45 0.3 0.2)));
  ignore (ok (Engine.update_object e 3 (vec3 0.25 0.25 0.4)));
  Store.detach store;
  let recovered, _report = ok (Recovery.replay ~pool:pool1 dir) in
  let cost = Cost.euclidean (Instance.dim (Engine.instance recovered)) in
  let run en =
    Serve.Session.with_session en (fun sess ->
        Serve.Session.min_cost sess ~cost ~target:1 ~tau:3)
  in
  (match (run e, run recovered) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "sessions agree across recovery" true
        (a.Min_cost.strategy = b.Min_cost.strategy
        && a.Min_cost.hits_after = b.Min_cost.hits_after)
  | ( Error (Serve.Session.Error.Engine Engine.Error.Infeasible),
      Error (Serve.Session.Error.Engine Engine.Error.Infeasible) ) ->
      ()
  | a, b ->
      let show = function
        | Ok _ -> "ok"
        | Error err -> Serve.Session.Error.to_string err
      in
      Alcotest.failf "session outcomes diverge across recovery (%s vs %s)"
        (show a) (show b));
  (* sessions over the recovered engine pin its generation *)
  Serve.Session.with_session recovered (fun sess ->
      Alcotest.(check int) "pinned at the recovered generation"
        (Engine.generation recovered)
        (Serve.Session.generation sess);
      Ok ())
  |> Result.iter (fun () -> ())

let suite =
  [
    Alcotest.test_case "crc32 reference vector" `Quick test_crc32_vector;
    Alcotest.test_case "codec round-trips the sample mutations" `Quick
      test_codec_roundtrip_samples;
    Alcotest.test_case "codec rejects garbage and truncations" `Quick
      test_codec_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "wal appends scan back in order" `Quick
      test_wal_append_scan;
    Alcotest.test_case "wal reset truncates" `Quick test_wal_reset;
    Alcotest.test_case "wal sync knob defaults to batch" `Quick
      test_wal_sync_of_config;
    Alcotest.test_case "wal torn tail detected and repaired" `Quick
      test_wal_torn_tail;
    Alcotest.test_case "wal corrupt frame located" `Quick
      test_wal_corrupt_frame;
    Alcotest.test_case "checkpoint round-trips (Asc)" `Quick
      test_checkpoint_roundtrip_asc;
    Alcotest.test_case "checkpoint round-trips (Desc)" `Quick
      test_checkpoint_roundtrip_desc;
    Alcotest.test_case "checkpoint rejects non-linear utilities" `Quick
      test_checkpoint_rejects_nonlinear;
    Alcotest.test_case "checkpoint read errors are typed" `Quick
      test_checkpoint_read_errors;
    Alcotest.test_case "store attach, stats and explicit checkpoint" `Quick
      test_store_attach_and_stats;
    Alcotest.test_case "store auto-checkpoint cadence" `Quick
      test_store_auto_checkpoint;
    Alcotest.test_case "recovery replays the log tail" `Quick
      test_recovery_replays_log;
    Alcotest.test_case "recovery from checkpoint alone" `Quick
      test_recovery_from_checkpoint_only;
    Alcotest.test_case "recovery skips checkpoint-covered records" `Quick
      test_recovery_skips_covered_records;
    Alcotest.test_case "recovery drops a torn tail" `Quick
      test_recovery_torn_tail;
    Alcotest.test_case "recovery reports mid-log corruption" `Quick
      test_recovery_corrupt_log;
    Alcotest.test_case "recovery without a checkpoint fails typed" `Quick
      test_recovery_without_checkpoint;
    Alcotest.test_case "injected crash kills the wal handle" `Quick
      test_injected_crash_kills_wal;
    QCheck_alcotest.to_alcotest prop_crash_recovery_oracle;
    Alcotest.test_case "sessions serve a recovered engine" `Quick
      test_session_over_recovered_engine;
  ]
