(* Rebuild an engine from a durable directory: checkpoint image + the
   intact prefix of the log, replayed through the very same validated
   maintenance entry points the original mutations took — recovery is
   re-execution, not state surgery, which is what makes the result
   byte-identical (same generation, same strategies, same hit counts)
   to a fresh engine fed the durable mutation prefix. *)

type report = {
  r_checkpoint_generation : int;
  r_replayed : int;
  r_skipped : int;
  r_torn_at : int option;
  r_corrupt : Iq.Engine.Error.t option;
  r_wal_bytes : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "checkpoint gen %d; replayed %d record%s (%d skipped); log %d bytes%s%s"
    r.r_checkpoint_generation r.r_replayed
    (if r.r_replayed = 1 then "" else "s")
    r.r_skipped r.r_wal_bytes
    (match r.r_torn_at with
    | None -> ""
    | Some off -> Printf.sprintf "; torn tail dropped at byte %d" off)
    (match r.r_corrupt with
    | None -> ""
    | Some e -> "; " ^ Iq.Engine.Error.to_string e)

let replay ?backend ?fault ?prune ?pool dir =
  let ( let* ) = Result.bind in
  let* ckpt =
    match Checkpoint.read (Checkpoint.path_in dir) with
    | Ok c -> Ok c
    | Error msg -> Error (Iq.Engine.Error.Internal msg)
  in
  let wal_path = Wal.path_in dir in
  let scan = Wal.scan_file wal_path in
  (* Repair before anything can append again: a torn tail (and
     anything after a corrupt frame) must not linger under new
     records. *)
  Wal.truncate_file wal_path scan.Wal.intact_bytes;
  let inst = Checkpoint.instance ckpt in
  let ckpt_gen = Checkpoint.generation ckpt in
  let* engine =
    Iq.Engine.create ?backend ?fault ?prune ~generation:ckpt_gen
      ~depth_slack:(Checkpoint.depth_slack ckpt inst)
      ?pool inst
  in
  let rec apply replayed skipped = function
    | [] -> Ok (replayed, skipped)
    | (generation, m) :: rest ->
        (* Records at or below the checkpoint generation are already in
           the image: a crash between checkpoint rename and log reset
           leaves them behind, and applying them twice would corrupt
           the rebuild. *)
        if generation <= ckpt_gen then apply replayed (skipped + 1) rest
        else
          let* () = Iq.Engine.apply_mutation engine m in
          apply (replayed + 1) skipped rest
  in
  let* replayed, skipped = apply 0 0 scan.Wal.entries in
  let corrupt =
    Option.map
      (fun offset -> Iq.Engine.Error.Wal_corrupt { path = wal_path; offset })
      scan.Wal.corrupt_at
  in
  Ok
    ( engine,
      {
        r_checkpoint_generation = ckpt_gen;
        r_replayed = replayed;
        r_skipped = skipped;
        r_torn_at = scan.Wal.torn_at;
        r_corrupt = corrupt;
        r_wal_bytes = scan.Wal.intact_bytes;
      } )
