(* Budgets and deterministic fault injection. See the .mli for the
   contracts; the implementation notes here are about lock-freedom and
   determinism. *)

(* Wall clock with a monotonic guard: [Unix.gettimeofday] can step
   backwards (NTP); deadlines must not. Every read CASes the latest
   value into [last] and returns the max, so no domain ever observes
   time running in reverse. *)
let last_ms = Atomic.make 0.

let now_ms () =
  let t = Unix.gettimeofday () *. 1000. in
  let rec bump () =
    let seen = Atomic.get last_ms in
    if t <= seen then seen
    else if Atomic.compare_and_set last_ms seen t then t
    else bump ()
  in
  bump ()

module Budget = struct
  type token = bool Atomic.t

  let token () = Atomic.make false
  let cancel tok = Atomic.set tok true
  let is_cancelled tok = Atomic.get tok

  type trip =
    | Deadline of { elapsed_ms : float }
    | Steps of { used : int; limit : int }
    | Cancelled

  type t = {
    started_ms : float;
    deadline_ms : float option;
    max_steps : int option;
    tok : token option;
    steps : int Atomic.t;
    trip : trip option Atomic.t;
    probe : int Atomic.t;
        (* deadline checks are throttled: only every 16th check reads
           the clock (a syscall plus a contended CAS — measurably
           expensive when every candidate evaluation checks). The
           first check always probes, so a pre-expired deadline trips
           immediately; otherwise a trip is observed at most 15 checks
           late, which cooperative cancellation tolerates by design. *)
  }

  let unlimited =
    {
      started_ms = 0.;
      deadline_ms = None;
      max_steps = None;
      tok = None;
      steps = Atomic.make 0;
      trip = Atomic.make None;
      probe = Atomic.make 0;
    }

  let create ?deadline_ms ?max_steps ?token () =
    {
      started_ms = now_ms ();
      deadline_ms;
      max_steps;
      tok = token;
      steps = Atomic.make 0;
      trip = Atomic.make None;
      probe = Atomic.make 0;
    }

  let step t n = ignore (Atomic.fetch_and_add t.steps n)
  let steps_used t = Atomic.get t.steps
  let elapsed_ms t = now_ms () -. t.started_ms

  (* First trip wins: losers of the CAS adopt the winner's trip, so
     every domain reports the same cause. *)
  let record t tr =
    ignore (Atomic.compare_and_set t.trip None (Some tr));
    Atomic.get t.trip

  let check t =
    match Atomic.get t.trip with
    | Some _ as tripped -> tripped
    | None -> (
        let over =
          match t.tok with
          | Some tok when Atomic.get tok -> Some Cancelled
          | _ -> (
              match t.max_steps with
              | Some limit when Atomic.get t.steps >= limit ->
                  Some (Steps { used = Atomic.get t.steps; limit })
              | _ -> (
                  match t.deadline_ms with
                  | None -> None
                  | Some dl ->
                      if Atomic.fetch_and_add t.probe 1 land 15 <> 0 then
                        None
                      else
                        let e = elapsed_ms t in
                        if e >= dl then Some (Deadline { elapsed_ms = e })
                        else None))
        in
        match over with None -> None | Some tr -> record t tr)

  let live t = match check t with None -> true | Some _ -> false
  let tripped t = Atomic.get t.trip
end

module Fault = struct
  type kind = Exn | Latency of float | Torn

  exception Injected of { site : string }

  exception Torn_write of { site : string; frac : float }

  type rule = { pattern : string; kind : kind; p : float }

  type t = {
    seed : int;
    rules : rule list;
    lock : Mutex.t;
    counters : (string, int ref) Hashtbl.t;
    n_consults : int Atomic.t;
    n_injections : int Atomic.t;
  }

  let make ?(seed = 0) rules =
    {
      seed;
      rules =
        List.map (fun (pattern, kind, p) -> { pattern; kind; p }) rules;
      lock = Mutex.create ();
      counters = Hashtbl.create 8;
      n_consults = Atomic.make 0;
      n_injections = Atomic.make 0;
    }

  let seed t = t.seed
  let consults t = Atomic.get t.n_consults
  let injections t = Atomic.get t.n_injections

  let matches ~pattern site =
    let lp = String.length pattern in
    if lp > 0 && pattern.[lp - 1] = '*' then
      let prefix = String.sub pattern 0 (lp - 1) in
      let lpre = String.length prefix in
      String.length site >= lpre && String.sub site 0 lpre = prefix
    else String.equal pattern site

  let rule_for t site =
    List.find_opt (fun r -> matches ~pattern:r.pattern site) t.rules

  (* The schedule: consult [n] of [site] draws from a throwaway Rng
     seeded by (seed, site, n). [Hashtbl.hash] is deterministic across
     runs for (int, string, int) triples, so the decision depends only
     on those three values — never on domain interleaving. *)
  let draw t site n =
    Workload.Rng.uniform
      (Workload.Rng.make (t.seed lxor Hashtbl.hash (t.seed, site, n)))

  let decide t r site n = draw t site n < r.p

  (* The kill point of a torn write: a second independent deterministic
     draw from the same (seed, site, n) triple, so the fraction of the
     record that survives the simulated crash is as reproducible as the
     decision to crash at all. *)
  let torn_frac t site n =
    Workload.Rng.uniform
      (Workload.Rng.make (t.seed lxor Hashtbl.hash (site, t.seed, n, 1)))

  let would_inject t ~site ~n =
    match rule_for t site with None -> false | Some r -> decide t r site n

  let next_consult t site =
    Mutex.lock t.lock;
    let counter =
      match Hashtbl.find_opt t.counters site with
      | Some c -> c
      | None ->
          let c = ref 0 in
          Hashtbl.add t.counters site c;
          c
    in
    let n = !counter in
    incr counter;
    Mutex.unlock t.lock;
    n

  let point opt ~site =
    match opt with
    | None -> ()
    | Some t -> (
        match rule_for t site with
        | None -> ()
        | Some r ->
            Atomic.incr t.n_consults;
            let n = next_consult t site in
            if decide t r site n then begin
              Atomic.incr t.n_injections;
              match r.kind with
              | Latency ms -> if ms > 0. then Unix.sleepf (ms /. 1000.)
              | Exn -> raise (Injected { site })
              | Torn -> raise (Torn_write { site; frac = torn_frac t site n })
            end)

  (* --- IQ_FAULT spec parsing ---------------------------------------
     seed=42;backend.ese.prepare:exn@0.5;index.*:latency(2)@0.1;wal.append:torn@0.2 *)

  let ( let* ) = Result.bind

  let parse_prob s =
    match float_of_string_opt (String.trim s) with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | Some _ | None -> Error (Printf.sprintf "bad probability %S" s)

  let parse_kind s =
    let s = String.trim s in
    match s with
    | "exn" -> Ok Exn
    | "torn" -> Ok Torn
    | _ ->
        let l = String.length s in
        if l > 9 && String.sub s 0 8 = "latency(" && s.[l - 1] = ')' then
          match float_of_string_opt (String.sub s 8 (l - 9)) with
          | Some ms when ms >= 0. -> Ok (Latency ms)
          | Some _ | None -> Error (Printf.sprintf "bad latency %S" s)
        else Error (Printf.sprintf "unknown fault kind %S" s)

  let parse_clause clause =
    let clause = String.trim clause in
    match String.index_opt clause ':' with
    | None -> Error (Printf.sprintf "clause %S needs site:kind" clause)
    | Some i ->
        let site = String.trim (String.sub clause 0 i) in
        if site = "" then Error (Printf.sprintf "clause %S has no site" clause)
        else
          let rest = String.sub clause (i + 1) (String.length clause - i - 1) in
          let* kind, p =
            match String.index_opt rest '@' with
            | None ->
                let* k = parse_kind rest in
                Ok (k, 1.)
            | Some j ->
                let* k = parse_kind (String.sub rest 0 j) in
                let* p =
                  parse_prob
                    (String.sub rest (j + 1) (String.length rest - j - 1))
                in
                Ok (k, p)
          in
          Ok (`Rule (site, kind, p))

  let of_spec spec =
    let clauses =
      String.split_on_char ';' spec
      |> List.map String.trim
      |> List.filter (fun c -> c <> "")
    in
    if clauses = [] then Error "empty fault spec"
    else
      let* seed, rules =
        List.fold_left
          (fun acc clause ->
            let* seed, rules = acc in
            let l = String.length clause in
            if l >= 5 && String.sub clause 0 5 = "seed=" then
              match int_of_string_opt (String.sub clause 5 (l - 5)) with
              | Some s -> Ok (s, rules)
              | None -> Error (Printf.sprintf "bad seed in %S" clause)
            else
              let* (`Rule r) = parse_clause clause in
              Ok (seed, r :: rules))
          (Ok (0, []))
          clauses
      in
      Ok (make ~seed (List.rev rules))

  let of_env () =
    match Workload.Config.fault () with
    | None -> Ok None
    | Some spec -> (
        match of_spec spec with
        | Ok t -> Ok (Some t)
        | Error msg -> Error msg)
end
