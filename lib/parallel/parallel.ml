type task = unit -> unit

type pool = {
  n_domains : int; (* total participants, caller included *)
  mutex : Mutex.t;
  wake : Condition.t;
  tasks : task Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
  mutable overhead : float;
      (* measured per-job dispatch overhead in seconds; negative until
         the first calibration (lazy, once per pool) *)
}

(* Hardware parallelism available to this process. A pool may be
   configured with more domains than cores (IQ_DOMAINS=8 on a laptop in
   a container); activating them all just multiplies stop-the-world
   minor-GC synchronization without adding compute, so jobs cap their
   active participants here. *)
let cores = Domain.recommended_domain_count ()

(* True while the current domain is executing inside a pool operation
   (as a worker, or as a caller draining its own chunks). Nested
   operations then run sequentially instead of re-entering the
   scheduler, which is both deadlock-free and deterministic. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

let default_domains () =
  let default = Int.max 1 (Domain.recommended_domain_count () - 1) in
  match Sys.getenv_opt "IQ_DOMAINS" with
  | None -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> default)

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.tasks && not pool.stopped do
    Condition.wait pool.wake pool.mutex
  done;
  if Queue.is_empty pool.tasks then Mutex.unlock pool.mutex (* stopped *)
  else begin
    let task = Queue.pop pool.tasks in
    Mutex.unlock pool.mutex;
    task ();
    worker_loop pool
  end

(* Pools created and not yet shut down — the serving layer asserts
   exactly one per process (see bin/iq_tool.ml). *)
let live_pools = Atomic.make 0

let live () = Atomic.get live_pools

let create ?domains () =
  let n = match domains with Some n -> n | None -> default_domains () in
  if n < 1 then invalid_arg "Parallel.create: domains < 1";
  Atomic.incr live_pools;
  let pool =
    {
      n_domains = n;
      mutex = Mutex.create ();
      wake = Condition.create ();
      tasks = Queue.create ();
      stopped = false;
      workers = [||];
      overhead = -1.;
    }
  in
  (* Never spawn more workers than spare cores: an idle domain is not
     free — every minor collection is a stop-the-world handshake across
     all live domains, so a parked worker on a 1-CPU host roughly
     doubles GC pauses. Oversubscribed pools (IQ_DOMAINS=8 on a small
     container) keep their configured size for reporting but only
     materialize the domains the host can actually run. *)
  pool.workers <-
    Array.init
      (Int.min (n - 1) (Int.max 0 (cores - 1)))
      (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set inside_pool true;
            worker_loop pool));
  pool

let domains pool = pool.n_domains

let shutdown pool =
  Mutex.lock pool.mutex;
  let first = not pool.stopped in
  pool.stopped <- true;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex;
  if first then Atomic.decr live_pools;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

let shared = ref None

let default () =
  match !shared with
  | Some pool -> pool
  | None ->
      let pool = create () in
      shared := Some pool;
      at_exit (fun () -> shutdown pool);
      pool

(* A fork-join job: chunks are claimed off [cursor]; [completed]
   counts chunks fully processed by whoever ran them. The caller
   participates, then blocks on [done_cond] until the last in-flight
   chunk lands. The first exception is kept and the cursor exhausted
   so remaining chunks are abandoned fast. *)
type job = {
  lo : int;
  chunk : int;
  n_chunks : int;
  body : int -> unit;
  stop_req : unit -> bool;
  on_chunk : unit -> unit;
  cursor : int Atomic.t;
  completed : int Atomic.t;
  failure : exn option Atomic.t;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
}

let run_chunks job hi =
  let continue = ref true in
  while !continue do
    let c = Atomic.fetch_and_add job.cursor 1 in
    if c >= job.n_chunks then continue := false
    else begin
      let start = job.lo + (c * job.chunk) in
      let stop = Int.min hi (start + job.chunk) in
      (* After a failure — or once [stop_req] asks for cancellation —
         the remaining chunks are still claimed (so the completion
         count converges and the caller's wait can never wedge) but
         their bodies are skipped: a tripped budget drains the job
         without leaving a worker live on abandoned work. [stop_req]
         and [on_chunk] are caller code, so their exceptions are
         captured exactly like body ones. *)
      begin
        try
          if Atomic.get job.failure = None && not (job.stop_req ()) then begin
            job.on_chunk ();
            for i = start to stop - 1 do
              job.body i
            done
          end
        with e -> ignore (Atomic.compare_and_set job.failure None (Some e))
      end;
      let finished = 1 + Atomic.fetch_and_add job.completed 1 in
      if finished = job.n_chunks then begin
        Mutex.lock job.done_mutex;
        Condition.broadcast job.done_cond;
        Mutex.unlock job.done_mutex
      end
    end
  done

(* The sequential bypass mirrors the chunked semantics: with neither
   hook supplied it is the plain loop (byte-identical to pre-pool
   code); with hooks it checks [stop] before every index — finer
   grained than the parallel path's chunk boundaries, which only
   means cancellation lands sooner. *)
let sequential_for ~stop ~on_chunk ~lo ~hi f =
  match (stop, on_chunk) with
  | None, None ->
      for i = lo to hi - 1 do
        f i
      done
  | _ ->
      let stop = match stop with Some s -> s | None -> fun () -> false in
      (match on_chunk with Some h -> h () | None -> ());
      let i = ref lo in
      while !i < hi && not (stop ()) do
        f !i;
        incr i
      done

let make_job ~lo ~chunk ~n_chunks ~body ~stop_req ~on_chunk =
  {
    lo;
    chunk;
    n_chunks;
    body;
    stop_req;
    on_chunk;
    cursor = Atomic.make 0;
    completed = Atomic.make 0;
    failure = Atomic.make None;
    done_mutex = Mutex.create ();
    done_cond = Condition.create ();
  }

(* Enqueue [helpers] worker tasks, participate on the caller, wait for
   the last in-flight chunk, re-raise the first captured failure. With
   [helpers = 0] this is still the full job machinery — same chunk
   boundaries for [stop], same failure drain — just all on the
   caller. *)
let run_job pool job hi ~helpers =
  if helpers > 0 then begin
    Mutex.lock pool.mutex;
    for _ = 1 to helpers do
      Queue.add (fun () -> run_chunks job hi) pool.tasks
    done;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.mutex
  end;
  Domain.DLS.set inside_pool true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set inside_pool false)
    (fun () -> run_chunks job hi);
  Mutex.lock job.done_mutex;
  while Atomic.get job.completed < job.n_chunks do
    Condition.wait job.done_cond job.done_mutex
  done;
  Mutex.unlock job.done_mutex;
  match Atomic.get job.failure with None -> () | Some e -> raise e

(* How long it takes to dispatch a job at all: set-up, queueing, worker
   wake-up and the completion handshake, measured with empty bodies
   (median of three to shrug off a scheduler blip). The caller
   participates in its own probe jobs, so calibration cannot wedge
   even if every worker is busy elsewhere. Chunks whose work does not
   amortize this are not worth shipping to another domain. *)
let dispatch_overhead pool =
  if pool.overhead >= 0. then pool.overhead
  else begin
    let sample () =
      let job =
        make_job ~lo:0 ~chunk:1 ~n_chunks:2 ~body:ignore
          ~stop_req:(fun () -> false)
          ~on_chunk:(fun () -> ())
      in
      let t0 = Unix.gettimeofday () in
      run_job pool job 2 ~helpers:(Int.min 1 (Array.length pool.workers));
      Unix.gettimeofday () -. t0
    in
    let s = Array.init 3 (fun _ -> sample ()) in
    Array.sort compare s;
    pool.overhead <- Float.max 0. s.(1);
    pool.overhead
  end

let parallel_for ?stop ?on_chunk pool ~lo ~hi f =
  let len = hi - lo in
  if len <= 0 then ()
  else if
    pool.n_domains = 1 || pool.stopped || len = 1
    || Domain.DLS.get inside_pool
  then sequential_for ~stop ~on_chunk ~lo ~hi f
  else begin
    let stop_req = match stop with Some s -> s | None -> fun () -> false in
    let hook = match on_chunk with Some h -> h | None -> fun () -> () in
    let active = Int.min pool.n_domains cores in
    if active <= 1 || Array.length pool.workers = 0 then begin
      (* More domains than cores collapses to one active participant:
         on a single-core host a second mutator only adds GC
         synchronization stalls, so the caller keeps all the work —
         still chunked through the job machinery so cancellation and
         failure-drain behave exactly like the parallel path. *)
      let n_chunks = Int.min len 4 in
      let chunk = (len + n_chunks - 1) / n_chunks in
      run_job pool
        (make_job ~lo ~chunk ~n_chunks ~body:f ~stop_req ~on_chunk:hook)
        hi ~helpers:0
    end
    else begin
      (* Run the first nominal chunk inline as a timing probe, then
         size the remaining chunks so each amortizes the measured
         dispatch overhead at least 4x. Cheap loops thus stay
         sequential automatically; expensive ones still over-decompose
         (4 chunks per active domain) for cursor load-balancing. *)
      let nominal = Int.min len (active * 4) in
      let probe_len = (len + nominal - 1) / nominal in
      let probe_hi = Int.min hi (lo + probe_len) in
      let t0 = Unix.gettimeofday () in
      if not (stop_req ()) then begin
        (* Probe items run under the same nested-sequential rule as
           chunked ones; a probe exception propagates directly (nothing
           has been dispatched yet — still exactly once). *)
        Domain.DLS.set inside_pool true;
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set inside_pool false)
          (fun () ->
            hook ();
            for i = lo to probe_hi - 1 do
              f i
            done)
      end;
      let t_probe = Unix.gettimeofday () -. t0 in
      let remaining = hi - probe_hi in
      if remaining > 0 then begin
        let oh = dispatch_overhead pool in
        let t_item =
          Float.max t_probe 1e-6 /. float_of_int (probe_hi - lo)
        in
        let min_chunk =
          Int.max 1 (int_of_float (Float.ceil (4. *. oh /. t_item)))
        in
        let n_chunks = Int.max 1 (Int.min (active * 4) (remaining / min_chunk)) in
        if n_chunks = 1 then sequential_for ~stop ~on_chunk ~lo:probe_hi ~hi f
        else begin
          let chunk = (remaining + n_chunks - 1) / n_chunks in
          let job =
            make_job ~lo:probe_hi ~chunk ~n_chunks ~body:f ~stop_req
              ~on_chunk:hook
          in
          let helpers =
            Int.min (Array.length pool.workers)
              (Int.min (n_chunks - 1) (active - 1))
          in
          run_job pool job hi ~helpers
        end
      end
    end
  end

let map_array ?stop ?on_chunk pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f arr.(0)) in
    parallel_for ?stop ?on_chunk pool ~lo:1 ~hi:n (fun i ->
        (* Each iteration writes a distinct cell, so no two domains
           touch the same slot. *)
        out.(i) <- f arr.(i));
    out
  end
