(* Seeded workload generation: datasets, the hot challenger set and the
   operation sequence. Everything here is a pure function of the seed
   and the workload shape, and runs before any timed section. *)

type kind = Min_cost | Max_hit

type op =
  | Read of { kind : kind; target : int }
  | Update of { id : int; raw : float array }
  | Add_query of { k : int; weights : float array }
  | Remove_query of int

type shape = {
  name : string;
  n : int;  (** objects *)
  m : int;  (** queries *)
  rounds : int;  (** [read-warm]: rounds of warm reads, a write sub-burst, one read *)
  round_reads : int;  (** [read-warm]: warm reads per round *)
  round_writes : int;  (** [read-warm]: writes per sub-burst *)
  blocks : int;  (** [churn]: write-then-4-reads blocks *)
  reach_anchor : int;  (** the reach the hot set is anchored at (see [challengers]) *)
  rewarm : bool;
      (** re-prepare the hot set, untimed, after each read that follows a
          write, so that the next warm reads find every evaluator cached *)
  repeats : int;  (** setups and recoveries per run; the median is reported *)
}

let dim = 3
let k_range = (1, 10)

(* The challenger margin: a challenger sits within this many ranks
   behind some query's top-k. *)
let margin = 10

(* [seconds] sets the number of reads, calibrated so that the measured
   phase lasts about that long on a 2-core x86 VM; dataset sizes and
   write counts are fixed per workload: 8 sub-bursts of 13 writes on
   [read-warm], and at least 84 blocks (100 writes) on [churn]. The
   sub-bursts are spread over the run rather than bunched at its end,
   so that their latencies average over the same stretch of host load
   as the reads. *)
let shape ~name ~seconds =
  let s = Int.max 1 seconds in
  match name with
  | "read-warm" ->
      Some
        {
          name;
          n = 20_000;
          m = 2_000;
          rounds = 8;
          round_reads = 2 * s;
          round_writes = 13;
          blocks = 0;
          reach_anchor = 50;
          rewarm = true;
          repeats = 5;
        }
  | "churn" ->
      Some
        {
          name;
          n = 5_000;
          m = 1_000;
          rounds = 0;
          round_reads = 0;
          round_writes = 0;
          blocks = Int.max 84 (4 * s);
          reach_anchor = 100;
          rewarm = false;
          repeats = 9;
        }
  | _ -> None

let is_write = function Read _ -> false | Update _ | Add_query _ | Remove_query _ -> true

(* Rank order of the engine: a lower score is better, ties go to the
   lower id (Iq.Evaluator.better). *)
let better (s1, i1) (s2, i2) = s1 < s2 || (s1 = s2 && i1 < i2)

(* The [depth] best (score, id) pairs of one query, best first. *)
let best_of ~depth (data : float array array) (w : float array) =
  let best = Array.make depth (infinity, max_int) in
  let filled = ref 0 in
  Array.iteri
    (fun id x ->
      let s = ref 0. in
      Array.iteri (fun j wj -> s := !s +. (wj *. x.(j))) w;
      let cand = (!s, id) in
      if !filled < depth || better cand best.(depth - 1) then begin
        let pos = ref (Int.min !filled (depth - 1)) in
        while !pos > 0 && better cand best.(!pos - 1) do
          best.(!pos) <- best.(!pos - 1);
          decr pos
        done;
        best.(!pos) <- cand;
        if !filled < depth then incr filled
      end)
    data;
  Array.sub best 0 (Int.min depth (Array.length data))

(* The reach depth: an object's reach is the number of queries that rank
   it within this many places behind their top-k. *)
let reach_depth = 40

(* Hot targets per run. *)
let hot_size = 24

(* The hot target set. Challengers are the objects that are in no
   query's top-k but within [margin] ranks of at least one query's
   top-k: they start at zero hits and a bounded move reaches some
   queries. The cost of evaluating a strategy grows with the number of
   queries near the target, so challengers differ up to eightfold in
   cost per request, and a seed's challengers can sit mostly at one end
   of that range. The hot set is the [hot_size] challengers whose reach
   is closest to [anchor] (ties to the lower id), which gives requests
   of comparable size whichever seed drew the data. The time of a
   Max-Hit request grows about linearly with reach above a floor whose
   extent depends on the data's density, so each workload sets its own
   anchor, at the top of that floor. Sorted by id. *)
let challengers ~anchor (data : float array array) (queries : Topk.Query.t list) =
  let n = Array.length data in
  let hit = Array.make n false and near = Array.make n false in
  let reach = Array.make n 0 in
  List.iter
    (fun (q : Topk.Query.t) ->
      let best = best_of ~depth:(q.k + reach_depth) data q.weights in
      Array.iteri
        (fun rank (_, id) ->
          if rank < q.k then hit.(id) <- true
          else begin
            reach.(id) <- reach.(id) + 1;
            if rank < q.k + margin then near.(id) <- true
          end)
        best)
    queries;
  let distance id = abs (reach.(id) - anchor) in
  let hot =
    List.filter (fun id -> near.(id) && not hit.(id)) (List.init n Fun.id)
    |> List.stable_sort (fun a b -> Int.compare (distance a) (distance b))
    |> List.filteri (fun i _ -> i < hot_size)
    |> Array.of_list
  in
  Array.sort Int.compare hot;
  hot

(* Zipf(1.0) sampler over popularity ranks [0, h): rank r has weight
   1/(r+1). *)
let zipf rng h =
  let cdf = Array.make h 0. in
  let acc = ref 0. in
  for r = 0 to h - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  fun () ->
    let u = Workload.Rng.uniform rng *. !acc in
    let lo = ref 0 and hi = ref (h - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    !lo

let drift = 20

let point rng = Array.init dim (fun _ -> Workload.Rng.uniform rng)

type t = {
  shape : shape;
  data : float array array;
  queries : Topk.Query.t list;
  hot : int array;  (** challenger ids, sorted *)
  ops : op array;
}

let make shape ~seed =
  let rng = Workload.Rng.make seed in
  let data =
    Workload.Datagen.generate rng Workload.Datagen.Independent ~n:shape.n ~d:dim
  in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range ~m:shape.m
      ~d:dim ()
  in
  let hot = challengers ~anchor:shape.reach_anchor data queries in
  if Array.length hot = 0 then invalid_arg "Gen.make: empty challenger set";
  let is_hot = Array.make shape.n false in
  Array.iter (fun id -> is_hot.(id) <- true) hot;
  let next_rank = zipf rng (Array.length hot) in
  (* Popularity drifts: the rank order is re-drawn every [drift] reads.
     Within a window the mix is Zipf-skewed; over a run every hot target
     is drawn about equally often, so a run's latency percentiles do not
     hinge on the cost of the two or three targets one seed happens to
     rank first. *)
  let order = Array.copy hot in
  let reads = ref 0 in
  (* Kinds alternate within each read class (warm, after a write), from a
     seeded start, so every run has the same number of samples of each
     class and kind, and so the same tail percentile. *)
  let flip = Workload.Rng.int rng 2 in
  let served = [| flip; flip |] in
  let read ~after_write =
    if !reads mod drift = 0 then Workload.Rng.shuffle rng order;
    incr reads;
    let cls = Bool.to_int after_write in
    let kind = if served.(cls) mod 2 = 0 then Min_cost else Max_hit in
    served.(cls) <- served.(cls) + 1;
    Read { kind; target = order.(next_rank ()) }
  in
  (* Moves touch cold objects only, so each hot target's own position
     (and the request's size) stays put while its rivals shift. *)
  let rec cold () =
    let id = Workload.Rng.int rng shape.n in
    if is_hot.(id) then cold () else id
  in
  let update () = Update { id = cold (); raw = point rng } in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  for _ = 1 to shape.rounds do
    for _ = 1 to shape.round_reads do
      push (read ~after_write:false)
    done;
    for _ = 1 to shape.round_writes do
      push (update ())
    done;
    push (read ~after_write:true)
  done;
  for b = 1 to shape.blocks do
    (* Every fifth block swaps a query instead of moving an object; the
       add/remove pair keeps m constant. *)
    if b mod 5 = 0 then begin
      let k = Workload.Rng.int_in rng (fst k_range) (snd k_range) in
      push (Add_query { k; weights = point rng });
      push (Remove_query (Workload.Rng.int rng (shape.m + 1)))
    end
    else push (update ());
    push (read ~after_write:true);
    for _ = 1 to 3 do
      push (read ~after_write:false)
    done
  done;
  { shape; data; queries; hot; ops = Array.of_list (List.rev !ops) }

let kind_name = function Min_cost -> "min_cost" | Max_hit -> "max_hit"

let op_to_string = function
  | Read { kind; target } -> Printf.sprintf "R %s %d" (kind_name kind) target
  | Update { id; raw } ->
      Printf.sprintf "U %d %s" id
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") raw)))
  | Add_query { k; weights } ->
      Printf.sprintf "A %d %s" k
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%h") weights)))
  | Remove_query q -> Printf.sprintf "D %d" q

let digest_ops ops =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (Array.to_list (Array.map op_to_string ops))))

(* CSV writers for the real loader path. [%h] is exact, but the loader
   parses decimal text, so rows use 17 significant digits, which
   round-trip a double exactly. *)
let write_objects path data =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id,a0,a1,a2\n";
      Array.iteri
        (fun id x ->
          Printf.fprintf oc "%d,%.17g,%.17g,%.17g\n" id x.(0) x.(1) x.(2))
        data)

let write_queries path (queries : Topk.Query.t list) =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "k,w0,w1,w2\n";
      List.iter
        (fun (q : Topk.Query.t) ->
          let w = q.weights in
          Printf.fprintf oc "%d,%.17g,%.17g,%.17g\n" q.k w.(0) w.(1) w.(2))
        queries)
