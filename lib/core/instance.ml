open Geom

type t = {
  raw : Vec.t array;
  features : Vec.t array;
  flat : Flat.t; (* SoA view of [features]; patched in step with it *)
  utility : Topk.Utility.t;
  order : Topk.Utility.order;
  queries : Topk.Query.t array;
  qflat : Flat.t; (* SoA view of the query weight vectors *)
}

let qweights queries = Array.map (fun q -> q.Topk.Query.weights) queries

(* Every prefix and threshold is a ranking by score, and a NaN score
   has no place in that order (an infinity yields one as soon as it
   meets a zero weight or its opposite), so no such input gets in. *)
let check_finite fn what v =
  if not (Array.for_all Float.is_finite v) then
    invalid_arg (Printf.sprintf "Instance.%s: non-finite %s" fn what)

(* The feature image of one object's raw attributes, both checked. *)
let object_features fn utility raw =
  check_finite fn "object attribute" raw;
  let feat = utility.Topk.Utility.features raw in
  check_finite fn "object feature" feat;
  feat

let create ?utility ?(order = Topk.Utility.Asc) ~data ~queries () =
  if Array.length data = 0 then invalid_arg "Instance.create: empty data";
  let d_raw = Vec.dim data.(0) in
  let utility =
    match utility with Some u -> u | None -> Topk.Utility.linear d_raw
  in
  if utility.Topk.Utility.dim_in <> d_raw then
    invalid_arg "Instance.create: utility dim_in mismatch";
  Array.iter
    (fun p ->
      if Vec.dim p <> d_raw then
        invalid_arg "Instance.create: ragged object attributes")
    data;
  let features = Array.map (object_features "create" utility) data in
  let queries =
    Array.of_list
      (List.map
         (fun (q : Topk.Query.t) ->
           if Vec.dim q.Topk.Query.weights <> utility.Topk.Utility.dim_out
           then invalid_arg "Instance.create: query weight arity mismatch";
           check_finite "create" "query weight" q.Topk.Query.weights;
           {
             q with
             Topk.Query.weights =
               Topk.Utility.effective_weights order q.Topk.Query.weights;
           })
         queries)
  in
  {
    raw = data;
    features;
    flat = Flat.of_rows features;
    utility;
    order;
    queries;
    qflat = Flat.of_rows (qweights queries);
  }

let n_objects t = Array.length t.features
let n_queries t = Array.length t.queries
let dim t = t.utility.Topk.Utility.dim_out
let dim_raw t = t.utility.Topk.Utility.dim_in

let max_k t =
  Array.fold_left (fun acc q -> Int.max acc q.Topk.Query.k) 1 t.queries

let score t ~q id = Vec.dot t.queries.(q).Topk.Query.weights t.features.(id)
let score_vec t ~q v = Vec.dot t.queries.(q).Topk.Query.weights v
let improved t ~target ~s = Vec.add t.features.(target) s

let with_feature t ~target v =
  let features = Array.copy t.features in
  features.(target) <- v;
  let raw =
    if t.utility.Topk.Utility.dim_in = t.utility.Topk.Utility.dim_out then begin
      (* Linear utilities: feature space IS raw space. *)
      let raw = Array.copy t.raw in
      raw.(target) <- v;
      raw
    end
    else t.raw
  in
  { t with raw; features; flat = Flat.update_row t.flat target v }

let query_points t = Array.map (fun q -> q.Topk.Query.weights) t.queries

let add_query t (q : Topk.Query.t) =
  if Vec.dim q.Topk.Query.weights <> t.utility.Topk.Utility.dim_out then
    invalid_arg "Instance.add_query: weight arity mismatch";
  check_finite "add_query" "query weight" q.Topk.Query.weights;
  let q =
    {
      q with
      Topk.Query.weights =
        Topk.Utility.effective_weights t.order q.Topk.Query.weights;
    }
  in
  {
    t with
    queries = Array.append t.queries [| q |];
    qflat = Flat.append_row t.qflat q.Topk.Query.weights;
  }

let remove_query t i =
  let m = Array.length t.queries in
  if i < 0 || i >= m then invalid_arg "Instance.remove_query: bad index";
  let queries =
    Array.init (m - 1) (fun j -> if j < i then t.queries.(j) else t.queries.(j + 1))
  in
  { t with queries; qflat = Flat.remove_row t.qflat i }

let add_object t raw_attrs =
  if Vec.dim raw_attrs <> t.utility.Topk.Utility.dim_in then
    invalid_arg "Instance.add_object: attribute arity mismatch";
  let feat = object_features "add_object" t.utility raw_attrs in
  {
    t with
    raw = Array.append t.raw [| raw_attrs |];
    features = Array.append t.features [| feat |];
    flat = Flat.append_row t.flat feat;
  }

let update_object t id raw_attrs =
  let n = Array.length t.features in
  if id < 0 || id >= n then invalid_arg "Instance.update_object: bad id";
  if Vec.dim raw_attrs <> t.utility.Topk.Utility.dim_in then
    invalid_arg "Instance.update_object: attribute arity mismatch";
  let raw = Array.copy t.raw in
  let features = Array.copy t.features in
  raw.(id) <- raw_attrs;
  features.(id) <- object_features "update_object" t.utility raw_attrs;
  { t with raw; features; flat = Flat.update_row t.flat id features.(id) }

let remove_object t id =
  let n = Array.length t.features in
  if n <= 1 then invalid_arg "Instance.remove_object: last object";
  if id < 0 || id >= n then invalid_arg "Instance.remove_object: bad id";
  let drop arr =
    Array.init (n - 1) (fun j -> if j < id then arr.(j) else arr.(j + 1))
  in
  {
    t with
    raw = drop t.raw;
    features = drop t.features;
    flat = Flat.remove_row t.flat id;
  }
