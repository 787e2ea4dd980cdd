type entry = {
  e_eval : Evaluator.t;
  e_state : Ese.state option;
}

type t = {
  generation : int;
  index : Query_index.t;
  prune : bool;
  lock : Mutex.t;
  cache : (int, entry) Hashtbl.t;
  mutable onion : Topk.Onion.t option;
      (* both mutable members are lock-guarded caches of pure
         functions of the frozen [index]; see the interface *)
}

let make ~generation ~prune index =
  {
    generation;
    index;
    prune;
    lock = Mutex.create ();
    cache = Hashtbl.create 16;
    onion = None;
  }

let root ?(generation = 0) ~prune index = make ~generation ~prune index

let next t index = make ~generation:(t.generation + 1) ~prune:t.prune index

let generation t = t.generation

let index t = t.index

let instance t = Query_index.instance t.index

let pruning t = t.prune

let size_words t = Query_index.size_words t.index

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_entry t target = Hashtbl.find_opt t.cache target

let set_entry t target e = Hashtbl.replace t.cache target e

let layers t =
  if not t.prune then None
  else begin
    let onion =
      match t.onion with
      | Some onion -> onion
      | None ->
          let onion =
            Topk.Onion.build (Query_index.instance t.index).Instance.features
          in
          t.onion <- Some onion;
          onion
    in
    Some (Topk.Onion.layer_of onion)
  end

let onion_layers t = Option.map Topk.Onion.layer_count t.onion

let eval_total t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ e acc -> acc + e.e_eval.Evaluator.evaluations ())
        t.cache 0)
