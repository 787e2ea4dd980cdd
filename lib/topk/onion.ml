type kind = Convex_hull_2d | Dominance_peeling

type t = {
  kind : kind;
  layers : int array array;
  layer_of : int array;
}

let key (p : Geom.Vec.t) = (p.(0), p.(1))

(* 2-D: peel convex hulls; map hull points back to ids (duplicates all
   join the layer of their coordinates). *)
let build_2d data =
  let n = Array.length data in
  let layer_of = Array.make n (-1) in
  let remaining = ref (List.init n Fun.id) in
  let layers = ref [] in
  let layer_idx = ref 0 in
  while !remaining <> [] do
    let pts = List.map (fun id -> data.(id)) !remaining in
    let hull = Geom.Chull.hull pts in
    let hull_keys = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace hull_keys (key p) ()) hull;
    let in_layer, rest =
      List.partition (fun id -> Hashtbl.mem hull_keys (key data.(id))) !remaining
    in
    (* Degenerate safety: a hull of collinear/duplicate points must
       still consume something. *)
    let in_layer, rest =
      match in_layer with [] -> (!remaining, []) | _ -> (in_layer, rest)
    in
    List.iter (fun id -> layer_of.(id) <- !layer_idx) in_layer;
    layers := Array.of_list in_layer :: !layers;
    remaining := rest;
    incr layer_idx
  done;
  {
    kind = Convex_hull_2d;
    layers = Array.of_list (List.rev !layers);
    layer_of;
  }

let build data =
  let d = if Array.length data = 0 then 0 else Geom.Vec.dim data.(0) in
  if d = 2 then build_2d data
  else begin
    let dom = Dominance.build data in
    {
      kind = Dominance_peeling;
      layers = Dominance.layers dom;
      layer_of = Array.init (Array.length data) (Dominance.layer_of dom);
    }
  end

let kind t = t.kind
let layer_count t = Array.length t.layers
let layer_of t id = t.layer_of.(id)
let layers t = t.layers

let better (s1, i1) (s2, i2) = s1 < s2 || (s1 = s2 && i1 < i2)

let top_k t ~data ~weights ~k =
  (match t.kind with
  | Convex_hull_2d -> ()
  | Dominance_peeling ->
      Array.iter
        (fun w -> if w < 0. then invalid_arg "Onion.top_k: negative weight")
        weights);
  let depth = Int.min k (Array.length t.layers) in
  let candidates = ref [] in
  for j = 0 to depth - 1 do
    Array.iter
      (fun id ->
        candidates := (Geom.Vec.dot weights data.(id), id) :: !candidates)
      t.layers.(j)
  done;
  let sorted =
    List.sort
      (fun a b -> if better a b then -1 else if better b a then 1 else 0)
      !candidates
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (_, id) :: rest -> id :: take (n - 1) rest
  in
  take k sorted

let size_words t =
  Array.length t.layer_of + (2 * Array.length t.layers)
