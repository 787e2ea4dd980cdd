(* In-memory spans recorded around calls into each layer. A span keeps
   its parent, the request it belongs to and the minor-heap words
   allocated while it was open; self time subtracts the time covered by
   its child spans. *)

type span = {
  id : int;
  name : string;
  req : int;  (** request id, -1 outside requests *)
  parent : int;  (** span id, -1 at the root *)
  start : float;  (** seconds *)
  stop : float;
  minor_words : float;
  mutable child_s : float;  (** summed duration of direct children *)
}

type t = { mutable spans : span list; mutable next : int; mutable stack : span list }

let create () = { spans = []; next = 0; stack = [] }

let duration s = s.stop -. s.start
let self_s s = duration s -. s.child_s

let with_span t ~req name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let open_ =
    {
      id;
      name;
      req;
      parent;
      start = 0.;
      stop = 0.;
      minor_words = 0.;
      child_s = 0.;
    }
  in
  t.stack <- open_ :: t.stack;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    let s = { open_ with start = t0; stop = t1; minor_words = w1 -. w0 } in
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
    (match t.stack with p :: _ -> p.child_s <- p.child_s +. duration s | [] -> ());
    s.child_s <- open_.child_s;
    t.spans <- s :: t.spans
  in
  Fun.protect ~finally:finish f

(* Run [f] inside a span when tracing, plainly otherwise. *)
let span tr ~req name f =
  match tr with None -> f () | Some t -> with_span t ~req name f

let spans t = List.rev t.spans
let named t name = List.filter (fun s -> String.equal s.name name) (spans t)

let to_json s =
  Printf.sprintf
    {|{"id":%d,"name":"%s","req":%d,"parent":%d,"start":%.6f,"end":%.6f,"self_ms":%.4f,"minor_words":%.0f}|}
    s.id s.name s.req s.parent s.start s.stop (1000. *. self_s s) s.minor_words

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun s -> output_string oc (to_json s ^ "\n")) (spans t))
