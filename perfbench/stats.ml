(* Order statistics and request classification. *)

(* 1-based nearest rank of the [p]-th percentile among [n] samples. The
   slack keeps binary rounding (99.9 * n) from bumping an exact rank. *)
let rank p n = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile p samples =
  let n = Array.length samples in
  if n = 0 then nan
  else
    let s = Array.copy samples in
    Array.sort Float.compare s;
    s.(Int.max 0 (Int.min (n - 1) (rank p n - 1)))

let median samples = percentile 50. samples

(* Samples ranked above the [p]-th percentile. *)
let beyond p n = n - rank p n

let tail_candidates = [ 99.9; 99.; 95.; 90.; 75. ]

(* The tail percentile of [n] samples: the highest candidate with at
   least ten samples beyond it, falling back to the median. *)
let tail_percentile n =
  match List.find_opt (fun p -> beyond p n >= 10) tail_candidates with
  | Some p -> p
  | None -> 50.

type read_class = Warm | After_write

(* A read is [After_write] when one or more writes ran since the
   previous read. [None] marks the writes themselves. *)
let classify (is_write : 'a -> bool) (ops : 'a array) =
  let dirty = ref false in
  Array.map
    (fun op ->
      if is_write op then begin
        dirty := true;
        None
      end
      else begin
        let c = if !dirty then After_write else Warm in
        dirty := false;
        Some c
      end)
    ops
