open Geom

type t = Vec.t

type limits = {
  adjust_lo : Vec.t;
  adjust_hi : Vec.t;
  value_lo : Vec.t;
  value_hi : Vec.t;
}

let unrestricted d =
  {
    adjust_lo = Vec.make d neg_infinity;
    adjust_hi = Vec.make d infinity;
    value_lo = Vec.make d neg_infinity;
    value_hi = Vec.make d infinity;
  }

let within_values ~lo ~hi =
  let d = Vec.dim lo in
  {
    adjust_lo = Vec.make d neg_infinity;
    adjust_hi = Vec.make d infinity;
    value_lo = lo;
    value_hi = hi;
  }

let freeze limits i =
  let adjust_lo = Vec.copy limits.adjust_lo
  and adjust_hi = Vec.copy limits.adjust_hi in
  adjust_lo.(i) <- 0.;
  adjust_hi.(i) <- 0.;
  { limits with adjust_lo; adjust_hi }

let freeze_all_but limits keep =
  let d = Vec.dim limits.adjust_lo in
  let result = ref limits in
  for i = 0 to d - 1 do
    if not (List.mem i keep) then result := freeze !result i
  done;
  !result

let bounds_for limits ~p =
  let d = Vec.dim p in
  let lo =
    Array.init d (fun j ->
        Float.max limits.adjust_lo.(j) (limits.value_lo.(j) -. p.(j)))
  in
  let hi =
    Array.init d (fun j ->
        Float.min limits.adjust_hi.(j) (limits.value_hi.(j) -. p.(j)))
  in
  { Lp.Projection.lo; hi }

let is_valid limits ~p s =
  let b = bounds_for limits ~p in
  let eps = 1e-9 in
  Vec.for_all2 (fun lo sj -> lo -. eps <= sj) b.Lp.Projection.lo s
  && Vec.for_all2 (fun sj hi -> sj <= hi +. eps) s b.Lp.Projection.hi

let apply p s = Vec.add p s
let zero d = Vec.zero d
