type t = { lo : float; hi : float }

(* Float.min / Float.max with the ordered case inline; ties (signed zeros)
   and NaN fall through to the stdlib, so every result is the stdlib's. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else Float.min x y
let[@inline] fmax x y = if x > y then x else if y > x then y else Float.max x y

(* ------------------------------------------------------------------ *)
(* Outward rounding                                                    *)
(* ------------------------------------------------------------------ *)

(* One bit-pattern step (interval_stubs.c): Float.pred / Float.succ on
   finite inputs, the identity on infinities and NaN. *)
external lo_down : float -> float
  = "xcv_interval_lo_down_byte" "xcv_interval_lo_down"
[@@unboxed] [@@noalloc]

external hi_up : float -> float
  = "xcv_interval_hi_up_byte" "xcv_interval_hi_up"
[@@unboxed] [@@noalloc]

let ulp v =
  let a = Float.abs v in
  hi_up a -. a

(* Empty is canonically [{lo = +inf; hi = -inf}]. *)
let empty = { lo = Float.infinity; hi = Float.neg_infinity }
let is_empty i = not (i.lo <= i.hi)

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    invalid_arg "Interval.make: malformed bounds";
  { lo; hi }

let point x = make x x
let top = { lo = Float.neg_infinity; hi = Float.infinity }
let zero = point 0.0
let one = point 1.0
let nonneg = { lo = 0.0; hi = Float.infinity }

let of_bounds lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then empty else { lo; hi }

let is_point i = i.lo = i.hi
let is_bounded i = (not (is_empty i)) && Float.is_finite i.lo && Float.is_finite i.hi
let inf i = i.lo
let sup i = i.hi
let mem x i = i.lo <= x && x <= i.hi
let subset a b = is_empty a || (b.lo <= a.lo && a.hi <= b.hi)

let width i = if is_empty i then 0.0 else i.hi -. i.lo

let midpoint i =
  if is_empty i then invalid_arg "Interval.midpoint: empty interval";
  if Float.is_finite i.lo && Float.is_finite i.hi then begin
    let m = 0.5 *. (i.lo +. i.hi) in
    if Float.is_finite m then m else (0.5 *. i.lo) +. (0.5 *. i.hi)
  end
  else if Float.is_finite i.lo then fmax i.lo 1e150
  else if Float.is_finite i.hi then fmin i.hi (-1e150)
  else 0.0

let mag i = if is_empty i then 0.0 else fmax (Float.abs i.lo) (Float.abs i.hi)

let mig i =
  if is_empty i then 0.0
  else if i.lo > 0.0 then i.lo
  else if i.hi < 0.0 then -.i.hi
  else 0.0

let equal a b =
  (is_empty a && is_empty b) || (a.lo = b.lo && a.hi = b.hi)

let meet a b = of_bounds (fmax a.lo b.lo) (fmin a.hi b.hi)

let join a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = fmin a.lo b.lo; hi = fmax a.hi b.hi }

let split i =
  if is_empty i || is_point i then invalid_arg "Interval.split";
  let m = midpoint i in
  (* For ulp-wide intervals the midpoint rounds onto an endpoint, which
     would hand back a child identical to the parent and never terminate a
     splitting worklist. Nudge one ulp inward; if no interior float exists
     the interval is not splittable at all. *)
  let m =
    if m <= i.lo then hi_up i.lo
    else if m >= i.hi then lo_down i.hi
    else m
  in
  if not (i.lo < m && m < i.hi) then
    invalid_arg "Interval.split: no float strictly inside";
  ({ lo = i.lo; hi = m }, { lo = m; hi = i.hi })

(* ------------------------------------------------------------------ *)
(* Ring operations                                                     *)
(* ------------------------------------------------------------------ *)

let neg i = if is_empty i then empty else { lo = -.i.hi; hi = -.i.lo }

let add a b =
  if is_empty a || is_empty b then empty
  else of_bounds (lo_down (a.lo +. b.lo)) (hi_up (a.hi +. b.hi))

let sub a b = add a (neg b)

(* Endpoint product with the interval-arithmetic convention 0 * inf = 0
   (a zero endpoint means the factor can be exactly 0, and 0 times any finite
   approximant is 0). *)
let xmul x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

let mul a b =
  if is_empty a || is_empty b then empty
  else if (a.lo = 0.0 && a.hi = 0.0) || (b.lo = 0.0 && b.hi = 0.0) then
    (* {0} * Y = {0} exactly; skipping the outward widening here keeps
       identities like 0 * top = 0 crisp. *)
    { lo = 0.0; hi = 0.0 }
  else begin
    let p1 = xmul a.lo b.lo in
    let p2 = xmul a.lo b.hi in
    let p3 = xmul a.hi b.lo in
    let p4 = xmul a.hi b.hi in
    of_bounds
      (lo_down (fmin (fmin p1 p2) (fmin p3 p4)))
      (hi_up (fmax (fmax p1 p2) (fmax p3 p4)))
  end

let xdiv x y =
  if x = 0.0 then 0.0
  else if y = 0.0 then if x > 0.0 then Float.infinity else Float.neg_infinity
  else x /. y

let div a b =
  if is_empty a || is_empty b then empty
  else if b.lo = 0.0 && b.hi = 0.0 then empty (* no non-zero divisor *)
  else if b.lo < 0.0 && b.hi > 0.0 then
    (* Divisor straddles zero: the true set is a union of two rays; we return
       the hull, which is top unless the numerator is exactly 0. *)
    if a.lo = 0.0 && a.hi = 0.0 then zero else top
  else begin
    (* Divisor has constant sign (possibly with a zero endpoint). *)
    let q1 = xdiv a.lo b.lo in
    let q2 = xdiv a.lo b.hi in
    let q3 = xdiv a.hi b.lo in
    let q4 = xdiv a.hi b.hi in
    of_bounds
      (lo_down (fmin (fmin q1 q2) (fmin q3 q4)))
      (hi_up (fmax (fmax q1 q2) (fmax q3 q4)))
  end

(* Relational division, the projection the HC4 backward pass for products
   needs: [div_rel a b] over-approximates { x | exists y in b, x*y in a }.
   It differs from {!div} — the hull of pointwise quotients — exactly when
   [0] is in both arguments: x*0 = 0 holds for *every* x, so a zero divisor
   is no constraint at all rather than a contradiction. When [0] is not in
   [a], a zero divisor really is infeasible and {!div}'s answer (empty for
   b = {0}) is the right one. *)
let div_rel a b =
  if mem 0.0 a && mem 0.0 b then top else div a b

let inv a = div one a

let abs i =
  if is_empty i then empty
  else if i.lo >= 0.0 then i
  else if i.hi <= 0.0 then neg i
  else { lo = 0.0; hi = fmax (-.i.lo) i.hi }

(* ------------------------------------------------------------------ *)
(* Powers                                                              *)
(* ------------------------------------------------------------------ *)

let pow_bound b x =
  (* Round-to-nearest power used for both bounds before widening. *)
  Eval.pow_float b x

let pow_int_pos i n =
  (* i^n for n >= 1. *)
  if n land 1 = 1 then
    (* Odd power: monotone increasing. *)
    of_bounds
      (lo_down (pow_bound i.lo (float_of_int n)))
      (hi_up (pow_bound i.hi (float_of_int n)))
  else begin
    (* Even power: behaves like |i|^n. *)
    let a = abs i in
    of_bounds
      (lo_down (pow_bound a.lo (float_of_int n)))
      (hi_up (pow_bound a.hi (float_of_int n)))
  end

let rec pow_int i n =
  if is_empty i then empty
  else if n = 0 then one
  else if n > 0 then pow_int_pos i n
  else inv (pow_int i (-n))

let pow_nonneg_base i p =
  (* i^p for real p, base restricted to [0, inf): monotone in the base. *)
  let i = meet i nonneg in
  if is_empty i then empty
  else if p = 0.0 then one
  else if p > 0.0 then
    of_bounds (lo_down (pow_bound i.lo p)) (hi_up (pow_bound i.hi p))
  else begin
    (* Decreasing; 0^p = +inf. *)
    let hi = if i.lo = 0.0 then Float.infinity else hi_up (pow_bound i.lo p) in
    let lo = lo_down (pow_bound i.hi p) in
    of_bounds lo hi
  end

let pow i p =
  if is_empty i then empty
  else if Float.is_integer p && Float.abs p <= 1073741823.0 then
    pow_int i (int_of_float p)
  else pow_nonneg_base i p

(* [fmin]/[fmax] folded left to right over the non-NaN operands only: a
   NaN accumulator means no non-NaN value has been seen yet. *)
let[@inline] nan_skip_min a b =
  if Float.is_nan a then b else if Float.is_nan b then a else fmin a b

let[@inline] nan_skip_max a b =
  if Float.is_nan a then b else if Float.is_nan b then a else fmax a b

let pow_expr base expo =
  if is_empty base || is_empty expo then empty
  else if is_point expo then pow base expo.lo
  else begin
    (* Variable exponent: x^y = exp(y log x) on x > 0, plus the value at
       x = 0 (0^y = 0 for y > 0). Conservative: monotone corner analysis. *)
    let b = meet base nonneg in
    if is_empty b then empty
    else begin
      let c1 = pow_bound b.lo expo.lo and c2 = pow_bound b.lo expo.hi
      and c3 = pow_bound b.hi expo.lo and c4 = pow_bound b.hi expo.hi in
      (* Interior extrema of x^y on a box lie on the edges x in {b.lo,
         b.hi} or y in {expo.lo, expo.hi}, where the function is monotone
         in the remaining variable — corners suffice except across x = 1,
         which corner evaluation also covers since x^y is monotone in y
         for fixed x. NaN corners are skipped; if all four are NaN there
         is no value. *)
      let lo = nan_skip_min (nan_skip_min (nan_skip_min c1 c2) c3) c4 in
      if Float.is_nan lo then empty
      else
        let hi = nan_skip_max (nan_skip_max (nan_skip_max c1 c2) c3) c4 in
        of_bounds (lo_down lo) (hi_up hi)
    end
  end

(* ------------------------------------------------------------------ *)
(* Sign tests                                                          *)
(* ------------------------------------------------------------------ *)

let certainly_le i c = is_empty i || i.hi <= c
let certainly_lt i c = is_empty i || i.hi < c
let certainly_ge i c = is_empty i || i.lo >= c
let certainly_gt i c = is_empty i || i.lo > c
let possibly_le i c = (not (is_empty i)) && i.lo <= c
let possibly_lt i c = (not (is_empty i)) && i.lo < c

let pp ppf i =
  if is_empty i then Format.pp_print_string ppf "[empty]"
  else Format.fprintf ppf "[%.17g, %.17g]" i.lo i.hi

let to_string i = Format.asprintf "%a" pp i
