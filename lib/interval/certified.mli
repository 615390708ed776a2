(** Certified transcendental kernels: double-double polynomial evaluation
    with statically derived error bounds.

    Each kernel evaluates its function in double-double (dd) arithmetic —
    a (hi, lo) pair of doubles built from error-free transforms — and
    returns an {!Interval.t} whose radius is the sum of

    - the {e truncation} error of the polynomial approximation, bounded
      statically from the Taylor remainder on the reduced domain,
    - the {e rounding} error of the dd evaluation, bounded statically from
      the per-operation dd error bounds (each dd add/mul carries a relative
      error of a few units of [2^-104]),
    - the {e reduction} error of the argument reduction, bounded
      dynamically from the actual intermediates (e.g. [|k|] times the
      defect of the two-term [2*pi] constant),

    outward-rounded by one ulp per endpoint. The per-kernel bound is
    exposed as a constant so callers (and the differential oracle in
    [test/test_transcend.ml]) can reason about it. The kernels never
    consult libm for the value they certify, so their enclosures are sound
    under the same trust model as {!Interval} itself (IEEE-754 arithmetic
    with correctly rounded [+ - * /] and [Float.fma]); trig additionally
    evaluates libm {e inside} a certified argument window.

    Kernels return sound enclosures on their stated domains and fall back
    to a conservative hull outside them; dispatch policy (when to run a
    kernel at all) lives in {!Transcend}. *)

(** {1 Per-kernel error bounds}

    Relative bounds apply to the dd value computed by the kernel; see the
    derivations in [certified.ml]. *)

(** Relative error of the dd [exp] kernel on [[-670, 709]]. *)
val exp_rel_err : float

(** Relative error of [log m] on the reduced mantissa, plus the absolute
    error of the [e * ln 2] term; [log_abs_err] absorbs the latter. *)
val log_rel_err : float

val log_abs_err : float

(** Defect bound of the two-term [2*pi] used by {!reduce_two_pi}:
    [|2*pi - (hi + lo)| <= two_pi_defect]. *)
val two_pi_defect : float

(** Arguments beyond this magnitude (2^52) are not reduced — the integer
    quotient [k] would no longer be exactly representable. *)
val trig_reduce_max : float

(** {1 Double-double values}

    The kernels compute in double-double: [h + l] with [|l| <= ulp(h)/2],
    held in a flat record the dd arithmetic writes in place. The two
    kernel cores are exposed so the dd values themselves, not only the
    enclosures rounded from them, can be compared bit for bit in tests. *)

type dd = { mutable h : float; mutable l : float }

(** [exp_dd w] replaces the dd [w], which needs
    [-670 <= w.h <= 709], by its exponential; relative error
    {!exp_rel_err}, before any rounding to an enclosure. *)
val exp_dd : dd -> unit

(** [log_dd w x] sets [w] to the natural logarithm of the positive finite
    [x]; error at most [|w.h| * log_rel_err + log_abs_err]. *)
val log_dd : dd -> float -> unit

(** {1 Kernels} *)

(** [exp i]: certified enclosure of [e^x] over [i]. Sound on all inputs;
    the dd kernel engages for endpoints in [[-670, 709]], outside it
    falls back to the conservative monotone hull [[0, +inf]] seeded with
    the representable extremes. *)
val exp : Interval.t -> Interval.t

(** [log i]: certified enclosure of [ln x] over [i ∩ [0, +inf)]. *)
val log : Interval.t -> Interval.t

(** [pow_rat i r]: certified enclosure of [x^r] for the {e exact} rational
    [r], over nonnegative bases (negative bases contribute no values,
    matching {!Interval.pow}). Unlike [Interval.pow i (Rat.to_float r)]
    this accounts for the rounding of [p/q] to a float — an error of up to
    [|ln x| * ulp(r)/2] relative, which for extreme bases exceeds the
    blanket one-ulp widening of the float path. Integer rationals are
    delegated to {!Interval.pow_int} (bit-identical to the existing
    integer path). *)
val pow_rat : Interval.t -> Rat.t -> Interval.t

(** [reduce_two_pi x]: certified Cody–Waite argument reduction. Returns
    [(r_hi, r_lo, err)] with [x - k * 2 * pi ∈ [r - err, r + err]] for the
    integer [k] chosen nearest [x / (2*pi)], where [r = r_hi + r_lo] in dd.
    Requires [|x| <= trig_reduce_max]. *)
val reduce_two_pi : float -> float * float * float

(** [sin i], [cos i]: quadrant analysis on the certified-reduced argument.
    Valid for any magnitude up to {!trig_reduce_max} — this is what
    retires the old [2^20] cutoff — and [[-1, 1]] beyond (or when the
    width spans a full period, where [[-1, 1]] is exact). *)
val sin : Interval.t -> Interval.t

val cos : Interval.t -> Interval.t

(** [lambert_w i]: principal-branch enclosure with no NaN escapes. Each
    bound is certified by bracketing the interval-evaluated residual
    [w e^w - x] (using the certified {!exp}), stepping outward with a
    mixed absolute+relative stride; near the branch point the initial
    guess comes from the [p = sqrt(2(e x + 1))] series evaluated in
    interval arithmetic, so [x] values where the float kernel NaNs still
    get finite bounds. *)
val lambert_w : Interval.t -> Interval.t

(** [w_lo x] / [w_hi x]: the per-side certified bounds backing
    {!lambert_w}, exposed for {!Transcend}'s escape-repair dispatch. *)
val w_lo : float -> float

val w_hi : float -> float

(** {1 Dispatch counters}

    Registered under [transcend.*]; incremented by the kernels and by
    {!Transcend}'s dispatch. *)

val count_exp_kernel : unit -> unit
val count_exp_fallback : unit -> unit
val count_log_kernel : unit -> unit
val count_log_fallback : unit -> unit
val count_pow_rat_kernel : unit -> unit
val count_pow_rat_int : unit -> unit
val count_trig_reduced : unit -> unit
val count_trig_fallback : unit -> unit
val count_w_kernel : unit -> unit
val count_w_fallback : unit -> unit
