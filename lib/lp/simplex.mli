(** Exact-rational linear programming by revised simplex.

    Solves standard-form programs

    {v   minimize  c.x   subject to   A x = b,  x >= 0   v}

    and reports every outcome in {!Bi_num.Rat}: each optimum is the
    exact rational value of the program and every certificate check
    below is a theorem, not a tolerance test.  Floating point only
    proposes a basis; exact arithmetic rebuilds it and proves it, so no
    double reaches a reported number.  Inequality systems are encoded
    by the caller with explicit slack columns (see [Bi_correlated] for
    the equilibrium polytopes that motivated this module).

    The algorithm is the classic two-phase revised method: a basis
    [B] of column indices is maintained together with an explicit
    inverse [B^-1]; each iteration prices the nonbasic columns against
    the dual vector [y = c_B B^-1], picks the entering column by
    {e Bland's rule} (lowest index with negative reduced cost), and
    leaves by the minimum-ratio test with ties again broken by lowest
    basis index.  Bland's rule makes cycling impossible, so termination
    is unconditional even on the degenerate polytopes that equilibrium
    LPs produce.  Phase 1 minimizes the sum of artificial variables
    from a crash basis — each row starts on a unit column of [A] (a
    slack) where it has one, on its artificial otherwise, so slack rows
    need no phase-1 pivot; a positive phase-1 optimum yields a
    Farkas certificate of infeasibility, otherwise basic artificials
    are driven out (rows that cannot be driven out are exactly the
    redundant rows and stay inert) and phase 2 optimizes [c].

    [solve] runs that algorithm twice.  The {e guide} runs it in
    doubles, with the same crash basis, phases, drive-out and Bland
    rules, one tolerance deciding signs and ties, its inverse
    refactored from the data every [max 32 m] pivots, and a cap of
    [4 (m + n)] pivots.  Its final basis is rebuilt exactly — each of
    its structural columns pivoted into the crash basis with {!pivot}
    — and, when that basis is nonsingular and primal-feasible, the
    exact loop (phase 1, drive-out, phase 2) starts from it, so the
    exact pricing pass is the optimality proof and normally makes no
    pivot.  Otherwise (the guide hit its cap or a singular basis, or
    its basis fails exactly) the exact loop starts from the crash
    basis.  Where the guide decides every sign and tie as exact
    arithmetic would, both follow the same Bland path, so the outcome,
    certificate and pivot count are those of the exact loop alone.  The
    guide reads no clock: one problem gives the same bytes in every
    process.

    Every outcome carries a certificate that [check] /
    [check_infeasible] / [check_unbounded] re-verify from scratch in
    exact arithmetic, in the style of [Bi_certify]'s tamper-rejecting
    checkers: feasibility, dual feasibility, complementary slackness
    and the zero duality gap for optima; [A'y <= 0, b.y > 0] for
    infeasibility; a feasible point plus an improving recession ray for
    unboundedness. *)

open Bi_num

type problem = {
  a : Rat.t array array;  (** row-major constraint matrix, [m x n] *)
  b : Rat.t array;        (** right-hand side, length [m] (any sign) *)
  c : Rat.t array;        (** objective, length [n] *)
}

type certificate = {
  x : Rat.t array;  (** primal optimum, length [n], [>= 0] *)
  y : Rat.t array;  (** dual optimum, length [m], unconstrained sign *)
  objective : Rat.t;  (** the common value [c.x = b.y] *)
}

type outcome =
  | Optimal of certificate
  | Infeasible of { farkas : Rat.t array }
      (** [farkas = y] with [A' y <= 0] componentwise and [b.y > 0]:
          a linear combination of the equalities no nonnegative [x]
          can satisfy. *)
  | Unbounded of { witness : Rat.t array; ray : Rat.t array }
      (** [witness] is feasible; [ray = d] satisfies [A d = 0],
          [d >= 0], [c.d < 0], so [witness + t*d] is feasible for all
          [t >= 0] with objective tending to [-oo]. *)

type stats = {
  pivots : int;
      (** the Bland path's length: the guide's pivots plus the exact
          loop's, or the exact loop's alone when the guide's basis was
          not used *)
  exact_pivots : int;  (** pivots the exact loop made *)
  guided : bool;  (** the exact loop started from the guide's basis *)
}

val solve : ?on_pivot:(unit -> unit) -> problem -> outcome * stats
(** Solve the program.  [on_pivot] is called once per simplex
    iteration, float or exact (before the work of that iteration) —
    the serving layer uses it to poll a deadline budget; an exception
    it raises aborts the solve and propagates.
    @raise Invalid_argument on mismatched dimensions. *)

val check : problem -> certificate -> (unit, string) result
(** Verify an optimality certificate in exact arithmetic: [x >= 0],
    [A x = b], dual feasibility [c - A' y >= 0], complementary
    slackness ([x_j > 0] implies a tight dual constraint), and
    [c.x = b.y = objective].  Any tampering with any component is
    detected; the error names the first violated condition. *)

val check_infeasible : problem -> Rat.t array -> (unit, string) result
(** Verify a Farkas certificate: [A' y <= 0] and [b.y > 0]. *)

val check_unbounded :
  problem -> witness:Rat.t array -> ray:Rat.t array -> (unit, string) result
(** Verify an unboundedness certificate: the witness is feasible and
    the ray satisfies [A d = 0], [d >= 0], [c.d < 0]. *)

val feasible : problem -> Rat.t array -> (unit, string) result
(** [feasible p x] checks [A x = b] and [x >= 0] only — membership of
    [x] in the feasible polytope, no optimality claim. *)

val pivot :
  binv:Rat.t array array ->
  xb:Rat.t array ->
  column:Rat.t array ->
  row:int ->
  unit
(** One revised-simplex basis change, in place: given the entering
    column [column = B^-1 A_j] and the leaving [row], rescale the pivot
    row of [binv] (and [xb]) by the pivot element and eliminate it from
    every other row with fused {!Rat.sub_mul} updates.  This is the
    solver's own inner kernel, exposed for the [simplex pivot] micro
    benchmark and the qcheck laws.
    @raise Invalid_argument if the pivot element is zero. *)
