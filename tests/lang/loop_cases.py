"""WHILE loops that run past ``TIER_UP_STEPS``, for the generated tiers'
non-termination proofs (``repro.lang.codegen._Probe``).

The first four never exit: one loop per proof shape that the
``while-campaign`` corpora hold.  The near misses also pass the threshold,
then stop or fail on the spec, so no proof may fire on them.  Both tiers'
differential tests compare each case with ``execute_while`` at every budget
in ``PROOF_BUDGETS``.
"""

from repro.compiler.driver import TIER_UP_STEPS

#: name -> (source, status value on the spec at the 200,000-step budget)
LOOP_CASES = {
    # (a) the loop head revisits a store: b alternates between 1 and 0
    "cycle": ("a := 10 ; a := 1 ; while (a > 0) do ( b := (a - b) )", "timeout"),
    # (b) the body never writes the guard's variable
    "guard": ("a := 10 ; b := 1 ; while (a > 0) do ( b := (b - a) )", "timeout"),
    # (b) bignum growth: i and s double on every iteration
    "bignum": (
        "i := 3 ; s := 0 ; while (i > 0) do ( s := (s + i) ; i := (s - 1) )",
        "timeout",
    ),
    # (a) at the inner loop's head, which never exits either
    "inner": (
        "a := 1 ; while (a > 0) do ( c := 0 ; while (c < 1) do ( b := (a - b) ) )",
        "timeout",
    ),
    "countdown": ("x := 3000 ; while (x > 0) do ( x := (x - 1) )", "ok"),
    "count-up": ("x := 0 ; while (x < 5000) do ( x := (x + 1) )", "ok"),
    # divides by zero once y reaches 0, after the threshold
    "late-division": (
        "y := 3000 ; while (y > 0) do ( y := (y - 1) ; x := (10 / y) )",
        "runtime-error",
    ),
    # the guard always holds, but the body divides by b, which reaches 0
    "unguarded-division": (
        "a := 10 ; b := 5000 ; while (a > 0) do ( b := (b - 1) ; x := (a / b) ; x := 0 )",
        "runtime-error",
    ),
    # the second loop's head meets the store last saved at the first's
    "two-loops": (
        "x := 0 ; while (x < 2064) do ( x := (x + 1) ) ; while (x > 0) do ( x := (x - 1) )",
        "ok",
    ),
}

#: The threshold, just past it, past the latest proof on the workload
#: (step 4,012), the reference budget and the binaries' budget.
PROOF_BUDGETS = (TIER_UP_STEPS, TIER_UP_STEPS + 1, TIER_UP_STEPS + 13, 200_000, 500_000)
