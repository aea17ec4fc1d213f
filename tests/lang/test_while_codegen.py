"""Differential tests for the batched WHILE codegen tier.

``repro.lang.codegen`` translates a skeleton once into a generated Python
function; the contract is byte-for-byte agreement with ``execute_while`` on
the rebound AST for every characteristic vector and every step budget.
These tests sweep the seed corpus (exhaustively for small vector spaces,
randomly sampled otherwise) under a tight, a medium and the default budget
so the tick accounting -- the subtle part -- is stressed at the exact
boundaries where TIMEOUT must win or lose against OK/ERROR.  Loops that run
past ``TIER_UP_STEPS`` (``loop_cases``) check the non-termination proofs the
same way, and ``TestBoxProof`` checks the interval-box rule on its own.
"""

from __future__ import annotations

import itertools
import operator
import random

import pytest
from loop_cases import LOOP_CASES, PROOF_BUDGETS

from repro.corpus.while_seeds import build_while_corpus
from repro.lang.ast import Var, While
from repro.lang.codegen import (
    _PROBE_ROUNDS,
    _Probe,
    _recurrent,
    _Timeout,
    compile_skeleton_runner,
    runner_for_skeleton,
)
from repro.lang.compile import execute_while
from repro.lang.parser import parse_program
from repro.lang.skeleton import extract_skeleton

#: Step budgets: the default, plus tight ones that land mid-program so a
#: one-off tick error flips OK <-> TIMEOUT or ERROR <-> TIMEOUT somewhere.
BUDGETS = (200_000, 60, 7)

EXHAUSTIVE_CAP = 512
SAMPLED_VECTORS = 60


def result_tuple(result):
    return (result.status, result.exit_code, result.stdout, result.detail)


def vectors_for(skeleton, rng: random.Random):
    spaces = skeleton.hole_variable_sets()
    total = 1
    for space in spaces:
        total *= len(space)
        if total > EXHAUSTIVE_CAP:
            break
    if total <= EXHAUSTIVE_CAP:
        yield from itertools.product(*spaces)
        return
    for _ in range(SAMPLED_VECTORS):
        yield tuple(rng.choice(space) for space in spaces)


class TestCorpusDifferential:
    def test_codegen_matches_interpreter_on_seed_corpus(self):
        corpus = build_while_corpus(files=8, seed=2017)
        rng = random.Random(1234)
        checks = 0
        for name, source in corpus.items():
            skeleton = extract_skeleton(source, name=name)
            runner = runner_for_skeleton(skeleton)
            assert runner is not None, f"{name}: WHILE skeletons always compile"
            for vector in vectors_for(skeleton, rng):
                for budget in BUDGETS:
                    expected = execute_while(skeleton.bind(vector), max_steps=budget)
                    actual = runner.run(vector, max_steps=budget)
                    assert result_tuple(actual) == result_tuple(expected), (
                        f"{name} vector={vector} budget={budget}"
                    )
                    checks += 1
        assert checks > 1000  # the sweep actually covered the corpus

    def test_run_batch_equals_per_vector_runs(self):
        source = "x := 3; y := 0; while (x > 0) do (y := y + x ; x := x - 1); z := y / x"
        skeleton = extract_skeleton(source)
        runner = runner_for_skeleton(skeleton)
        vectors = [tuple(rng_vec) for rng_vec in itertools.product(
            *skeleton.hole_variable_sets()
        )][:40]
        batched = runner.run_batch(vectors, max_steps=50)
        singles = [runner.run(vector, max_steps=50) for vector in vectors]
        assert [result_tuple(r) for r in batched] == [result_tuple(r) for r in singles]


class TestSemanticCorners:
    def run_both(self, source: str, max_steps: int):
        skeleton = extract_skeleton(source)
        runner = runner_for_skeleton(skeleton)
        vector = skeleton.original_vector
        return (
            result_tuple(runner.run(vector, max_steps=max_steps)),
            result_tuple(execute_while(skeleton.bind(vector), max_steps=max_steps)),
        )

    def test_division_by_zero_is_error(self):
        actual, expected = self.run_both("x := 0; y := 1 / x", 200_000)
        assert actual == expected
        assert actual[0].value == "runtime-error" and "division by zero" in actual[3]

    def test_timeout_beats_division_error_when_budget_expires_first(self):
        # The tick *before* the divide must fire: one statement of budget,
        # the division sits in statement two behind a Seq entry tick.
        source = "x := 0; y := 1 / x"
        for budget in range(1, 6):
            actual, expected = self.run_both(source, budget)
            assert actual == expected, f"budget={budget}"

    def test_infinite_loop_times_out_with_budget_detail(self):
        actual, expected = self.run_both("x := 1; while (true) do x := x + 1", 100)
        assert actual == expected
        assert actual[0].value == "timeout" and "exceeded 100 steps" in actual[3]

    def test_straight_line_overrun_boundaries(self):
        # A straight-line program that takes exactly N ticks: every budget in
        # [N-2, N+2] must agree (the final flush is what catches N-1).
        source = "a := 1; b := a + 2; c := b * 3; d := c - 4"
        for budget in range(1, 12):
            actual, expected = self.run_both(source, budget)
            assert actual == expected, f"budget={budget}"

    def test_loop_backedge_boundaries(self):
        source = "i := 0; s := 0; while (i < 5) do (s := s + i ; i := i + 1)"
        for budget in range(1, 30):
            actual, expected = self.run_both(source, budget)
            assert actual == expected, f"budget={budget}"

    def test_branch_ticks_do_not_leak_across_arms(self):
        # If/else arms flush independently; pending ticks from before the
        # branch must not be double-counted in either arm.
        source = "x := 4; if (x > 2) then y := x / 2 else y := 0 - 1; z := y"
        for budget in range(1, 12):
            actual, expected = self.run_both(source, budget)
            assert actual == expected, f"budget={budget}"

    def test_c_style_division_truncates_toward_zero(self):
        actual, expected = self.run_both("a := 0 - 7; b := 2; c := a / b", 200_000)
        assert actual == expected
        assert "c=-3\n" in actual[2]  # not floor's -4

    @pytest.mark.parametrize("source, status", LOOP_CASES.values(), ids=list(LOOP_CASES))
    def test_loops_past_the_tier_up_threshold(self, source, status):
        for budget in PROOF_BUDGETS:
            actual, expected = self.run_both(source, budget)
            assert actual == expected, f"budget={budget}"
        assert actual[0].value == status


class TestRunnerLifecycle:
    def test_runner_memoised_in_skeleton_metadata(self):
        skeleton = extract_skeleton("x := 1; y := x")
        first = runner_for_skeleton(skeleton)
        assert first is not None
        assert runner_for_skeleton(skeleton) is first
        assert skeleton.metadata["codegen_runner"] is first

    def test_missing_binder_caches_false_sentinel(self):
        skeleton = extract_skeleton("x := 1; y := x")
        skeleton.metadata.pop("binder")
        skeleton.metadata.pop("codegen_runner", None)
        assert runner_for_skeleton(skeleton) is None
        assert skeleton.metadata["codegen_runner"] is False
        assert runner_for_skeleton(skeleton) is None  # probed exactly once

    def test_rebinding_does_not_invalidate_compiled_runner(self):
        # The runner maps hole indices to vector slots, so rebinding the
        # shared AST (as the campaign does constantly) must not change what
        # a previously-compiled runner computes.
        skeleton = extract_skeleton("x := 2; y := x * x")
        runner = runner_for_skeleton(skeleton)
        before = result_tuple(runner.run(("x", "x", "x", "y"), max_steps=100))
        skeleton.bind(("y", "y", "y", "x"))  # mutate the shared AST
        after = result_tuple(runner.run(("x", "x", "x", "y"), max_steps=100))
        assert before == after

    def test_proofs_name_loop_variables_through_the_vector(self):
        # Bound to a vector whose guard reads y, the shared AST is a loop
        # that never exits.  The countdown vector's run must still stop: a
        # proof that read the AST's names would claim it never does.
        source = "x := 3000 ; y := 1 ; while (x > 0) do ( x := (x - y) )"
        skeleton = extract_skeleton(source)
        countdown = skeleton.original_vector
        guard = next(node for node in skeleton.bind(countdown).walk() if isinstance(node, While))
        identifiers = skeleton.metadata["binder"].identifiers
        site = next(k for k, node in enumerate(identifiers) if node is guard.condition.left)
        endless = tuple("y" if index == site else name for index, name in enumerate(countdown))
        expected = execute_while(skeleton.bind(countdown), max_steps=200_000)
        assert execute_while(skeleton.bind(endless), max_steps=200_000).status.value == "timeout"
        # translated and run while the AST is bound to `endless`
        actual = runner_for_skeleton(skeleton).run(countdown, max_steps=200_000)
        assert result_tuple(actual) == result_tuple(expected)
        assert actual.status.value == "ok"

    def test_loops_nested_past_cpython_limit_are_not_translated(self):
        # CPython compiles at most 20 statically nested blocks.
        def nested(depth):
            return "x := 1; " + "while (x < 0) do (" * depth + "x := x" + ")" * depth

        assert runner_for_skeleton(extract_skeleton(nested(20))) is not None
        skeleton = extract_skeleton(nested(21))
        assert runner_for_skeleton(skeleton) is None
        assert skeleton.metadata["codegen_runner"] is False


class TestCycleCheck:
    """Rule (a) and the probe's budget on their own."""

    def test_a_repeated_store_proves_only_at_the_same_loop(self):
        probe = _Probe((), {}, 10_000)
        assert probe(0, {"x": 1}, 4_001) == 4_001  # saved
        assert probe(1, {"x": 1}, 4_002) == 4_002  # another loop's head
        with pytest.raises(_Timeout):
            probe(0, {"x": 1}, 4_003)

    def test_the_budget_still_wins(self):
        probe = _Probe((), {}, 4_001)
        assert probe(0, {"x": 1}, 4_001) == 4_001
        with pytest.raises(_Timeout):
            probe(0, {"x": 2}, 4_002)

    def test_gives_up_after_its_rounds(self):
        source = LOOP_CASES["count-up"][0]
        loop = next(node for node in parse_program(source).walk() if isinstance(node, While))
        probe = _Probe((loop,), {id(loop.condition.left): "x", id(loop.body.target): "x"}, 200_000)
        steps = 4_000
        while (limit := probe(0, {"x": steps}, steps)) == steps:
            steps += 1
        assert limit == 200_000
        # one call per back-edge up to the save point after the last round
        assert steps - 4_000 == 2 ** (_PROBE_ROUNDS + 1) - 2


COMPARISONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class TestBoxProof:
    """Rule (b) on its own: the box spanned by two loop-head stores of a run
    proves the loop never exits, or says nothing."""

    @staticmethod
    def proves(source: str, saved: dict, current: dict) -> bool:
        loop = next(node for node in parse_program(source).walk() if isinstance(node, While))
        names = {id(node): node.name for node in loop.walk() if isinstance(node, Var)}
        return _recurrent(loop, saved, current, names)

    def test_guard_the_body_never_writes(self):
        source = LOOP_CASES["guard"][0]
        assert self.proves(source, {"a": 10, "b": -19_999}, {"a": 10, "b": -20_009})

    def test_bignum_growth(self):
        source = LOOP_CASES["bignum"][0]
        saved, current = {"i": 2**600, "s": 2**600 + 1}, {"i": 2**601, "s": 2**601 + 1}
        assert self.proves(source, saved, current)

    def test_branches_join_unless_the_guard_decides_them(self):
        source = "x := 1 ; while (x > 0) do ( if (x > 100) then x := (x + 1) else x := (x + 2) )"
        assert self.proves(source, {"x": 50}, {"x": 52})  # undecided: both arms
        assert self.proves(source, {"x": 200}, {"x": 201})  # decided: the then arm
        escaping = "x := 1 ; while (x > 0) do ( if (x > 100) then x := (x + 1) else x := (0 - x) )"
        assert not self.proves(escaping, {"x": 50}, {"x": 52})
        assert self.proves(escaping, {"x": 200}, {"x": 201})
        falling = "x := 0 ; while (x < 0) do ( if (x > 100) then x := (0 - x) else x := (x - 1) )"
        assert self.proves(falling, {"x": -50}, {"x": -51})  # decided: the else arm

    @pytest.mark.parametrize("op", sorted(COMPARISONS))
    def test_comparisons_decide_exactly_at_their_bounds(self, op):
        holds = COMPARISONS[op]
        for bound in (3, 4, 5):
            # y stays 4: the box is [4, 4]
            source = f"y := 4 ; while (y {op} {bound}) do ( y := (y + 0) )"
            assert self.proves(source, {"y": 4}, {"y": 4}) is holds(4, bound), source
            # y grows from 4: the box is [4, None]
            source = f"y := 4 ; while (y {op} {bound}) do ( y := (y + 2) )"
            expected = all(holds(y, bound) for y in range(4, 99))
            assert self.proves(source, {"y": 4}, {"y": 6}) is expected, source

    def test_a_name_missing_from_the_store_reads_as_zero(self):
        source = "b := 1 ; while (a < 1) do ( b := (b + 1) )"
        assert self.proves(source, {"b": 5}, {"b": 6})
        assert not self.proves(source, {"a": -1, "b": 5}, {"a": 0, "b": 6})

    @pytest.mark.parametrize(
        "case, saved, current",
        [
            ("countdown", {"x": 1000}, {"x": 999}),
            ("count-up", {"x": 2000}, {"x": 2001}),
            ("late-division", {"y": 1000, "x": 0}, {"y": 999, "x": 0}),
            ("unguarded-division", {"a": 10, "b": 1000, "x": 0}, {"a": 10, "b": 999, "x": 0}),
        ],
    )
    def test_near_misses(self, case, saved, current):
        assert not self.proves(LOOP_CASES[case][0], saved, current)

    def test_refuses_an_inner_loop_and_products(self):
        store = {"a": 1, "b": 0, "c": 0}
        assert not self.proves(LOOP_CASES["inner"][0], store, store)
        product = "x := 2 ; while (x > 0) do ( x := (x * 2) )"
        assert not self.proves(product, {"x": 4}, {"x": 8})

    @pytest.mark.parametrize("guard", ["(a / b) == 7", "not ((a / b) < 0)"])
    def test_refuses_a_division_in_an_undecided_if_guard(self, guard):
        # Joining both arms would prove this loop, but the guard divides by
        # b, which counts down to 0.
        source = (
            "a := 10 ; b := 9999 ; while (a > 0) do "
            f"( b := (b - 1) ; if ({guard}) then x := 0 else x := 0 )"
        )
        store = {"a": 10, "b": 5000, "x": 0}
        assert not self.proves(source, store, {**store, "b": 4999})


def test_compile_skeleton_runner_rejects_unknown_nodes():
    class Alien:
        def walk(self):
            return iter(())

    assert compile_skeleton_runner(Alien(), []) is None
