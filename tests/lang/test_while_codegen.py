"""Differential tests for the batched WHILE codegen tier.

``repro.lang.codegen`` translates a skeleton once into a generated Python
function; the contract is byte-for-byte agreement with ``execute_while`` on
the rebound AST for every characteristic vector and every step budget.
These tests sweep the seed corpus (exhaustively for small vector spaces,
randomly sampled otherwise) under a tight, a medium and the default budget
so the tick accounting -- the subtle part -- is stressed at the exact
boundaries where TIMEOUT must win or lose against OK/ERROR.
"""

from __future__ import annotations

import itertools
import random

from repro.corpus.while_seeds import build_while_corpus
from repro.lang.codegen import compile_skeleton_runner, runner_for_skeleton
from repro.lang.compile import execute_while
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


    def test_loops_nested_past_cpython_limit_are_not_translated(self):
        # CPython compiles at most 20 statically nested blocks.
        def nested(depth):
            return "x := 1; " + "while (x < 0) do (" * depth + "x := x" + ")" * depth

        assert runner_for_skeleton(extract_skeleton(nested(20))) is not None
        skeleton = extract_skeleton(nested(21))
        assert runner_for_skeleton(skeleton) is None
        assert skeleton.metadata["codegen_runner"] is False


def test_compile_skeleton_runner_rejects_unknown_nodes():
    class Alien:
        def walk(self):
            return iter(())

    assert compile_skeleton_runner(Alien(), []) is None
