"""Differential tests for the batched mini-C codegen tier.

``repro.minic.codegen`` translates an eligible skeleton once into a generated
Python function; the contract is observational agreement with the reference
interpreter (``run_unit`` on the rebound AST) for every *order-clean*
characteristic vector -- status, exit code, stdout and UB classification.
Non-order-clean vectors never reach this tier (the campaign routes them
through render+reparse), so they are excluded here too.

Skeletons outside the raw-int subset legitimately bail (``runner is None``);
the sweep asserts that a healthy majority of the generated corpus compiles so
a regression that silently bails everything cannot pass.
"""

from __future__ import annotations

import itertools
import random

from repro.corpus.seeds import paper_seed_programs
from repro.experiments.table1 import build_corpus
from repro.minic.codegen import runner_for_skeleton
from repro.minic.interp import run_unit
from repro.minic.skeleton import extract_skeleton

BUDGETS = (200_000, 60)

EXHAUSTIVE_CAP = 256
SAMPLED_VECTORS = 40


def result_tuple(result):
    return (result.status, result.exit_code, result.stdout, result.detail)


def reference(skeleton, vector, max_steps):
    compiled = skeleton.metadata.setdefault("interp_compiled", {})
    return run_unit(skeleton.bind(vector), max_steps=max_steps, compiled=compiled)


def vectors_for(skeleton, rng: random.Random):
    spaces = skeleton.hole_variable_sets()
    total = 1
    for space in spaces:
        total *= len(space)
        if total > EXHAUSTIVE_CAP:
            break
    if total <= EXHAUSTIVE_CAP:
        candidates = itertools.product(*spaces)
    else:
        candidates = (
            tuple(rng.choice(space) for space in spaces)
            for _ in range(SAMPLED_VECTORS)
        )
    # The batch tier only ever sees order-clean vectors.
    return [v for v in candidates if skeleton.vector_order_clean(v)]


def sweep(corpus):
    rng = random.Random(99)
    compiled = bailed = checks = 0
    for name, source in corpus.items():
        skeleton = extract_skeleton(source, name=name)
        runner = runner_for_skeleton(skeleton)
        if runner is None:
            bailed += 1
            continue
        compiled += 1
        for vector in vectors_for(skeleton, rng):
            for budget in BUDGETS:
                expected = reference(skeleton, vector, budget)
                actual = runner.run(vector, max_steps=budget)
                assert result_tuple(actual) == result_tuple(expected), (
                    f"{name} vector={vector} budget={budget}"
                )
                checks += 1
    return compiled, bailed, checks


class TestCorpusDifferential:
    def test_codegen_matches_interpreter_on_generated_corpus(self):
        compiled, bailed, checks = sweep(build_corpus(files=10, seed=2017))
        assert compiled > bailed  # the tier must cover most of the corpus
        assert checks > 500

    def test_codegen_matches_interpreter_on_paper_seeds(self):
        compiled, _, checks = sweep(paper_seed_programs())
        assert compiled > 0
        assert checks > 100

    def test_run_batch_equals_per_vector_runs(self):
        source = (
            "int main() { int a = 9, b = 3; int x = 0; "
            "x = a / b; a = a - b; return x + a; }"
        )
        skeleton = extract_skeleton(source)
        runner = runner_for_skeleton(skeleton)
        assert runner is not None
        rng = random.Random(5)
        vectors = vectors_for(skeleton, rng)[:30]
        batched = runner.run_batch(vectors, max_steps=100)
        singles = [runner.run(vector, max_steps=100) for vector in vectors]
        assert [result_tuple(r) for r in batched] == [result_tuple(r) for r in singles]


class TestSemanticCorners:
    def run_both(self, source: str, max_steps: int = 200_000):
        skeleton = extract_skeleton(source)
        runner = runner_for_skeleton(skeleton)
        assert runner is not None, "corner-case program must be in the subset"
        vector = skeleton.original_vector
        return (
            result_tuple(runner.run(vector, max_steps=max_steps)),
            result_tuple(reference(skeleton, vector, max_steps)),
        )

    def test_division_by_zero_is_undefined_behaviour(self):
        actual, expected = self.run_both(
            "int main() { int a = 1, b = 0; int c = 0; c = a / b; return c; }"
        )
        assert actual == expected
        assert actual[0].value == "undefined-behaviour"

    def test_signed_overflow_is_undefined_behaviour(self):
        actual, expected = self.run_both(
            "int main() { int a = 2147483647; int b = 1; int c = 0;"
            " c = a + b; return c; }"
        )
        assert actual == expected
        assert actual[0].value == "undefined-behaviour"

    def test_timeout_on_tight_budgets(self):
        source = (
            "int main() { int i = 0, s = 0; "
            "while (i < 50) { s = s + i; i = i + 1; } return s; }"
        )
        for budget in (1, 5, 25, 100, 1000):
            actual, expected = self.run_both(source, max_steps=budget)
            assert actual == expected, f"budget={budget}"

    def test_printf_output_matches(self):
        actual, expected = self.run_both(
            'int main() { int x = 42; int y = 7; printf("%d %d\\n", x, y); return 0; }'
        )
        assert actual == expected
        assert actual[2] == "42 7\n"


class TestRunnerLifecycle:
    def test_runner_memoised_with_false_sentinel_for_bails(self):
        skeleton = extract_skeleton("int main() { int a = 1; int b = 2; return a + b; }")
        first = runner_for_skeleton(skeleton)
        assert runner_for_skeleton(skeleton) is first
        skeleton.metadata["codegen_runner"] = False
        assert runner_for_skeleton(skeleton) is None  # sentinel short-circuits

    def test_loops_nested_past_cpython_limit_are_not_translated(self):
        # CPython compiles at most 20 statically nested blocks; a deeper
        # skeleton stays on the interpreter tiers.
        def nested(depth):
            return (
                "int main() { int x = 1, y = 0; " + "while (y) { " * depth
                + "x = y; " + "} " * depth + "return x; }"
            )

        assert runner_for_skeleton(extract_skeleton(nested(20))) is not None
        skeleton = extract_skeleton(nested(21))
        assert runner_for_skeleton(skeleton) is None
        assert reference(skeleton, skeleton.original_vector, 200_000).exit_code == 1
