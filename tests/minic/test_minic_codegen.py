"""Differential tests for the batched mini-C codegen tier.

``repro.minic.codegen`` translates an eligible skeleton once into a generated
Python function; the contract is observational agreement with the reference
interpreter (``run_unit`` on the rebound AST) for every *order-clean*
characteristic vector -- status, exit code, stdout and UB classification.
Non-order-clean vectors never reach this tier (the campaign routes them
through render+reparse), so they are excluded here too.

Skeletons outside the subset legitimately bail (``runner is None``) and run
on the interpreter; the sweep asserts that a healthy majority of the
generated corpus compiles so a regression that silently bails everything
cannot pass.  ``goto`` (labels at the top level of ``main``) and unread
``long`` locals get their own corner tests, bail tests and a sweep over
every goto skeleton of three generated corpora.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.corpus.seeds import paper_seed_programs
from repro.experiments.table1 import build_corpus
from repro.minic.codegen import runner_for_skeleton
from repro.minic.interp import run_unit
from repro.minic.skeleton import extract_skeleton

BUDGETS = (200_000, 60)
#: The corner tests' budgets: the default, one that ends a short program
#: early, and one that ends it in its first statements.
CORNER_BUDGETS = (200_000, 50, 7)
#: The goto sweep's budgets: the default (goto loops time out on the jump
#: limit), one that ends them on the step budget, and tight ones that land
#: inside the first segments, where a tick or jump miscount flips a status.
GOTO_BUDGETS = (200_000, 2_000, 137, 17, 5)
GOTO_SEEDS = (2017, 102020, 202023)

EXHAUSTIVE_CAP = 256
SAMPLED_VECTORS = 40


def result_tuple(result):
    return (result.status, result.exit_code, result.stdout, result.detail)


def reference(skeleton, vector, max_steps):
    return run_unit(skeleton.bind(vector), max_steps=max_steps)


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


def sweep(corpus, budgets=BUDGETS):
    rng = random.Random(99)
    compiled = bailed = checks = 0
    for name, source in corpus.items():
        skeleton = extract_skeleton(source, name=name)
        runner = runner_for_skeleton(skeleton)
        if runner is None:
            bailed += 1
            continue
        compiled += 1
        vectors = vectors_for(skeleton, rng)
        for budget in budgets:
            actuals = runner.run_batch(vectors, max_steps=budget)
            assert len(actuals) == len(vectors)
            for vector, actual in zip(vectors, actuals):
                expected = reference(skeleton, vector, budget)
                assert result_tuple(actual) == result_tuple(expected), (
                    f"{name} vector={vector} budget={budget}"
                )
                checks += 1
    return compiled, bailed, checks


def runner_of(source: str):
    return runner_for_skeleton(extract_skeleton(source))


class TestCorpusDifferential:
    def test_codegen_matches_interpreter_on_generated_corpus(self):
        compiled, bailed, checks = sweep(build_corpus(files=10, seed=2017))
        assert compiled > bailed  # the tier must cover most of the corpus
        assert checks > 500

    def test_codegen_matches_interpreter_on_paper_seeds(self):
        compiled, _, checks = sweep(paper_seed_programs())
        assert compiled > 0
        assert checks > 100

    def test_codegen_matches_interpreter_on_goto_skeletons(self):
        sources = {}
        for seed in GOTO_SEEDS:
            for name, source in build_corpus(files=160, seed=seed).items():
                if "goto" in source and source not in sources.values():
                    sources[f"{seed}/{name}"] = source
        compiled, bailed, checks = sweep(sources, GOTO_BUDGETS)
        # 23 of the 56 distinct goto skeletons; the others call a helper
        # function or declare an ``int *``.
        assert compiled >= 20
        assert checks > 1000

    def test_goto_and_long_skeletons_get_a_runner(self):
        assert runner_of(paper_seed_programs()["fig11b_goto.c"]) is not None
        # A forward ``goto done`` and an unread ``long`` local.
        assert runner_of(build_corpus(files=160, seed=102020)["gen_00018.c"]) is not None


class TestSemanticCorners:
    def run_both(self, source: str, max_steps: int = 200_000):
        skeleton = extract_skeleton(source)
        runner = runner_for_skeleton(skeleton)
        assert runner is not None, "corner-case program must be in the subset"
        vector = skeleton.original_vector
        return (
            result_tuple(runner.run_batch([vector], max_steps=max_steps)[0]),
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


class TestGotoAndLongCorners:
    """``goto`` to top-level labels of ``main`` and unread ``long`` locals,
    against the spec."""

    def check(self, source: str):
        """Compare every order-clean vector at each corner budget; return
        the original vector's result at the default budget."""
        skeleton = extract_skeleton(source)
        runner = runner_for_skeleton(skeleton)
        assert runner is not None, "corner-case program must be in the subset"
        vectors = vectors_for(skeleton, random.Random(7))
        assert tuple(skeleton.original_vector) in vectors
        for budget in CORNER_BUDGETS:
            actuals = runner.run_batch(vectors, max_steps=budget)
            for vector, actual in zip(vectors, actuals):
                expected = reference(skeleton, vector, budget)
                assert result_tuple(actual) == result_tuple(expected), (vector, budget)
        return runner.run_batch([skeleton.original_vector])[0]

    def test_forward_goto_taken_and_not_taken(self):
        source = (
            "int main() { int a = %d; int n = 0; "
            "if (a) goto L; n = 5; L: ; return n; }"
        )
        assert self.check(source % 1).exit_code == 0
        assert self.check(source % 0).exit_code == 5

    def test_backward_goto_times_out_at_the_jump_limit(self):
        result = self.check('int main() { int n = 0; L: n = n + 1; printf("%d ", n); goto L; }')
        assert result.status.value == "timeout"
        assert result.stdout == "".join(f"{n} " for n in range(1, 1001))

    def test_goto_out_of_an_infinite_loop(self):
        result = self.check(
            "int main() { int n = 0; while (1) { n = n + 3; if (n > 10) goto out; } "
            "out: return n; }"
        )
        assert result.exit_code == 12

    def test_goto_onto_a_labelled_declaration(self):
        result = self.check("int main() { goto L; L: int x = 2; return x; }")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "source",
        [
            "int main() { int a = 1; int n = 0; if (a) goto L; n = 5; L: ; return n; }",
            "int a = 0; int b = 3; int main(void) { int c = 0; if (a) goto l1; c = 1; "
            "l1: c = c + 1; b = b - 1; if (b) goto l1; return c; }",
            "int main() { int n = 0; while (1) { n = n + 3; if (n > 10) goto out; } "
            "out: return n; }",
        ],
        ids=["forward", "backward", "out-of-loop"],
    )
    def test_every_budget_up_to_the_end(self, source):
        # A tick counted on the wrong side of a segment boundary, or again
        # on re-entry, flips OK and TIMEOUT at one budget only: try each.
        skeleton = extract_skeleton(source)
        runner = runner_for_skeleton(skeleton)
        assert runner is not None
        vector = skeleton.original_vector
        for budget in range(1, 500):
            expected = reference(skeleton, vector, budget)
            actual = runner.run_batch([vector], max_steps=budget)[0]
            assert result_tuple(actual) == result_tuple(expected), budget
            if expected.status.value != "timeout":
                break
        assert expected.ok

    def test_unread_long_local(self):
        result = self.check(
            "int main() { int a = 3; int b = 4; long m = a * b; long k; "
            "a = a + b; return a; }"
        )
        assert result.exit_code == 7


class TestBails:
    """Programs the generated body cannot mirror get no runner."""

    SOURCES = {
        "label in a block": (
            "int main() { int n = 0; { L: n = n + 1; } if (n < 3) goto L; return n; }"
        ),
        # The spec resumes in the block, whose label comes first: 22, not 15.
        "label in a block shadowing a top-level one": (
            "int main() { int n = 0; { L: n = n + 10; } L: n = n + 1; "
            "if (n < 15) goto L; return n; }"
        ),
        "goto to another function's label": (
            "int f(void) { L: return 1; } int main() { int n = 0; goto L; return n; }"
        ),
        "duplicate labels": (
            "int main() { int n = 0; L: n = n + 1; L: n = n + 2; "
            "if (n < 9) goto L; return n; }"
        ),
        # The jump leaves the local undeclared: the spec returns the global.
        "goto over a declaration": (
            "int g = 5; int main() { int a = 1; if (a) goto L; int g = 2; L: return g; }"
        ),
        # ... and in these two an ERROR, "unknown variable 'y'".
        "goto over a declaration of a unique name": (
            "int main() { int a = 1; if (a) goto L; int y = 2; L: return y; }"
        ),
        "goto over a labelled declaration": (
            "int main() { int a = 1; if (a) goto L2; L1: int y = 1; L2: return y; }"
        ),
        "long read": "int main() { int a = 3; long m = 7; a = a + 1; return m; }",
        "long assigned": "int main() { int a = 3; long m = 7; m = a; return a; }",
        "long candidate": (
            'int main() { long m = 7; long k = 1; printf("%ld", k); return 0; }'
        ),
        # An un-braced body declaration that never runs leaves its name
        # undeclared: the spec gives an ERROR, not a read of a fixed cell.
        "declaration as an un-braced if body": (
            "int main() { int x = 0; if (x) int y = 2; return y; }"
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SOURCES))
    def test_no_runner(self, shape):
        assert runner_of(self.SOURCES[shape]) is None


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
