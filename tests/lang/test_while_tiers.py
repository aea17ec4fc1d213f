"""The generated tier for optimized WHILE programs against the interpreter,
and tier-up selection in ``WhileCompiler.run``.

``compile_program_runner(program).run((), budget)`` must equal
``execute_while(program, budget)`` for every program and budget.  The corpus
leg compares the two on the optimized output of every ``wc`` version; the
selection tests pin the run-length rule: a run moves to the generated tier
only when it reaches ``TIER_UP_STEPS`` on the interpreter.  Loops that run
past the threshold (``loop_cases``) check the non-termination proofs through
both entry points.
"""

import pytest
from loop_cases import LOOP_CASES, PROOF_BUDGETS

from repro.compiler.driver import TIER_UP_STEPS
from repro.core.execution import ExecutionStatus
from repro.core.spe import SkeletonEnumerator
from repro.corpus.while_seeds import build_while_corpus
from repro.lang import compile as while_compile
from repro.lang.codegen import compile_program_runner
from repro.lang.compile import WC_ORDER, WhileCompiler, execute_while
from repro.lang.parser import parse_program
from repro.lang.skeleton import extract_skeleton

DEFAULT_BUDGET = 500_000
CORPUS_BUDGETS = (1, 2, 7, 40, 101, DEFAULT_BUDGET)


def nested_loops(depth: int) -> str:
    """``depth`` nested loops around an endless counter."""
    return "x := 1; " + "while (x > 0) do (" * depth + "x := x + 1" + ")" * depth


# -- the seed corpus -----------------------------------------------------------------


def corpus_programs():
    """Distinct optimized programs of the seed corpus's first variants,
    compiled by every ``wc`` version at O0 and O2."""
    compilers = [WhileCompiler(version, level) for version in WC_ORDER for level in (0, 2)]
    programs = {}
    for name, source in build_while_corpus(files=8, seed=2017).items():
        skeleton = extract_skeleton(source, name=name)
        for variant in SkeletonEnumerator(skeleton).indexed_programs(start=0, stop=4):
            for compiler in compilers:
                outcome = compiler.compile_variant(variant, name=name)
                if outcome.success:
                    programs.setdefault(str(outcome.module), outcome.module.program)
    return list(programs.values())


def test_generated_tier_matches_interpreter_on_corpus():
    statuses = set()
    programs = corpus_programs()
    for program in programs:
        runner = compile_program_runner(program)
        assert runner is not None
        for budget in CORPUS_BUDGETS:
            expected = execute_while(program, budget)
            assert runner.run((), budget) == expected, (budget, program)
            if budget == DEFAULT_BUDGET:
                statuses.add(expected.status)
    assert len(programs) >= 40
    # The variants include miscompiled loops that never end.
    assert statuses == {ExecutionStatus.OK, ExecutionStatus.TIMEOUT}


@pytest.mark.parametrize("source, status", LOOP_CASES.values(), ids=list(LOOP_CASES))
def test_generated_tier_matches_interpreter_past_the_threshold(source, status):
    outcome = compile_main(source)
    program = outcome.module.program
    runner = compile_program_runner(program)
    for budget in PROOF_BUDGETS:
        expected = execute_while(program, budget)
        assert runner.run((), budget) == expected, budget
        assert WhileCompiler("reference", 0, vm_max_steps=budget).run(outcome) == expected, budget
    assert expected.status.value == status


def test_loops_nested_past_cpython_limit_are_not_translated():
    assert compile_program_runner(parse_program(nested_loops(20))) is not None
    assert compile_program_runner(parse_program(nested_loops(21))) is None


# -- tier selection ------------------------------------------------------------------


@pytest.fixture
def translations(monkeypatch):
    """Programs translated into the generated tier, in order."""
    calls = []

    def spy(program):
        calls.append(program)
        return compile_program_runner(program)

    monkeypatch.setattr(while_compile, "compile_program_runner", spy)
    return calls


def compile_main(source):
    outcome = WhileCompiler("reference", 0).compile_source(source)
    assert outcome.success
    return outcome


def exact_run(ticks):
    """A program that stops after exactly ``ticks`` interpreter steps: one
    for the sequence, one per assignment and one for entering the loop,
    then two per iteration (the body and the back-edge)."""
    assignments = 2 + ticks % 2
    iterations = (ticks - 2 - assignments) // 2
    prefix = "".join(f"v{k} := 0; " for k in range(assignments))
    outcome = compile_main(prefix + f"while (v0 < {iterations}) do v0 := v0 + 1")
    program = outcome.module.program
    assert execute_while(program, ticks).status is ExecutionStatus.OK
    assert execute_while(program, ticks - 1).status is ExecutionStatus.TIMEOUT
    return outcome


def test_short_run_never_translates(translations):
    outcome = compile_main("s := 0; i := 0; while (i < 50) do (s := s + i; i := i + 1)")
    result = WhileCompiler("reference", 0).run(outcome)
    assert translations == []
    assert result == execute_while(outcome.module.program, DEFAULT_BUDGET)
    assert result.stdout == "i=50\ns=1225\n"


def test_endless_run_tiers_up_and_times_out_at_the_full_budget(translations):
    outcome = compile_main(nested_loops(1))
    result = WhileCompiler("reference", 0).run(outcome)
    assert translations == [outcome.module.program]
    assert result == execute_while(outcome.module.program, DEFAULT_BUDGET)
    assert result.status is ExecutionStatus.TIMEOUT
    assert result.detail == f"exceeded {DEFAULT_BUDGET} steps"


def test_budget_at_threshold_stays_on_interpreter(translations):
    outcome = compile_main(nested_loops(1))
    for budget in (TIER_UP_STEPS - 1, TIER_UP_STEPS):
        result = WhileCompiler("reference", 0, vm_max_steps=budget).run(outcome)
        assert result == execute_while(outcome.module.program, budget)
        assert result.detail == f"exceeded {budget} steps"
    assert translations == []


def test_run_of_exactly_tier_up_steps_stays_on_interpreter(translations):
    outcome = exact_run(TIER_UP_STEPS)
    result = WhileCompiler("reference", 0).run(outcome)
    assert result.status is ExecutionStatus.OK
    assert translations == []
    outcome = exact_run(TIER_UP_STEPS + 1)
    result = WhileCompiler("reference", 0).run(outcome)
    assert result == execute_while(outcome.module.program, DEFAULT_BUDGET)
    assert result.status is ExecutionStatus.OK
    assert len(translations) == 1


def test_division_by_zero_after_the_cap(translations):
    outcome = compile_main(f"x := 0; while (x < {TIER_UP_STEPS}) do (x := x + 1); y := x / 0")
    result = WhileCompiler("reference", 0).run(outcome)
    assert len(translations) == 1
    assert result == execute_while(outcome.module.program, DEFAULT_BUDGET)
    assert (result.status, result.detail) == (ExecutionStatus.ERROR, "division by zero")


def test_untranslatable_program_restarts_on_interpreter(translations):
    outcome = compile_main(nested_loops(21))
    result = WhileCompiler("reference", 0).run(outcome)
    assert len(translations) == 1
    assert result == execute_while(outcome.module.program, DEFAULT_BUDGET)
    assert result.detail == f"exceeded {DEFAULT_BUDGET} steps"
