"""Tests for the mini-C reference interpreter and its UB detection."""

import pytest

from repro.minic.interp import ExecutionStatus, run_source, run_unit
from repro.minic.parser import parse
from repro.minic.symbols import resolve
from repro.testing.oracle import DifferentialOracle, ObservationKind


def status_of(source: str, max_steps: int = 100_000):
    return run_source(source, max_steps=max_steps)


class TestBasicExecution:
    def test_arithmetic_and_exit_code(self):
        result = status_of("int main() { return 2 + 3 * 4; }")
        assert result.ok and result.exit_code == 14

    def test_printf_output(self):
        result = status_of('int main() { printf("%d-%d", 3, 4); printf("!"); return 0; }')
        assert result.stdout == "3-4!"

    def test_globals_and_arrays(self):
        source = "int a[4] = {1, 2, 3, 4}; int main() { return a[0] + a[3]; }"
        assert status_of(source).exit_code == 5

    def test_function_calls_and_recursion(self):
        source = "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); } int main() { return fact(5); }"
        assert status_of(source).exit_code == 120

    def test_pointers(self):
        source = "int main() { int x = 1; int *p = &x; *p = 41; return x + 1; }"
        assert status_of(source).exit_code == 42

    def test_loops_and_control_flow(self):
        source = """
        int main() {
            int total = 0;
            for (int i = 0; i < 10; i++) { if (i == 3) continue; if (i == 7) break; total += i; }
            do { total++; } while (total < 20);
            while (total > 15) total -= 2;
            return total;
        }
        """
        assert status_of(source).ok

    def test_goto_forward_and_backward(self):
        source = """
        int main() {
            int count = 0;
        again:
            count = count + 1;
            if (count < 3) goto again;
            goto out;
            count = 100;
        out:
            return count;
        }
        """
        assert status_of(source).exit_code == 3

    def test_exit_and_abort(self):
        assert status_of("int main() { exit(7); return 1; }").exit_code == 7
        assert status_of("int main() { abort(); return 0; }").exit_code == 134

    def test_char_and_unsigned(self):
        source = "int main() { char c = 'A'; unsigned u = 3; return c + u; }"
        assert status_of(source).exit_code == 68

    def test_exit_code_masked(self):
        assert status_of("int main() { return 300; }").exit_code == 300 & 0xFF

    def test_ternary_and_logical(self):
        source = "int main() { int a = 0; int b = 5; return (a && b) + (a || b) * 2 + (a ? 9 : b); }"
        assert status_of(source).exit_code == 7


class TestUndefinedBehaviour:
    CASES = {
        "uninitialised": "int main() { int x; return x; }",
        "div-by-zero": "int main() { int a = 1, b = 0; return a / b; }",
        "mod-by-zero": "int main() { int a = 1, b = 0; return a % b; }",
        "signed-overflow": "int main() { int a = 2147483647; return a + 1; }",
        "shift-too-far": "int main() { int a = 1; return a << 40; }",
        "negative-shift": "int main() { int a = 1; int s = -1; return a << s; }",
        "oob-read": "int a[2]; int main() { return a[5]; }",
        "oob-write": "int a[2]; int main() { a[3] = 1; return 0; }",
        "null-deref": "int main() { int *p = 0; return *p; }",
        "missing-return-use": "int f(int x) { if (x > 100) return 1; } int main() { return f(1) + 1; }",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_detected(self, name):
        result = status_of(self.CASES[name])
        assert result.status is ExecutionStatus.UNDEFINED, (name, result)

    def test_timeout(self):
        result = status_of("int main() { while (1) { } return 0; }", max_steps=2_000)
        assert result.status is ExecutionStatus.TIMEOUT

    def test_runtime_error_for_bad_call(self):
        result = status_of("int main() { return undeclared_fn(1); }")
        assert result.status is ExecutionStatus.ERROR

    def test_defined_unsigned_wraparound_is_ok(self):
        source = "int main() { unsigned u = 4294967295U; u = u + 1; return u == 0; }"
        result = status_of(source)
        assert result.ok and result.exit_code == 1



class TestMissingReturnValue:
    """Using the value of a call that fell off its function's end is UB.

    Conversions of that value (assignment, initialisation, argument
    passing, casts) must classify it, not crash the interpreter.
    """

    PRELUDE = "int f(int a) { if (a) return 1; } void g(long b) { } "
    SHAPES = {
        "assignment": "int main() { int y; y = f(0); return 0; }",
        "initialiser": "int main() { int y = f(0); return 0; }",
        "argument": "int main() { g(f(0)); return 0; }",
        "cast": "int main() { long z = (long) f(0); return 0; }",
    }
    DETAIL = "use of the value of a function that did not return one"

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_run_source(self, shape):
        result = run_source(self.PRELUDE + self.SHAPES[shape])
        assert result.status is ExecutionStatus.UNDEFINED
        assert result.detail == self.DETAIL

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_run_unit(self, shape):
        unit = parse(self.PRELUDE + self.SHAPES[shape])
        resolve(unit)
        for _ in range(2):  # a second run of the same unit classifies alike
            result = run_unit(unit)
            assert result.status is ExecutionStatus.UNDEFINED
            assert result.detail == self.DETAIL

    def test_returning_the_missing_value_from_main_is_unchanged(self):
        result = run_source(self.PRELUDE + "int main() { return f(0); }")
        assert result.ok and result.exit_code == 0

    def test_oracle_skips_instead_of_raising(self):
        oracle = DifferentialOracle(version="scc-trunk", opt_level=2)
        observation = oracle.observe(self.PRELUDE + self.SHAPES["argument"])
        assert observation.kind is ObservationKind.SKIPPED


class TestBlockScopeContainment:
    """Declarations as un-braced if/while bodies stay in the enclosing block.

    Regression: the environment-fork elision must treat a DeclStmt reachable
    through non-block statements (``if (c) int x = 2;``) as declaring into
    the enclosing block -- otherwise the declaration rebinds the outer
    variable and the reference interpreter diverges from the compiler
    pipeline.
    """

    SOURCE = """
int main(void) {
    int x = 1;
    {
        if (1) int x = 2;
    }
    return x;
}
"""

    def test_declaration_under_if_body(self):
        result = status_of(self.SOURCE)
        assert result.ok and result.exit_code == 1

    def test_declaration_under_while_body(self):
        source = """
int main(void) {
    int x = 5;
    int i = 0;
    {
        while (i < 1) { i = i + 1; }
        if (i) int x = 9;
    }
    return x;
}
"""
        result = status_of(source)
        assert result.ok and result.exit_code == 5
