"""Tests for the IR, lowering, and CFG construction."""

from repro.compiler.cfg import CFG
from repro.compiler.ir import (
    BinOp,
    CJump,
    Call,
    Const,
    Jump,
    Load,
    Return,
    Store,
    Temp,
    instruction_count,
)
from repro.compiler.lowering import lower_module
from repro.minic.parser import parse
from repro.minic.symbols import resolve


def lower(source: str):
    unit = parse(source)
    resolve(unit)
    return lower_module(unit)


class TestLowering:
    def test_globals_with_initialisers(self):
        module = lower("int a = 3; int arr[2] = {7, 8}; int main() { return a; }")
        assert module.globals["a"].initial == [3]
        assert module.globals["arr"].initial == [7, 8]

    def test_simple_function_shape(self):
        module = lower("int main() { int x = 1; return x + 2; }")
        function = module.function("main")
        instrs = list(function.instructions())
        assert any(isinstance(i, Store) for i in instrs)
        assert any(isinstance(i, BinOp) and i.op == "+" for i in instrs)
        assert isinstance(instrs[-1], Return)

    def test_if_creates_branches(self):
        module = lower("int main() { int x = 1; if (x) x = 2; else x = 3; return x; }")
        function = module.function("main")
        assert any(isinstance(i, CJump) for i in function.instructions())
        assert len(function.blocks) >= 4

    def test_loops_and_goto(self):
        source = """
        int main() {
            int s = 0;
            for (int i = 0; i < 3; i++) s += i;
            while (s > 2) s--;
            do s++; while (s < 4);
            if (s) goto end;
            s = 100;
        end:
            return s;
        }
        """
        module = lower(source)
        function = module.function("main")
        labels = set(function.blocks)
        assert any(label.startswith("for.head") for label in labels)
        assert any(label.startswith("label.end") for label in labels)

    def test_short_circuit_and_ternary(self):
        module = lower("int main() { int a = 1, b = 0; int c = a && b; int d = a ? 5 : 6; return c + d; }")
        function = module.function("main")
        labels = set(function.blocks)
        assert any(label.startswith("sc.") for label in labels)
        assert any(label.startswith("cond.") for label in labels)

    def test_calls_and_printf(self):
        module = lower('int f(int x) { return x; } int main() { printf("%d", f(3)); return 0; }')
        calls = [i for i in module.function("main").instructions() if isinstance(i, Call)]
        assert {call.name for call in calls} == {"f", "printf"}
        printf_call = [c for c in calls if c.name == "printf"][0]
        assert printf_call.format == "%d"

    def test_scoped_locals_get_unique_slots(self):
        module = lower("int main() { int x = 1; { int x = 2; x = 3; } return x; }")
        function = module.function("main")
        assert len([name for name in function.slots if name.startswith("x")]) == 2

    def test_instruction_count(self):
        module = lower("int main() { return 0; }")
        assert instruction_count(module) >= 1

    def test_operand_str_and_block_str(self):
        module = lower("int main() { int x = 1; return x; }")
        text = str(module)
        assert "entry:" in text and "@x" in text


class TestCFG:
    def test_reachability_and_rpo(self):
        module = lower("int main() { int x = 1; if (x) x = 2; return x; }")
        cfg = CFG(module.function("main"))
        assert "entry" in cfg.reachable()
        assert cfg.reverse_postorder()[0] == "entry"

    def test_dominators_and_loops(self):
        module = lower("int main() { int s = 0; for (int i = 0; i < 3; i++) s += i; return s; }")
        function = module.function("main")
        cfg = CFG(function)
        dominators = cfg.dominators()
        assert all("entry" in doms for doms in dominators.values())
        loops = cfg.natural_loops()
        assert len(loops) == 1
        assert cfg.is_reducible()
        idom = cfg.immediate_dominators()
        assert idom["entry"] is None

    def test_irreducible_goto_graph(self):
        source = """
        int main() {
            int a = 0, x = 0, y = 0;
            if (a) goto l2;
        l1: x = x + 1;
        l2: y = y + 1;
            if (y < 3) goto l1;
            return x + y;
        }
        """
        module = lower(source)
        cfg = CFG(module.function("main"))
        assert not cfg.is_reducible()

    def test_back_edges_match_dominance_on_corpus(self):
        """The acyclic short cut in ``back_edges`` agrees with the
        dominance definition, on functions with and without loops."""
        from repro.frontends import get_frontend

        cyclic = acyclic = 0
        for source in get_frontend("minic").build_corpus(files=12).values():
            for function in lower(source).functions.values():
                cfg = CFG(function)
                dom = cfg.dominators()
                expected = {
                    (label, succ)
                    for label in cfg.reachable()
                    for succ in cfg.successors.get(label, [])
                    if succ in dom.get(label, set())
                }
                assert set(cfg.back_edges()) == expected
                if expected:
                    cyclic += 1
                else:
                    acyclic += 1
        assert cyclic and acyclic
