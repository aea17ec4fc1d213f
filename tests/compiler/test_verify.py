"""Unit tests for the between-pass IR well-formedness verifier."""

from repro.compiler.ir import (
    BasicBlock,
    BinOp,
    CJump,
    Call,
    Const,
    Copy,
    IRFunction,
    IRModule,
    Jump,
    Return,
    Temp,
    VarRef,
)
from repro.compiler.cfg import CFG
from repro.compiler.driver import Compiler
from repro.compiler.lowering import lower_module
from repro.compiler.verify import (
    DefinedTemps,
    IRViolation,
    first_violation,
    verify_function,
    verify_module,
)
from repro.compiler.versions import lineage_versions
from repro.frontends import get_frontend
from repro.minic.parser import parse
from repro.minic.symbols import resolve


def _function(blocks, entry="entry", slots=(), params=()):
    return IRFunction(
        name="f",
        params=list(params),
        slots={slot.name: slot for slot in slots},
        blocks={block.label: block for block in blocks},
        entry=entry,
        return_type=None,
    )


def _block(label, instructions):
    return BasicBlock(label=label, instructions=list(instructions))


def _lowered(source):
    unit = parse(source)
    resolve(unit)
    return lower_module(unit)


class TestWellFormed:
    def test_straight_line_function_is_clean(self):
        function = _function([_block("entry", [Return(Const(0))])])
        assert verify_function(function) == []

    def test_lowered_corpus_program_is_clean(self):
        module = _lowered(
            """
            int add(int a, int b) { return a + b; }
            int main(void) {
              int x = 1;
              int y = 2;
              if (x < y) { x = add(x, y); } else { y = add(y, x); }
              printf("%d\\n", x + y);
              return 0;
            }
            """
        )
        assert verify_module(module) == []

    def test_diamond_with_temps_is_clean(self):
        t = Temp("t1")
        function = _function(
            [
                _block("entry", [Copy(t, Const(1)), CJump(t, "a", "b")]),
                _block("a", [Jump("join")]),
                _block("b", [Jump("join")]),
                _block("join", [Return(t)]),
            ]
        )
        assert verify_function(function) == []


class TestTerminatorRules:
    def test_empty_block_flagged(self):
        function = _function(
            [_block("entry", [Jump("next")]), _block("next", [])]
        )
        rules = {v.rule for v in verify_function(function)}
        assert "terminator" in rules

    def test_missing_terminator_flagged(self):
        function = _function([_block("entry", [Copy(Temp("t1"), Const(0))])])
        rules = {v.rule for v in verify_function(function)}
        assert "terminator" in rules

    def test_mid_block_terminator_flagged(self):
        function = _function(
            [_block("entry", [Return(Const(0)), Return(Const(1))])]
        )
        rules = {v.rule for v in verify_function(function)}
        assert "terminator" in rules

    def test_missing_entry_flagged(self):
        function = _function([_block("body", [Return(Const(0))])])
        rules = {v.rule for v in verify_function(function)}
        assert "entry" in rules


class TestCFGRules:
    def test_dangling_jump_target_flagged(self):
        function = _function([_block("entry", [Jump("nowhere")])])
        violations = verify_function(function)
        assert any(v.rule == "target" for v in violations)

    def test_dangling_cjump_target_flagged(self):
        t = Temp("t1")
        function = _function(
            [
                _block("entry", [Copy(t, Const(1)), CJump(t, "a", "gone")]),
                _block("a", [Return(Const(0))]),
            ]
        )
        violations = verify_function(function)
        assert any(v.rule == "target" for v in violations)

    def test_unreachable_block_only_with_flag(self):
        function = _function(
            [
                _block("entry", [Return(Const(0))]),
                _block("orphan", [Jump("entry")]),
            ]
        )
        assert verify_function(function) == []
        rules = {v.rule for v in verify_function(function, check_unreachable=True)}
        assert "unreachable-block" in rules


class TestTempDefinitions:
    def test_use_before_def_flagged(self):
        function = _function([_block("entry", [Return(Temp("t9"))])])
        violations = verify_function(function)
        assert any(v.rule == "use-before-def" for v in violations)

    def test_use_defined_on_one_path_only_flagged(self):
        t = Temp("t1")
        cond = Temp("c")
        function = _function(
            [
                _block("entry", [Copy(cond, Const(1)), CJump(cond, "a", "b")]),
                _block("a", [Copy(t, Const(2)), Jump("join")]),
                _block("b", [Jump("join")]),
                _block("join", [Return(t)]),
            ]
        )
        violations = verify_function(function)
        assert any(v.rule == "use-before-def" and "t1" in v.detail for v in violations)

    def test_binop_operands_checked(self):
        dest = Temp("d")
        function = _function(
            [_block("entry", [BinOp(dest, "+", Temp("u"), Const(1)), Return(dest)])]
        )
        violations = verify_function(function)
        assert any(v.rule == "use-before-def" for v in violations)


def _fixed_point_temp_violations(function):
    """The use-before-def check run through the full ``DefinedTemps`` fixed
    point for every function, as the verifier did before its per-block
    fast path: the reference the fast path must match."""
    analysis = DefinedTemps(function)
    analysis.run()
    found = []
    for label in CFG(function).reverse_postorder():
        defined = set(analysis.block_in.get(label, frozenset()))
        for instr in function.blocks[label].instructions:
            for operand in instr.uses():
                if isinstance(operand, Temp) and operand.name not in defined:
                    found.append((label, f"{operand} used before definition in {instr}"))
            defined.update(temp.name for temp in instr.defs())
    return found


def _temp_violations(function):
    return [
        (violation.block, violation.detail)
        for violation in verify_function(function)
        if violation.rule == "use-before-def"
    ]


def _has_cross_block_use(function):
    for block in function.blocks.values():
        defined = set()
        for instr in block.instructions:
            if any(isinstance(op, Temp) and op.name not in defined for op in instr.uses()):
                return True
            defined.update(temp.name for temp in instr.defs())
    return False


class TestTempDefinitionFastPath:
    def test_matches_fixed_point_on_hand_built_cross_block_uses(self):
        t, cond = Temp("t1"), Temp("c")
        one_path = _function(
            [
                _block("entry", [Copy(cond, Const(1)), CJump(cond, "a", "b")]),
                _block("a", [Copy(t, Const(2)), Jump("join")]),
                _block("b", [Jump("join")]),
                _block("join", [Return(t)]),
            ]
        )
        both_paths = _function(
            [
                _block("entry", [Copy(cond, Const(1)), CJump(cond, "a", "b")]),
                _block("a", [Copy(t, Const(2)), Jump("join")]),
                _block("b", [Copy(t, Const(3)), Jump("join")]),
                _block("join", [Return(t)]),
            ]
        )
        for function in (one_path, both_paths):
            assert _temp_violations(function) == _fixed_point_temp_violations(function)
        assert _temp_violations(one_path)
        assert not _temp_violations(both_paths)

    def test_matches_fixed_point_across_lineage_matrix(self):
        frontend = get_frontend("minic")
        versions = ["reference"] + lineage_versions("scc") + lineage_versions("lcc")
        functions = []
        for source in frontend.build_corpus(files=6).values():
            functions.extend(_lowered(source).functions.values())
            for version in versions:
                for level in range(1, 4):
                    outcome = Compiler(version, level).compile_source(source)
                    if outcome.module is not None:
                        functions.extend(outcome.module.functions.values())
        assert any(_has_cross_block_use(function) for function in functions)
        for function in functions:
            assert _temp_violations(function) == _fixed_point_temp_violations(function)


class TestOperandAndCallRules:
    def test_unknown_variable_flagged(self):
        module = IRModule(globals={}, functions={})
        function = _function(
            [
                _block(
                    "entry",
                    [Copy(Temp("t"), Const(1)), Return(Const(0))],
                )
            ]
        )
        # A Load of a VarRef that names no slot and no global.
        from repro.compiler.ir import Load
        from repro.minic.ctypes import INT

        function.blocks["entry"].instructions.insert(
            0, Load(Temp("x"), VarRef("ghost"), INT)
        )
        module.functions["f"] = function
        violations = verify_function(function, module)
        assert any(v.rule == "operand" for v in violations)

    def test_call_arity_checked(self):
        callee = _function([_block("entry", [Return(Const(0))])], params=["a", "b"])
        callee.name = "callee"
        caller = _function(
            [
                _block(
                    "entry",
                    [Call(Temp("t"), "callee", [Const(1)]), Return(Const(0))],
                )
            ]
        )
        caller.name = "caller"
        module = IRModule(globals={}, functions={"callee": callee, "caller": caller})
        violations = verify_function(caller, module)
        assert any(v.rule == "call" for v in violations)

    def test_unknown_callee_flagged(self):
        caller = _function(
            [_block("entry", [Call(None, "ghost", []), Return(Const(0))])]
        )
        module = IRModule(globals={}, functions={"f": caller})
        violations = verify_function(caller, module)
        assert any(v.rule == "call" for v in violations)


class TestReporting:
    def test_first_violation_matches_list_head(self):
        function = _function([_block("entry", [Jump("nowhere")])])
        first = first_violation(function)
        assert isinstance(first, IRViolation)
        assert first == verify_function(function)[0]
        assert first_violation(_function([_block("entry", [Return(Const(0))])])) is None

    def test_violation_renders_rule_and_location(self):
        violation = IRViolation("main", "entry", "target", "jump to 'x'")
        text = str(violation)
        assert "target" in text and "main/entry" in text
