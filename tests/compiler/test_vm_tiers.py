"""The generated-code IR tier against the closure VM, and tier-up selection.

``GeneratedModule.run`` must return an ``ExecutionResult`` equal to
``VirtualMachine.run`` for every module, entry and budget.  The corpus leg
compares the two on real optimized modules; the hand-built modules below
each pin one edge of the contract (trap order and details, tick placement
around output, block-id allocation, wrapping), compared at every budget
up to a full run so a misplaced tick shows as a TIMEOUT mismatch.
"""

import pytest

from repro.compiler import codegen
from repro.compiler.codegen import GeneratedModule
from repro.compiler.driver import TIER_UP_STEPS, Compiler
from repro.compiler.ir import (
    AddrOf,
    BasicBlock,
    BinOp,
    CJump,
    Call,
    Const,
    Copy,
    Instr,
    IRFunction,
    IRModule,
    Jump,
    Load,
    LoadElem,
    LoadPtr,
    Return,
    Store,
    StoreElem,
    StorePtr,
    Temp,
    UnOp,
    VariableSlot,
    VarRef,
)
from repro.compiler.versions import get_version, lineage_versions
from repro.compiler.vm import VirtualMachine, VMTrap
from repro.core.spe import SkeletonEnumerator
from repro.frontends import get_frontend
from repro.minic.ctypes import CHAR, INT, LONG, UINT, ULONG, PointerType
from repro.minic.interp import ExecutionStatus

DEFAULT_BUDGET = 500_000
CORPUS_BUDGETS = (1, 2, 7, 40, 101, DEFAULT_BUDGET)


def t(name):
    return Temp(name)


def c(value):
    return Const(value)


def v(name):
    return VarRef(name)


def slot(name, size=1, ctype=INT, initial=None):
    return VariableSlot(name, ctype, size=size, initial=initial)


def function(name, blocks, slots=(), params=(), entry="entry"):
    return IRFunction(
        name,
        params=list(params),
        slots={s.name: s for s in slots},
        blocks={label: BasicBlock(label, list(instrs)) for label, instrs in blocks},
        entry=entry,
    )


def module(*functions, globals_=()):
    return IRModule(
        globals={s.name: s for s in globals_},
        functions={f.name: f for f in functions},
    )


def printf(fmt, *args, dest=None):
    return Call(dest, "printf", list(args), format=fmt)


def vm_result(mod, budget, entry="main"):
    return VirtualMachine(mod, max_steps=budget).run(entry)


def vm_steps(mod, entry="main", cap=300):
    """Instructions a run executes, read off the closure VM (at most ``cap``)."""
    machine = VirtualMachine(mod, max_steps=cap)
    machine.run(entry)
    return machine._steps


def assert_tiers_agree(mod, entry="main", extra_budgets=(DEFAULT_BUDGET,)):
    """Equal results at every budget through a full run (or its first 300
    steps), then at ``extra_budgets``; returns the default-budget result."""
    generated = GeneratedModule(mod)
    budgets = list(range(vm_steps(mod, entry) + 2)) + list(extra_budgets)
    for budget in budgets:
        expected = vm_result(mod, budget, entry)
        assert generated.run(entry, budget) == expected, (budget, generated.source)
    return vm_result(mod, DEFAULT_BUDGET, entry)


# -- the seed corpus -----------------------------------------------------------------


def corpus_modules():
    """Distinct optimized modules of the seed corpus and its first variants,
    compiled by every lineage version of the default matrix at O0-O3."""
    frontend = get_frontend("minic")
    versions = []
    for version in frontend.default_versions:
        versions.extend(lineage_versions(get_version(version).lineage))
    compilers = [Compiler(version, level) for version in versions for level in range(4)]
    modules = {}
    for name, source in frontend.build_corpus(files=6).items():
        skeleton = frontend.extract_skeleton(source, name=name)
        outcomes = [compiler.compile_source(source, name=name) for compiler in compilers]
        for variant in SkeletonEnumerator(skeleton).indexed_programs(start=0, stop=3):
            outcomes.extend(compiler.compile_variant(variant, name=name) for compiler in compilers)
        for outcome in outcomes:
            if outcome.success:
                modules.setdefault(str(outcome.module), outcome.module)
    return list(modules.values())


def test_generated_tier_matches_vm_on_corpus():
    statuses = set()
    modules = corpus_modules()
    for mod in modules:
        generated = GeneratedModule(mod)
        for budget in CORPUS_BUDGETS:
            expected = vm_result(mod, budget)
            assert generated.run("main", budget) == expected, (budget, str(mod))
            if budget == DEFAULT_BUDGET:
                statuses.add(expected.status)
    assert len(modules) >= 100
    # The variants include miscompiled loops and trapping modules.
    assert statuses >= {ExecutionStatus.OK, ExecutionStatus.TIMEOUT, ExecutionStatus.ERROR}


# -- hand-built edge cases ---------------------------------------------------------


def test_division_by_zero_after_output():
    mod = module(function("main", [("entry", [
        printf("before\\n"),
        BinOp(t("q"), "/", c(7), c(0)),
        Return(t("q")),
    ])]))
    result = assert_tiers_agree(mod)
    assert result.status is ExecutionStatus.ERROR
    assert (result.detail, result.stdout) == ("division by zero", "before\\n")


def test_division_and_remainder_truncate_toward_zero():
    mod = module(function("main", [("entry", [
        BinOp(t("q"), "/", c(-7), c(2)),
        BinOp(t("r"), "%", c(-7), c(2)),
        printf("%d %d", t("q"), t("r")),
        Return(c(0)),
    ])]))
    assert assert_tiers_agree(mod).stdout == "-3 -1"


@pytest.mark.parametrize("access", ["load", "store"])
def test_size_zero_slot_traps(access):
    body = [Load(t("x"), v("z"))] if access == "load" else [Store(v("z"), c(1))]
    mod = module(function("main", [("entry", [*body, Return(c(0))])], slots=[slot("z", size=0)]))
    result = assert_tiers_agree(mod)
    assert result.status is ExecutionStatus.ERROR
    assert result.detail == "invalid memory access at VMPointer(block_id=0, offset=0)"


@pytest.mark.parametrize("index", [3, 5, -1])
def test_out_of_range_element_traps(index):
    mod = module(function("main", [("entry", [
        StoreElem(v("a"), c(2), c(9)),
        Copy(t("i"), c(index)),
        LoadElem(t("x"), v("a"), t("i")),
        Return(t("x")),
    ])]), globals_=[slot("a", size=3)])
    result = assert_tiers_agree(mod)
    assert result.status is ExecutionStatus.ERROR
    assert result.detail == f"invalid memory access at VMPointer(block_id=0, offset={index})"


def test_in_range_elements_and_initialisers():
    mod = module(function("main", [("entry", [
        Copy(t("i"), c(1)),
        LoadElem(t("x"), v("a"), t("i")),
        StoreElem(v("a"), c(2), t("x")),
        LoadElem(t("y"), v("a"), c(2)),
        Load(t("g"), v("g")),
        BinOp(t("s"), "+", t("y"), t("g")),
        Return(t("s")),
    ])]), globals_=[slot("a", size=3, initial=[4, 5]), slot("g", initial=[None])])
    result = assert_tiers_agree(mod)
    assert result.ok and result.exit_code == 5


@pytest.mark.parametrize(
    "instr, detail",
    [
        (LoadPtr(t("x"), c(5)), "dereference of a non-pointer value"),
        (StorePtr(c(5), c(1)), "store through a non-pointer value"),
        (LoadElem(t("x"), t("n"), c(0)), "indexing a non-pointer value"),
        (StoreElem(c(4), c(0), c(1)), "indexing a non-pointer value"),
    ],
)
def test_non_pointer_access_traps(instr, detail):
    mod = module(function("main", [("entry", [Copy(t("n"), c(3)), instr, Return(c(0))])]))
    result = assert_tiers_agree(mod)
    assert (result.status, result.detail) == (ExecutionStatus.ERROR, detail)


@pytest.mark.parametrize(
    "body, detail",
    [
        ([Load(t("x"), v("nope"))], "unknown variable 'nope'"),
        ([AddrOf(t("x"), v("nope"))], "unknown variable 'nope'"),
        # The target is looked up and checked before the source is read.
        ([Store(v("nope"), v("gone"))], "unknown variable 'nope'"),
        ([StoreElem(v("nope"), c(0), v("gone"))], "unknown variable 'nope'"),
        ([Store(v("ok"), v("gone"))], "unknown variable 'gone'"),
        ([LoadElem(t("x"), t("n"), v("gone"))], "indexing a non-pointer value"),
        ([Jump("nowhere")], "jump to unknown block 'nowhere'"),
        ([Call(t("x"), "nope", [c(1)])], "call of undefined function 'nope'"),
    ],
)
def test_unknown_names_trap_when_executed(body, detail):
    mod = module(function("main", [("entry", [Copy(t("n"), c(1)), *body, Return(c(0))])], slots=[slot("ok")]))
    result = assert_tiers_agree(mod)
    assert (result.status, result.detail) == (ExecutionStatus.ERROR, detail)


def test_unknown_names_in_unreached_code_do_not_trap():
    mod = module(function("main", [
        ("entry", [CJump(c(0), "dead", "live")]),
        ("dead", [Load(t("x"), v("nope")), Call(None, "nope", []), Jump("nowhere")]),
        ("live", [Return(c(4))]),
    ]))
    result = assert_tiers_agree(mod)
    assert result.ok and result.exit_code == 4


class _Mystery(Instr):
    pass


def test_untranslatable_block_traps_on_entry():
    mod = module(function("main", [
        ("entry", [printf("a"), Jump("bad")]),
        # The VM translates a whole block on entry, so even an instruction
        # after the terminator fails it before any tick.
        ("bad", [Return(c(1)), _Mystery()]),
    ]))
    result = assert_tiers_agree(mod)
    assert result.status is ExecutionStatus.ERROR
    assert result.detail.startswith("unknown instruction")
    assert result.stdout == "a"


def test_call_depth_limit():
    mod = module(
        function("main", [("entry", [Call(t("r"), "down", [c(0)]), Return(t("r"))])]),
        function("down", [("entry", [
            Load(t("d"), v("d")),
            BinOp(t("e"), "+", t("d"), c(1)),
            Call(t("r"), "down", [t("e")]),
            Return(t("r")),
        ])], slots=[slot("d")], params=["d"]),
    )
    generated = GeneratedModule(mod)
    for budget in (50, 700, 2_000, DEFAULT_BUDGET):
        assert generated.run("main", budget) == vm_result(mod, budget)
    result = vm_result(mod, DEFAULT_BUDGET)
    assert (result.status, result.detail) == (ExecutionStatus.ERROR, "call depth limit exceeded")


@pytest.mark.parametrize("builtin, code", [("exit", 3), ("abort", 134)])
def test_exit_and_abort_inside_a_callee(builtin, code):
    args = [c(259)] if builtin == "exit" else []
    mod = module(
        function("main", [("entry", [
            printf("main "),
            Call(t("r"), "leave", [c(7)]),
            printf("unreached"),
            Return(c(0)),
        ])]),
        function("leave", [("entry", [printf("leave %d ", v("k")), Call(None, builtin, args), Return(c(1))])],
                 slots=[slot("k")], params=["k"]),
    )
    result = assert_tiers_agree(mod)
    assert (result.status, result.exit_code, result.stdout) == (ExecutionStatus.OK, code, "main leave 7 ")


def test_output_then_budget_runs_out_mid_segment():
    # Each iteration prints between pure instructions; every budget through
    # the run cuts it at a different instruction.
    mod = module(function("main", [
        ("entry", [Store(v("i"), c(0)), Jump("loop")]),
        ("loop", [
            Load(t("a"), v("i")),
            BinOp(t("b"), "*", t("a"), c(3)),
            printf("%d,", t("b")),
            Call(t("p"), "putchar", [c(65)]),
            BinOp(t("n"), "+", t("a"), c(1)),
            Store(v("i"), t("n")),
            BinOp(t("k"), "<", t("n"), c(6)),
            CJump(t("k"), "loop", "done"),
        ]),
        ("done", [Copy(t("z"), t("never")), Return(t("z"))]),
    ], slots=[slot("i")]))
    result = assert_tiers_agree(mod)
    assert result.ok and result.exit_code == 0
    assert result.stdout == "0,A3,A6,A9,A12,A15,A"


def test_self_loop_times_out_with_output_so_far():
    mod = module(function("main", [
        ("entry", [printf("x"), Jump("spin")]),
        ("spin", [AddrOf(t("p"), v("y")), Jump("spin")]),
    ], slots=[slot("y")]))
    result = assert_tiers_agree(mod, extra_budgets=(DEFAULT_BUDGET, 4_001, 10_000))
    assert (result.status, result.stdout) == (ExecutionStatus.TIMEOUT, "x")


def test_temp_type_depends_on_the_path_taken():
    # "use" directly follows "entry", where %t is a comparison result, but
    # at run time it is reached from "set" with %t a pointer.
    mod = module(function("main", [
        ("entry", [BinOp(t("t"), "<", c(0), c(1)), Jump("set")]),
        ("use", [
            BinOp(t("u"), "+", t("t"), c(1)),
            BinOp(t("d"), "-", t("u"), t("t")),
            printf("%d", t("d")),
            CJump(t("t"), "done", "set"),
        ]),
        ("set", [AddrOf(t("t"), v("x")), Jump("use")]),
        ("done", [Return(c(0))]),
    ], slots=[slot("x")]))
    assert assert_tiers_agree(mod).stdout == "1"


def test_non_int_constants_take_the_helpers():
    mod = module(function("main", [
        ("entry", [
            BinOp(t("a"), "+", c(2.7), c(1)),
            UnOp(t("n"), "-", c(True)),
            Store(v("x"), c(2.5)),
            Load(t("x"), v("x")),
            printf("%d %d %d", t("a"), t("n"), t("x")),
            CJump(c(0.5), "yes", "no"),
        ]),
        ("yes", [Return(c(1))]),
        ("no", [Return(c(2))]),
    ], slots=[slot("x")]))
    result = assert_tiers_agree(mod)
    assert (result.stdout, result.exit_code) == ("3 -1 2", 2)


def test_scalar_slot_operands_everywhere():
    # Slot reads as operands (not through a Load) in every operand position.
    mod = module(function("main", [
        ("entry", [
            Store(v("one"), c(1)),
            Store(v("x"), c(5)),
            AddrOf(t("p"), v("x")),
            Store(v("ptr"), t("p")),
            BinOp(t("lt"), "<", v("x"), v("y")),
            BinOp(t("sum"), "+", v("x"), v("y")),
            BinOp(t("mod"), "%", v("x"), v("y")),
            UnOp(t("neg"), "-", v("x")),
            UnOp(t("inv"), "~", v("x")),
            UnOp(t("not"), "!", v("x")),
            UnOp(t("cast"), "cast", v("big"), CHAR),
            Store(v("y"), v("x")),
            StoreElem(v("a"), v("one"), v("x")),
            LoadElem(t("e"), v("a"), v("one")),
            LoadPtr(t("d"), v("ptr")),
            StorePtr(v("ptr"), v("one")),
            printf("%d %d %d %d %d %d %d %d %d ", t("lt"), t("sum"), t("mod"), t("neg"), t("inv"), t("not"),
                   t("cast"), t("e"), t("d")),
            CJump(v("x"), "yes", "no"),
        ]),
        ("yes", [Return(v("x"))]),
        ("no", [Return(c(9))]),
    ], slots=[slot("x"), slot("ptr", ctype=PointerType(INT)), slot("a", size=2), slot("one")]),
        globals_=[slot("y", initial=[3]), slot("big", initial=[300])])
    result = assert_tiers_agree(mod)
    assert (result.stdout, result.exit_code) == ("0 8 2 -5 -6 0 44 5 5 ", 1)


@pytest.mark.parametrize(
    "instr",
    [
        Copy(t("x"), v("gone")),
        BinOp(t("x"), "+", t("n"), v("gone")),
        BinOp(t("x"), "/", v("gone"), c(0)),
        UnOp(t("x"), "-", v("gone")),
        LoadPtr(t("x"), v("gone")),
        StorePtr(t("n"), v("gone")),
        StoreElem(v("a"), c(0), v("gone")),
        CJump(v("gone"), "entry", "entry"),
        Return(v("gone")),
        Call(None, "abort", [c(1), v("gone")]),
        Call(t("x"), "helper", [v("gone")]),
        Call(t("x"), "nope", [v("gone")]),
    ],
    ids=lambda instr: type(instr).__name__,
)
def test_unknown_operand_reads_trap_when_executed(instr):
    # %n holds an int, so StorePtr would also trap on its pointer: the VM
    # checks the pointer first.
    expected = "store through a non-pointer value" if isinstance(instr, StorePtr) else "unknown variable 'gone'"
    mod = module(
        function("main", [("entry", [Copy(t("n"), c(2)), printf("a"), instr, Return(c(0))])], slots=[slot("a", size=2)]),
        function("helper", [("entry", [Return(c(0))])]),
    )
    result = assert_tiers_agree(mod)
    assert (result.status, result.detail, result.stdout) == (ExecutionStatus.ERROR, expected, "a")


def test_unknown_unary_operator_and_constant_out_of_range_index():
    mod = module(function("main", [("entry", [UnOp(t("x"), "?", c(1)), Return(t("x"))])]))
    result = assert_tiers_agree(mod)
    assert result.detail == "unknown unary operator '?'"
    mod = module(function("main", [("entry", [LoadElem(t("x"), v("a"), c(7)), Return(t("x"))])],
                          slots=[slot("a", size=2)]))
    result = assert_tiers_agree(mod)
    assert result.detail == "invalid memory access at VMPointer(block_id=0, offset=7)"


@pytest.mark.parametrize(
    "instr, detail",
    [
        (BinOp(t("x"), "ptradd", c(1), t("p")), "ptradd on a non-pointer"),
        (BinOp(t("x"), "@", c(1), c(2)), "unknown binary operator '@'"),
        (BinOp(t("x"), "<", t("p"), c(0)), "unsupported pointer operation '<'"),
        (UnOp(t("x"), "-", t("p")), "unary '-' on a pointer"),
    ],
)
def test_helper_traps(instr, detail):
    mod = module(function("main", [("entry", [AddrOf(t("p"), v("s")), instr, Return(c(0))])], slots=[slot("s")]))
    result = assert_tiers_agree(mod)
    assert (result.status, result.detail) == (ExecutionStatus.ERROR, detail)


def test_pointer_null_compare_int_plus_pointer_and_void_return():
    mod = module(function("main", [
        ("entry", [
            AddrOf(t("p"), v("a")),
            BinOp(t("eq"), "==", c(0), t("p")),
            BinOp(t("q"), "+", c(1), t("p")),
            StorePtr(t("q"), c(6)),
            LoadElem(t("x"), v("a"), c(1)),
            printf("%d %d", t("eq"), t("x")),
            Return(),
        ]),
    ], slots=[slot("a", size=2)]))
    result = assert_tiers_agree(mod)
    assert (result.stdout, result.exit_code) == ("0 6", 0)


def test_empty_global_raises_out_of_both_tiers():
    mod = module(function("main", [("entry", [Return(c(0))])]), globals_=[slot("g", size=0)])
    with pytest.raises(VMTrap, match="invalid memory access"):
        VirtualMachine(mod).run()
    with pytest.raises(VMTrap, match="invalid memory access"):
        GeneratedModule(mod).run()


def test_malformed_functions_fail_like_the_vm():
    mod = module(
        function("main", [("entry", [
            Call(None, "empty_param", [c(1)]),
            Call(t("r"), "no_entry", []),
            Return(t("r")),
        ])]),
        function("empty_param", [("entry", [Return(c(0))])], slots=[slot("z", size=0)], params=["z"]),
        function("no_entry", [("entry", [Return(c(1))])], entry="nowhere"),
        function("ghost", [("entry", [Return(c(2))])], params=["g"]),
    )
    result = assert_tiers_agree(mod)
    assert result.detail == "invalid memory access at VMPointer(block_id=0, offset=0)"
    del mod.functions["main"].blocks["entry"].instructions[0]
    result = assert_tiers_agree(mod)
    assert result.detail == "jump to unknown block 'nowhere'"
    # A parameter without a slot is a KeyError out of both tiers, and only
    # once an argument is bound to it.
    assert GeneratedModule(mod).run("ghost") == VirtualMachine(mod).run("ghost")
    mod.functions["main"].blocks["entry"].instructions[0] = Call(t("r"), "ghost", [c(1)])
    with pytest.raises(KeyError):
        VirtualMachine(mod).run()
    with pytest.raises(KeyError):
        GeneratedModule(mod).run()


def test_pointer_compare_subtract_and_ptradd():
    mod = module(function("main", [("entry", [
        AddrOf(t("p"), v("a")),
        BinOp(t("q"), "ptradd", t("p"), c(2)),
        BinOp(t("d"), "-", t("q"), t("p")),
        BinOp(t("lt"), "<", t("p"), t("q")),
        BinOp(t("eq"), "==", t("p"), t("q")),
        BinOp(t("null"), "!=", t("p"), c(0)),
        BinOp(t("r"), "-", t("q"), c(1)),
        StorePtr(t("r"), c(300)),
        LoadElem(t("x"), v("a"), c(1)),
        UnOp(t("not"), "!", t("p")),
        printf("%d %d %d %d %d %d", t("d"), t("lt"), t("eq"), t("null"), t("x"), t("not")),
        BinOp(t("bad"), "*", t("p"), c(2)),
        Return(c(0)),
    ])], slots=[slot("a", size=4)]))
    result = assert_tiers_agree(mod)
    assert result.stdout == "2 1 0 1 300 0"
    assert (result.status, result.detail) == (ExecutionStatus.ERROR, "unsupported pointer operation '*'")


@pytest.mark.parametrize(
    "ctype, op, left, right, expected",
    [
        (UINT, "+", 4294967295, 2, 1),
        (UINT, "-", 0, 1, 4294967295),
        (LONG, "*", 1 << 62, 4, 0),
        (LONG, "+", (1 << 63) - 1, 1, -(1 << 63)),
        (ULONG, "-", 0, 1, (1 << 64) - 1),
        (INT, "<<", 1, 33, 2),
        (INT, "^", -1, 5, -6),
        (CHAR, "+", 127, 1, -128),
    ],
)
def test_unsigned_and_long_wraps(ctype, op, left, right, expected):
    mod = module(function("main", [("entry", [
        Load(t("l"), v("l")),
        BinOp(t("r"), op, t("l"), c(right), ctype),
        printf("%ld", t("r")),
        UnOp(t("n"), "-", t("r"), ctype),
        Store(v("c"), t("n"), CHAR),
        Load(t("cc"), v("c")),
        printf(" %d", t("cc")),
        Return(t("r")),
    ])], slots=[slot("c", ctype=CHAR)]), globals_=[slot("l", ctype=ctype, initial=[left])])
    result = assert_tiers_agree(mod)
    assert result.stdout.split()[0] == str(expected)


def test_printed_pointer_to_int_pins_block_ids():
    # ptradd converts its right operand with the VM's pointer-to-int rule
    # (block_id * 4096 + offset); subtracting the base pointer prints it.
    mod = module(
        function("main", [("entry", [
            Call(None, "probe", []),
            Call(None, "probe", []),
            Return(c(0)),
        ])]),
        function("probe", [("entry", [
            AddrOf(t("base"), v("g1")),
            AddrOf(t("local"), v("mine")),
            AddrOf(t("global"), v("g2")),
            BinOp(t("x"), "ptradd", t("base"), t("local")),
            BinOp(t("id"), "-", t("x"), t("base")),
            BinOp(t("y"), "ptradd", t("base"), t("global")),
            BinOp(t("gid"), "-", t("y"), t("base")),
            printf("%d %d;", t("id"), t("gid")),
            Return(c(0)),
        ])], slots=[slot("first"), slot("mine"), slot("last")]),
        globals_=[slot("g1"), slot("g2")],
    )
    result = assert_tiers_agree(mod)
    # Globals take ids 0-1; each call allocates its three slots in order.
    assert result.stdout == f"{3 * 4096} {1 * 4096};{6 * 4096} {1 * 4096};"


def test_pointer_type_slots_round_trip():
    mod = module(function("main", [("entry", [
        AddrOf(t("p"), v("x")),
        Store(v("ptr"), t("p"), PointerType(INT)),
        Load(t("q"), v("ptr")),
        StorePtr(t("q"), c(41)),
        Load(t("x"), v("x")),
        BinOp(t("y"), "+", t("x"), c(1)),
        Return(t("y")),
    ])], slots=[slot("x"), slot("ptr", ctype=PointerType(INT))]))
    result = assert_tiers_agree(mod)
    assert result.ok and result.exit_code == 42


def test_none_values_read_as_zero():
    # A None argument or initializer is stored as the 0 it reads as.
    mod = module(
        function("main", [("entry", [
            Call(t("r"), "echo", [c(None)]),
            Load(t("g"), v("g")),
            BinOp(t("s"), "+", t("r"), t("g")),
            printf("%d", t("s")),
            Return(t("s")),
        ])]),
        function("echo", [("entry", [Load(t("a"), v("a")), Return(t("a"))])], slots=[slot("a")], params=["a"]),
        globals_=[slot("g", initial=[None])],
    )
    result = assert_tiers_agree(mod)
    assert (result.stdout, result.exit_code) == ("0", 0)


def test_fall_through_unassigned_temps_and_missing_entry():
    mod = module(
        function("main", [
            ("entry", [Call(t("r"), "helper", [c(1), c(2)]), printf("%d", t("r")), Jump("tail")]),
            ("tail", [Copy(t("u"), t("unset"))]),  # no terminator: returns 0
        ]),
        # Called with more arguments than parameters: zip() semantics.
        function("helper", [("entry", [Load(t("a"), v("a")), BinOp(t("s"), "+", t("a"), t("unset"))])],
                 slots=[slot("a")], params=["a"]),
    )
    result = assert_tiers_agree(mod)
    assert result.ok and result.exit_code == 0 and result.stdout == "0"
    assert GeneratedModule(mod).run("absent") == VirtualMachine(mod).run("absent")
    assert GeneratedModule(mod).run("helper") == VirtualMachine(mod).run("helper")


def test_program_text_enters_source_only_as_literals():
    # Were names or formats pasted into the source, this would not compile
    # (or would run the injected statement); as literals they print back.
    hostile = "x')\nraise SystemExit(\"\\\n"
    mod = module(function("main", [("entry", [
        printf(hostile + "%d", c(1)),
        Load(t("x"), v(hostile)),
        Return(c(0)),
    ])]))
    result = assert_tiers_agree(mod)
    assert result.stdout == hostile + "1"
    assert result.detail == f"unknown variable {hostile!r}"


# -- tier selection ------------------------------------------------------------------


@pytest.fixture
def translations(monkeypatch):
    """Modules translated into the generated tier, in order."""
    calls = []

    class Spy(GeneratedModule):
        def __init__(self, mod):
            calls.append(mod)
            super().__init__(mod)

    monkeypatch.setattr(codegen, "GeneratedModule", Spy)
    return calls


def compile_main(source, level=0):
    outcome = Compiler("reference", level).compile_source(source)
    assert outcome.success
    return outcome


def test_long_run_tiers_up_and_matches_closure_vm(translations):
    outcome = compile_main("int main() { int x = 1; while (x) { x = x; } return 0; }")
    result = Compiler("reference", 0).run(outcome)
    assert len(translations) == 1
    assert result == VirtualMachine(outcome.module, max_steps=DEFAULT_BUDGET).run()
    assert result.status is ExecutionStatus.TIMEOUT


def test_short_run_never_translates(translations):
    outcome = compile_main('int main() { int s = 0; for (int i = 0; i < 50; i++) s += i; printf("%d", s); return 1; }')
    result = Compiler("reference", 0).run(outcome)
    assert translations == []
    assert result == VirtualMachine(outcome.module).run()
    assert (result.exit_code, result.stdout) == (1, "1225")


def test_budget_at_threshold_stays_in_closure_vm(translations):
    outcome = compile_main("int main() { while (1) { } return 0; }")
    for budget in (TIER_UP_STEPS - 1, TIER_UP_STEPS):
        result = Compiler("reference", 0, vm_max_steps=budget).run(outcome)
        assert result == VirtualMachine(outcome.module, max_steps=budget).run()
    assert translations == []
    result = Compiler("reference", 0, vm_max_steps=TIER_UP_STEPS + 1).run(outcome)
    assert result.status is ExecutionStatus.TIMEOUT
    assert len(translations) == 1
