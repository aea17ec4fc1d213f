"""An optimizing compiler for mini-C: the compiler-under-test substrate.

The paper evaluates SPE by feeding enumerated variants to GCC/Clang and
watching for crashes and miscompilations.  Offline and deterministically, we
reproduce that observable with a from-scratch optimizing compiler:

* :mod:`repro.compiler.ir` -- a three-address, basic-block IR;
* :mod:`repro.compiler.lowering` -- AST to IR translation;
* :mod:`repro.compiler.cfg` -- control-flow graph utilities (dominators,
  natural loops, reachability);
* :mod:`repro.compiler.dataflow` -- a generic forward/backward dataflow
  engine (reaching constants, live variables, available expressions);
* :mod:`repro.compiler.passes` -- the optimization passes (constant folding
  and propagation, copy propagation, DCE, local CSE, algebraic
  simplification, CFG simplification, loop-invariant code motion) driven by a
  pass manager with event-level coverage instrumentation;
* :mod:`repro.compiler.vm` -- an IR interpreter producing the same
  observable behaviour tuple as the reference interpreter;
* :mod:`repro.compiler.codegen` -- the generated-Python tier that runs
  outliving the VM's tier-up threshold are restarted in;
* :mod:`repro.compiler.faults` / :mod:`repro.compiler.versions` -- the
  seeded-bug framework and the catalogue of "compiler versions" used by the
  bug-finding experiments (Tables 3-4, Figure 10).
"""

from repro.compiler.driver import CompilationError, Compiler, CompileOutcome, InternalCompilerError
from repro.compiler.faults import Fault, FaultKind, FaultSet
from repro.compiler.pipeline import OptimizationLevel, build_pass_pipeline
from repro.compiler.versions import CompilerVersion, available_versions, get_version

__all__ = [
    "CompilationError",
    "CompileOutcome",
    "Compiler",
    "CompilerVersion",
    "Fault",
    "FaultKind",
    "FaultSet",
    "InternalCompilerError",
    "OptimizationLevel",
    "available_versions",
    "build_pass_pipeline",
    "get_version",
]
