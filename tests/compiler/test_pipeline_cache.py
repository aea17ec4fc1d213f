"""Exactness of the pipeline cache shared across compiler versions.

:class:`~repro.compiler.driver.PipelineCache` keys a pass-pipeline run on
the opt level, machine bits, verify flag and pre-optimization module, and
reuses the run for any version whose fault set answers the run's recorded
``FaultSet.active`` queries the same way.  These tests pin that the reuse
is invisible: crashes speak in the asking lineage's words, the verifier's
verdict never leaks between verify settings, ill-formed-IR faults are
attributed per version, and a shuffled walk of the whole version x level
matrix through one cache matches uncached compilation field for field.
"""

import hashlib
import random

import pytest

from repro.compiler.driver import Compiler, PipelineCache
from repro.compiler.pipeline import OptimizationLevel
from repro.compiler.versions import get_version, lineage_versions
from repro.core.holes import BoundVariant
from repro.core.spe import SkeletonEnumerator
from repro.frontends import available_frontends, get_frontend
from repro.lang.compile import WhileCompiler

#: Both lineages crash on ``a - a`` in the folder, each with its own message.
CRASH = "int a, b = 1; int main() { if (a) a = a - a; return b; }"

#: simplify-cfg's seeded ill-formed fault keeps the dead ``printf`` block.
GARBAGE_BLOCK = (
    "int main(void) {\n"
    "  int n = 0;\n"
    '  if (n) { printf("%d\\n", 1); }\n'
    '  printf("%d\\n", n);\n'
    "  return 0;\n"
    "}\n"
)


def _variant(source, frontend="minic"):
    skeleton = get_frontend(frontend).extract_skeleton(source, name="t")
    return BoundVariant(skeleton, 0, skeleton.original_vector)


def _cached(version, level, cache, verify=False):
    compiler = Compiler(version, level)
    compiler.pipeline_cache = cache
    compiler.verify_ir = verify
    return compiler


class TestSharedRecords:
    def test_crash_carries_each_lineages_signature(self):
        variant = _variant(CRASH)
        cache = PipelineCache()
        for version in ["scc-trunk", "lcc-trunk", "scc-4.8", "lcc-3.6", "reference"]:
            outcome = _cached(version, 3, cache).compile_variant(variant)
            fault = {f.id: f for f in get_version(version).faults}.get("fold-equal-operands")
            if fault is None:
                assert outcome.success and outcome.crash is None, version
                continue
            assert outcome.crash is not None, version
            assert outcome.crash.message.startswith(fault.crash_signature), version
            assert outcome.crash.component == fault.component, version
            assert outcome.triggered_faults == ["fold-equal-operands"], version
        # lcc-trunk and lcc-3.6 reused the scc runs instead of folding again.
        assert cache.hits == 2

    def test_verify_flag_is_part_of_the_key(self):
        variant = _variant(GARBAGE_BLOCK)
        cache = PipelineCache()
        unverified = _cached("scc-trunk", 3, cache).compile_variant(variant)
        assert unverified.success and unverified.ill_formed is None
        verified = _cached("scc-trunk", 3, cache, verify=True).compile_variant(variant)
        assert verified.ill_formed is not None
        assert verified.ill_formed[0] == "simplify-cfg"
        assert "cfg-retain-garbage-block" in verified.triggered_faults
        assert "cfg-retain-garbage-block" not in unverified.triggered_faults

    def test_while_key_ignores_the_verify_flag(self):
        # WHILE has no IR to verify, so the flag must not split its runs.
        variant = _variant("x := 1; y := x + 2", "while")
        cache = PipelineCache()
        for version, verify in (("wc-2.0", True), ("wc-trunk", False)):
            compiler = WhileCompiler(version, 2)
            compiler.pipeline_cache = cache
            compiler.verify_ir = verify
            assert compiler.compile_variant(variant).success, version
        assert (cache.hits, cache.misses) == (1, 1)

    def test_ill_formed_faults_attributed_per_version(self):
        variant = _variant(GARBAGE_BLOCK)
        cache = PipelineCache()
        first = _cached("scc-6.1", 3, cache, verify=True).compile_variant(variant)
        second = _cached("scc-trunk", 3, cache, verify=True).compile_variant(variant)
        assert (cache.hits, cache.misses) == (1, 1)
        assert first.ill_formed == second.ill_formed is not None
        for outcome in (first, second):
            assert outcome.triggered_faults == ["cfg-retain-garbage-block"]

    @pytest.mark.parametrize(
        "first, second", [("scc-trunk", "scc-4.8"), ("lcc-trunk", "lcc-3.6")]
    )
    def test_subtraction_free_run_shared_across_cse_fault(self, first, second):
        # Only the first of each pair carries cse-commutes-sub.  CSE asks
        # for it at the first subtraction, so a function with none leaves
        # it out of the transcript and the second version reuses the run.
        faults = {
            version: {fault.id for fault in get_version(version).faults}
            for version in (first, second)
        }
        assert "cse-commutes-sub" in faults[first] - faults[second]
        variant = _variant(
            "int main() { int a = 3, b = 4; int c = a + b; c = c * a; "
            "if (c > b) c = c + a * b; return c; }"
        )
        cache = PipelineCache()
        outcomes = [_cached(version, 3, cache).compile_variant(variant) for version in (first, second)]
        assert (cache.hits, cache.misses) == (1, 1)
        assert str(outcomes[0].module) == str(outcomes[1].module)


def _matrix(frontend):
    """Every registered version of the frontend's lineages, plus reference."""
    frontend.executor(frontend.reference_version, OptimizationLevel.O0)
    versions = [frontend.reference_version]
    for default in frontend.default_versions:
        for version in lineage_versions(get_version(default).lineage):
            if version not in versions:
                versions.append(version)
    return versions


def _seed_variants(frontend, per_file=4):
    """Fresh ``BoundVariant`` factories for the first variants of each seed file."""
    specs = []
    for name, source in frontend.build_corpus(files=6).items():
        try:
            skeleton = frontend.extract_skeleton(source, name=name)
        except frontend.parse_error_types:
            continue
        for variant in SkeletonEnumerator(skeleton).indexed_programs(0, per_file):
            specs.append((skeleton, variant.index, variant.vector))
    return specs


def _text_sha(outcome):
    """The content sha of the produced module, rendered from its text."""
    if outcome.module is None:
        return None
    return hashlib.sha256(str(outcome.module).encode()).hexdigest()


def _observable(outcome, sha):
    module = outcome.module
    return {
        "success": outcome.success,
        "module": None if module is None else str(module),
        "sha": sha,
        "crash": outcome.crash_signature(),
        "rejected": outcome.rejected,
        "triggered": outcome.triggered_faults,
        "coverage": list(outcome.coverage.counts.items()),
        "effort": outcome.compile_effort,
        "ill_formed": getattr(outcome, "ill_formed", None),
    }


@pytest.mark.parametrize("frontend_name", available_frontends())
def test_cached_matrix_matches_uncached(frontend_name):
    frontend = get_frontend(frontend_name)
    specs = _seed_variants(frontend)
    configs = [
        (version, level, verify)
        for version in _matrix(frontend)
        for level in range(4)
        for verify in (False, True)
    ]
    cache = PipelineCache()
    cached_executors = {}
    uncached_executors = {}
    text_executors = {}
    for version, level, verify in configs:
        for executors, shared in (
            (cached_executors, cache),
            (uncached_executors, None),
            (text_executors, None),
        ):
            executor = frontend.executor(version, level)
            executor.verify_ir = verify
            executor.pipeline_cache = shared
            executors[version, level, verify] = executor

    jobs = [(index, config) for index in range(len(specs)) for config in configs]
    random.Random(16).shuffle(jobs)
    cached_variants = [BoundVariant(*spec) for spec in specs]
    cached = {}
    for index, config in jobs:
        outcome = cached_executors[config].compile_variant(cached_variants[index])
        cached[index, config] = _observable(outcome, outcome.module_sha)

    # Source text and bound variants go through one flow: compiling a
    # variant's text gives what compiling the variant gives, coverage and
    # compile effort included.
    uncached_variants = [BoundVariant(*spec) for spec in specs]
    texts = 0
    for index, config in sorted(jobs, key=lambda job: job[0]):
        variant = uncached_variants[index]
        outcome = uncached_executors[config].compile_variant(variant)
        expected = _observable(outcome, _text_sha(outcome))
        assert cached[index, config] == expected, (specs[index], config)
        if variant.order_clean:
            texts += 1
            text = text_executors[config].compile_source(variant.source)
            assert _observable(text, _text_sha(text)) == expected, (specs[index], config)
    # The walk must have shared runs between versions, or it shows nothing.
    assert cache.hits > cache.misses
    assert texts > 0


def test_fault_attribution_has_no_unexplained_gap():
    """Two records under one key that differ while neither triggered a
    fault can only be told apart by the one fault that stays silent by
    design: ``cfg-retain-garbage-block``, seen only by the verifier."""
    frontend = get_frontend("minic")
    cache = PipelineCache()
    compilers = [_cached(version, 3, cache) for version in ("scc-trunk", "lcc-trunk")]
    for name, source in frontend.build_corpus(files=8).items():
        skeleton = frontend.extract_skeleton(source, name=name)
        for variant in SkeletonEnumerator(skeleton).indexed_programs(0, 16):
            for compiler in compilers:
                compiler.compile_variant(variant)

    def observable(record):
        return (record.module_sha, record.crash, record.coverage, record.compile_effort)

    silent = 0
    for records in cache.entries.values():
        for position, first in enumerate(records):
            for second in records[position + 1 :]:
                if first.triggered or second.triggered:
                    continue
                if observable(first) == observable(second):
                    continue
                silent += 1
                answers = [
                    dict(record.transcript).get("cfg-retain-garbage-block")
                    for record in (first, second)
                ]
                assert None not in answers and answers[0] != answers[1], (
                    dict(first.transcript),
                    dict(second.transcript),
                )
    assert silent > 0
