"""Tests for the command-line interface."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.c"
    path.write_text("int main() { int a = 1, b = 2; a = a + b; return a - b; }\n")
    return str(path)


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["count", "foo.c"])
        assert args.command == "count"

    def test_count(self, sample_file, capsys):
        assert main(["count", sample_file]) == 0
        out = capsys.readouterr().out
        assert "SPE variants" in out and "naive variants" in out

    def test_enumerate(self, sample_file, capsys):
        assert main(["enumerate", sample_file, "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("variant") == 3

    def test_test_clean_file(self, sample_file, capsys):
        exit_code = main(["test", sample_file])
        out = capsys.readouterr().out
        assert "scc-trunk" in out
        assert exit_code in (0, 1)

    def test_test_buggy_file(self, tmp_path, capsys):
        path = tmp_path / "bug.c"
        path.write_text("int a, b = 1; int main() { if (a) a = a - a; return b; }\n")
        exit_code = main(["test", str(path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "crash" in out

    def test_experiment_unknown_name(self, capsys):
        assert main(["experiment", "nonsense"]) == 2

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "#Holes" in capsys.readouterr().out


class TestCampaignStoreFlags:
    def test_resume_requires_state_dir(self, capsys):
        assert main(["campaign", "--resume", "--files", "2"]) == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_state_dir_journal_and_resume(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        args = ["campaign", "--lang", "while", "--files", "3", "--variants", "5",
                "--state-dir", state]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "state" / "journal.jsonl").exists()
        assert (tmp_path / "state" / "manifest.json").exists()
        # Resume replays the journal and prints the identical summary+reports.
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_resume_on_empty_state_dir_falls_back_to_fresh(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        args = ["campaign", "--lang", "while", "--files", "2", "--variants", "4",
                "--state-dir", state, "--resume"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fresh campaign" in out
        assert (tmp_path / "state" / "journal.jsonl").exists()

    def test_non_resume_rerun_refuses_to_truncate_journal(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        args = ["campaign", "--lang", "while", "--files", "2", "--variants", "4",
                "--state-dir", state]
        assert main(args) == 0
        capsys.readouterr()
        journal = tmp_path / "state" / "journal.jsonl"
        size = journal.stat().st_size
        # Re-running without --resume must not destroy the journal...
        assert main(args) == 2
        assert "--fresh" in capsys.readouterr().err
        assert journal.stat().st_size == size
        # ...unless the operator opts in explicitly.
        assert main(args + ["--fresh"]) == 0

    def test_mismatched_store_is_a_clean_error(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        base = ["campaign", "--lang", "while", "--files", "2", "--state-dir", state]
        assert main(base + ["--variants", "4"]) == 0
        capsys.readouterr()
        assert main(base + ["--variants", "6", "--resume"]) == 2
        assert "different campaign" in capsys.readouterr().err


class TestSupervisionFlags:
    def test_parser_accepts_supervision_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--unit-timeout", "2.5", "--max-retries", "1",
             "--on-fault", "quarantine", "--fsync-journal",
             "--chaos-crash-at", "1,4", "--chaos-hang-at", "",
             "--chaos-raise-at", "7", "--chaos-hang-seconds", "9"]
        )
        assert args.unit_timeout == 2.5
        assert args.max_retries == 1
        assert args.on_fault == "quarantine"
        assert args.fsync_journal is True
        assert args.chaos_crash_at == (1, 4)
        assert args.chaos_hang_at == ()
        assert args.chaos_raise_at == (7,)
        assert args.chaos_hang_seconds == 9.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--on-fault", "retry"],
            ["campaign", "--max-retries", "-1"],
            ["campaign", "--chaos-crash-at", "1,x"],
            ["campaign", "--chaos-crash-at", "-2"],
        ],
    )
    def test_bad_supervision_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_chaos_quarantine_campaign_reports_and_resumes(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        args = ["campaign", "--lang", "while", "--files", "3", "--variants", "4",
                "--state-dir", state, "--on-fault", "quarantine",
                "--max-retries", "0", "--chaos-raise-at", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "quarantined units    : 1" in first
        quarantine_lines = [
            line for line in first.splitlines() if line.startswith("# quarantined:")
        ]
        assert len(quarantine_lines) == 1
        assert "kind=exception" in quarantine_lines[0]
        # Resume (chaos flags still set!) must replay, not re-poison.
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_chaos_abort_is_a_clean_error(self, tmp_path, capsys):
        args = ["campaign", "--lang", "while", "--files", "3", "--variants", "4",
                "--unit-timeout", "60", "--max-retries", "0",
                "--chaos-raise-at", "0"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "poison unit" in err
        assert "--on-fault quarantine" in err

    def test_fsync_journal_campaign_runs(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["campaign", "--lang", "while", "--files", "2", "--variants", "4",
                     "--state-dir", state, "--fsync-journal"]) == 0
        assert (tmp_path / "state" / "journal.jsonl").exists()


@pytest.fixture()
def while_file(tmp_path):
    path = tmp_path / "sample.while"
    path.write_text("a := 2 ;\nb := 1 ;\nc := a - b\n")
    return str(path)


class TestLanguageSelection:
    def test_count_while(self, while_file, capsys):
        assert main(["count", while_file, "--lang", "while"]) == 0
        out = capsys.readouterr().out
        assert "language       : while" in out
        assert "SPE variants" in out

    def test_enumerate_while(self, while_file, capsys):
        assert main(["enumerate", while_file, "--lang", "while", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("variant") == 3
        assert ":=" in out

    def test_test_while_buggy_file(self, while_file, capsys):
        # wc-trunk folds `x - x` variants; the seed itself is clean, but the
        # single-file tester reports per-configuration status lines.
        exit_code = main(["test", while_file, "--lang", "while"])
        out = capsys.readouterr().out
        assert "wc-trunk" in out
        assert exit_code in (0, 1)

    def test_campaign_while_end_to_end(self, capsys):
        assert main(["campaign", "--lang", "while", "--files", "6", "--variants", "8"]) == 0
        out = capsys.readouterr().out
        assert "files processed" in out
        assert "distinct bugs" in out

    def test_unknown_lang_rejected(self, while_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["count", while_file, "--lang", "cobol"])
        assert excinfo.value.code == 2
        assert "--lang" in capsys.readouterr().err


class TestArgumentValidation:
    """Bad --shard/--jobs values must exit with a clear message, no traceback."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("2/2", "out of range"),
            ("5/2", "out of range"),
            ("-1/2", "out of range"),
            ("1/0", "shard count must be positive"),
            ("1/-3", "shard count must be positive"),
            ("x/y", "expected I/N"),
            ("3", "expected I/N"),
            ("1/2/3", "expected I/N"),
        ],
    )
    def test_bad_shard_specs(self, spec, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", f"--shard={spec}"])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_bad_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", f"--jobs={jobs}"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--files=0"],
            ["campaign", "--variants=0"],
            ["campaign", "--sample=0"],
            ["enumerate", "x.c", "--limit=0"],
            ["enumerate", "x.c", "--start=-1"],
        ],
    )
    def test_bad_counts(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "integer" in capsys.readouterr().err


class TestDistributedShardPool:
    def test_shard_with_jobs_shuts_its_pool_down(self, tmp_path):
        # A --shard run with --jobs creates its own worker pool.  Workers
        # inherit the command's stdout and stderr, so communicate() returns
        # only once every worker has exited too: a worker that outlives the
        # command turns into a timeout here.
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [
            sys.executable, "-m", "repro", "campaign",
            "--files", "8", "--variants", "20", "--shard", "0/2", "--jobs", "2",
        ]
        process = subprocess.Popen(
            argv, cwd=tmp_path, env=env, text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = process.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("campaign --shard 0/2 --jobs 2 or one of its workers did not exit")
        assert process.returncode == 0, err
        assert "# shard 0/2" in out
        assert "leaked" not in err


class TestDbCommands:
    """The ``repro db`` subcommands: compact, status, bugs, export, merge."""

    def run_campaign(self, tmp_path, name="state", lang="minic"):
        state = str(tmp_path / name)
        assert main(
            ["campaign", "--lang", lang, "--files", "3", "--variants", "6",
             "--state-dir", state]
        ) == 0
        return state

    def test_compact_and_status(self, tmp_path, capsys):
        state = self.run_campaign(tmp_path)
        capsys.readouterr()
        assert main(["db", "compact", "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "ratio" in out
        from pathlib import Path

        assert (Path(state) / "campaign.db").exists()
        assert main(["db", "status", "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert "units_journaled" in out and "distinct_units" in out
        assert main(["db", "status", "--state-dir", state, "--format", "json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["units_journaled"] > 0

    def test_bugs_listing_matches_campaign_report(self, tmp_path, capsys):
        state = self.run_campaign(tmp_path)
        campaign_out = capsys.readouterr().out
        campaign_lines = [
            line for line in campaign_out.splitlines() if line.startswith("[b")
        ]
        assert campaign_lines, "campaign must report bugs for this corpus"
        assert main(["db", "bugs", "--state-dir", state]) == 0
        db_lines = capsys.readouterr().out.splitlines()
        assert db_lines == campaign_lines

    def test_bugs_rebuild_after_delete_is_byte_identical(self, tmp_path, capsys):
        # The CI db-smoke contract: delete the view, re-query, and the
        # listing (rebuilt transparently from the journal) must not change
        # by a byte.
        state = self.run_campaign(tmp_path)
        capsys.readouterr()
        assert main(["db", "bugs", "--state-dir", state]) == 0
        first = capsys.readouterr().out
        from pathlib import Path

        (Path(state) / "campaign.db").unlink()
        assert main(["db", "bugs", "--state-dir", state]) == 0
        assert capsys.readouterr().out == first

    def test_bugs_filters_and_json(self, tmp_path, capsys):
        import json

        state = self.run_campaign(tmp_path)
        capsys.readouterr()
        assert main(
            ["db", "bugs", "--state-dir", state, "--kind", "wrong-code",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["kind"] == "wrong code" for entry in payload)
        assert all(entry["journal"] == "campaign" for entry in payload)
        assert main(
            ["db", "bugs", "--state-dir", state, "--kind", "crash"]
        ) == 0
        crash_lines = capsys.readouterr().out.splitlines()
        assert all("crash" in line for line in crash_lines)

    def test_export_round_trips(self, tmp_path, capsys):
        from pathlib import Path

        state = self.run_campaign(tmp_path)
        capsys.readouterr()
        out_path = tmp_path / "export.jsonl"
        assert main(
            ["db", "export", "--state-dir", state, "--output", str(out_path)]
        ) == 0
        assert "exported" in capsys.readouterr().out
        assert out_path.read_bytes() == (Path(state) / "journal.jsonl").read_bytes()

    def test_merge_attaches_campaigns_under_labels(self, tmp_path, capsys):
        state_a = self.run_campaign(tmp_path, name="alpha")
        state_b = self.run_campaign(tmp_path, name="beta", lang="while")
        capsys.readouterr()
        merged = str(tmp_path / "merged.db")
        assert main(["db", "merge", "--out", merged, state_a, state_b]) == 0
        out = capsys.readouterr().out
        assert "attached alpha" in out and "attached beta" in out
        assert main(["db", "bugs", "--db", merged]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("[alpha]") for line in lines)
        assert main(["db", "bugs", "--db", merged, "--label", "alpha"]) == 0
        alpha_only = capsys.readouterr().out.splitlines()
        assert alpha_only and all(line.startswith("[alpha]") for line in alpha_only)
        # Frontend filter spans campaigns: the while campaign's bugs only.
        assert main(["db", "bugs", "--db", merged, "--frontend", "while"]) == 0
        while_lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("[beta]") for line in while_lines)

    def test_merge_rejects_duplicate_labels(self, tmp_path, capsys):
        state = self.run_campaign(tmp_path)
        capsys.readouterr()
        assert main(
            ["db", "merge", "--out", str(tmp_path / "m.db"), state, state]
        ) == 2
        assert "distinct names" in capsys.readouterr().err

    def test_clean_errors(self, tmp_path, capsys):
        # Querying a state dir that never ran a campaign, or a database file
        # that does not exist, is a clean exit-2 error, not a traceback.
        assert main(["db", "compact", "--state-dir", str(tmp_path / "none")]) == 2
        assert "no manifest" in capsys.readouterr().err
        assert main(["db", "bugs", "--db", str(tmp_path / "missing.db")]) == 2
        assert "no campaign database" in capsys.readouterr().err


class TestStatsLines:
    """Formatting contract for the ``# cache:`` / ``# sanitizer:`` lines."""

    def test_ratio_guards_zero_total(self):
        from repro.cli import _stats_ratio

        assert _stats_ratio("module", 0, 0) is None
        assert _stats_ratio("module", 5, -1) is None
        assert _stats_ratio("module", 3, 4) == "module 3/4 (75.0%)"

    def test_cache_line_pinned_format(self):
        from repro.cli import cache_stats_line

        stats = {
            "module_hits": 3,
            "module_misses": 1,
            "pipeline_hits": 0,
            "pipeline_misses": 8,
            # Reference runs are counted but no cache serves them: no cell.
            "reference_misses": 887,
        }
        assert cache_stats_line(stats) == (
            "# cache: module 3/4 (75.0%)  pipeline 0/8 (0.0%)"
        )

    def test_cache_line_omits_idle_caches(self):
        from repro.cli import cache_stats_line

        assert cache_stats_line({}) is None
        assert cache_stats_line({"module_hits": 0, "module_misses": 0}) is None
        only = cache_stats_line({"pipeline_hits": 2, "pipeline_misses": 2})
        assert only == "# cache: pipeline 2/4 (50.0%)"

    def test_sanitizer_line_pinned_format(self):
        from repro.cli import sanitizer_stats_line

        stats = {"sanitizer_tainted": 2, "sanitizer_clean": 6}
        assert sanitizer_stats_line(stats) == "# sanitizer: tainted 2/8 (25.0%)"

    def test_sanitizer_line_silent_when_gate_off(self):
        from repro.cli import sanitizer_stats_line

        assert sanitizer_stats_line({}) is None
        assert sanitizer_stats_line({"sanitizer_tainted": 0, "sanitizer_clean": 0}) is None


class TestLintCommand:
    UB = (
        "int main(void) {\n"
        "  int x;\n"
        "  int y = 3;\n"
        "  if (y > 10) { x = 1; }\n"
        '  printf("%d\\n", x + y);\n'
        "  return 0;\n"
        "}\n"
    )

    def test_lint_flags_use_before_init(self, tmp_path, capsys):
        path = tmp_path / "ub.c"
        path.write_text(self.UB)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"{path}:main:use-before-init:" in out[0]
        assert out[-1] == "# lint: 1 findings in 1 files"

    def test_lint_clean_file(self, sample_file, capsys):
        assert main(["lint", sample_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["# lint: 0 findings in 1 files"]

    def test_lint_corpus_is_clean_and_stable(self, capsys):
        assert main(["lint", "--corpus", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["lint", "--corpus", "3"]) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[-1].startswith("# lint: 0 findings in ")

    def test_lint_while_language(self, tmp_path, capsys):
        path = tmp_path / "div.while"
        path.write_text("x := 1 / 0")
        assert main(["lint", "--lang", "while", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "div-by-zero" in out[0]

    def test_lint_parse_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text("int main( {")
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "parse-error" in out[0]
        assert out[-1] == "# lint: 1 findings in 1 files"

    def test_lint_without_input_is_an_error(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err


class TestVerifyIrFlags:
    def test_campaign_rejects_bad_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--files", "1", "--verify-ir", "maybe"])

    def test_verify_ir_campaign_files_ill_formed_bug(self, capsys):
        # The generated seed corpus contains dead branches that simplify-cfg
        # removes, so scc-trunk's garbage-block fault fires organically.
        assert main(
            [
                "campaign", "--files", "4", "--variants", "8",
                "--versions", "scc-trunk", "--verify-ir", "bugs",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "ill-formed ir" in out
        assert "simplify-cfg" in out

    def test_verify_ir_off_stays_silent(self, capsys):
        assert main(
            ["campaign", "--files", "4", "--variants", "8", "--versions", "scc-trunk"]
        ) == 0
        assert "ill-formed ir" not in capsys.readouterr().out

    def test_sanitize_campaign_prints_sanitizer_line(self, capsys):
        assert main(
            [
                "campaign", "--files", "3", "--variants", "8",
                "--versions", "scc-trunk", "--sanitize",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "# sanitizer: tainted " in err
