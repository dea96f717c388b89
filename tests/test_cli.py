"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


@pytest.fixture
def module_file(tmp_path):
    path = tmp_path / "prog.ll"
    assert main(["generate", "-n", "30", "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_parseable_module(self, module_file):
        from repro.ir import parse_module, verify_module

        module = parse_module(module_file.read_text())
        verify_module(module)
        assert len(module.defined_functions()) >= 30

    def test_stdout_output(self, capsys):
        assert main(["generate", "-n", "10"]) == 0
        out = capsys.readouterr().out
        assert "define" in out


class TestStats:
    def test_prints_metrics(self, module_file, capsys):
        assert main(["stats", str(module_file)]) == 0
        out = capsys.readouterr().out
        assert "functions (defined)" in out
        assert "modelled size" in out


class TestMerge:
    @pytest.mark.parametrize("strategy", ["hyfm", "f3m", "f3m-adaptive", "identical"])
    def test_strategies_produce_valid_output(self, module_file, tmp_path, strategy):
        out = tmp_path / f"out-{strategy}.ll"
        assert (
            main(["merge", str(module_file), "-s", strategy, "-o", str(out)]) == 0
        )
        from repro.ir import parse_module, verify_module

        verify_module(parse_module(out.read_text()))

    def test_merge_reduces_size(self, module_file, tmp_path):
        from repro.analysis import module_size
        from repro.ir import parse_module

        out = tmp_path / "merged.ll"
        main(["merge", str(module_file), "-s", "f3m", "-o", str(out)])
        before = module_size(parse_module(module_file.read_text()))
        after = module_size(parse_module(out.read_text()))
        assert after < before

    def test_merge_preserves_semantics(self, module_file, tmp_path, capsys):
        out = tmp_path / "merged.ll"
        main(["merge", str(module_file), "-s", "f3m", "-o", str(out)])
        assert main(["run", str(module_file), "--entry", "driver", "-a", "7"]) == 0
        ref = capsys.readouterr().out
        assert main(["run", str(out), "--entry", "driver", "-a", "7"]) == 0
        assert capsys.readouterr().out == ref

    def test_optimize_flag(self, module_file, tmp_path):
        out = tmp_path / "opt.ll"
        assert (
            main(
                ["merge", str(module_file), "-s", "f3m", "--optimize", "-o", str(out)]
            )
            == 0
        )


# Submodules numpy imports lazily, at tens of milliseconds each: the first
# ``numpy.unique`` call loads ``numpy.ma``, ``default_rng`` loads
# ``numpy.random``.  An F3M one-shot merge must not pay for them.
_LAZY_NUMPY = ("numpy.ma", "numpy.random")

_COLD_MERGE = """
import json, sys
import repro.cli
after_import = [m for m in LAZY if m in sys.modules]
code = repro.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "after_import": after_import,
                  "after_merge": [m for m in LAZY if m in sys.modules]}))
"""


class TestColdPath:
    @pytest.mark.parametrize("strategy", ["f3m", "f3m-adaptive"])
    def test_f3m_merge_loads_no_lazy_numpy_submodule(self, module_file, tmp_path, strategy):
        # A one-instruction function takes the fingerprinter's short-stream
        # path as well as the common one.
        with open(module_file, "a", encoding="utf-8") as handle:
            handle.write("\ndefine i32 @tiny(i32 %arg0) {\nentry:\n  ret i32 %arg0\n}\n")
        out = tmp_path / "out.ll"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", f"LAZY = {_LAZY_NUMPY!r}" + _COLD_MERGE,
             "merge", str(module_file), "-s", strategy, "-o", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["code"] == 0
        # Not moved into the CLI's import either, where setup would pay it.
        assert result["after_import"] == []
        assert result["after_merge"] == []
        assert "@tiny" in out.read_text()

    def test_cli_import_loads_no_bench_harness(self):
        # The bench suites are imported only when ``bench-perf`` runs one.
        heavy = [f"repro.harness.{m}" for m in ("scale", "rss", "serve_bench", "reconcile_bench")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, repro.cli; print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBenchPerf:
    @pytest.mark.parametrize(
        "suite, sizes, output",
        [
            ("perf", "20", "BENCH_f3m_perf.json"),
            ("attempts", "20", "BENCH_attempt_perf.json"),
            ("scale", "300", "BENCH_scale.json"),
            ("serve", "20", "BENCH_serve.json"),
            ("reconcile", "24", "BENCH_reconcile.json"),
        ],
    )
    def test_suite_writes_stamped_bench_file(self, tmp_path, monkeypatch, capsys, suite, sizes, output):
        monkeypatch.chdir(tmp_path)
        assert main(["bench-perf", suite, "--sizes", sizes, "--repeats", "1"]) == 0
        assert f"wrote {output}" in capsys.readouterr().out
        payload = json.loads((tmp_path / output).read_text())
        assert payload["bench"] and payload["rows"]
        assert payload["metadata"]["headline"]
        stamp = payload["metadata"]["provenance"]
        assert stamp["cpu_count"] >= 1
        assert "git_rev" in stamp
        assert stamp["config"]["sizes"] == [int(sizes)]


class TestMergeRobustnessFlags:
    def test_oracle_flag_preserves_semantics(self, module_file, tmp_path, capsys):
        out = tmp_path / "merged.ll"
        assert (
            main(["merge", str(module_file), "-s", "hyfm", "--oracle", "-o", str(out)])
            == 0
        )
        err = capsys.readouterr().err
        assert "outcome" in err  # the per-outcome table is printed
        assert main(["run", str(module_file), "--entry", "driver", "-a", "7"]) == 0
        ref = capsys.readouterr().out
        assert main(["run", str(out), "--entry", "driver", "-a", "7"]) == 0
        assert capsys.readouterr().out == ref

    def test_inject_fault_is_contained_by_default(self, module_file, tmp_path, capsys):
        out = tmp_path / "merged.ll"
        assert (
            main(
                [
                    "merge",
                    str(module_file),
                    "-s",
                    "hyfm",
                    "--inject-fault",
                    "codegen:1",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "contained failure" in err
        assert "codegen:InjectedFault" in err
        from repro.ir import parse_module, verify_module

        verify_module(parse_module(out.read_text()))

    def test_inject_fault_with_on_error_raise(self, module_file, tmp_path):
        from repro.faults import InjectedFault

        with pytest.raises(InjectedFault):
            main(
                [
                    "merge",
                    str(module_file),
                    "-s",
                    "hyfm",
                    "--inject-fault",
                    "codegen:1",
                    "--on-error",
                    "raise",
                    "-o",
                    str(tmp_path / "x.ll"),
                ]
            )

    def test_fault_every_commit_yields_identity(self, module_file, tmp_path, capsys):
        # Failing every commit means no merge can land; the output module
        # must equal the input byte for byte.
        out = tmp_path / "merged.ll"
        assert (
            main(
                [
                    "merge",
                    str(module_file),
                    "-s",
                    "hyfm",
                    "--inject-fault",
                    "commit",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert out.read_text() == module_file.read_text()


class TestPartitionedMerge:
    def test_trace_has_partition_pass_spans(self, module_file, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        out = tmp_path / "out.ll"
        args = ["merge", str(module_file), "-s", "f3m", "--partitions", "4"]
        args += ["--reconcile", "--trace", str(trace_path)]
        args += ["--manifest", str(tmp_path / "run.json"), "-o", str(out)]
        assert main(args) == 0
        from repro.obs.trace import load_trace, span_totals

        totals = span_totals(load_trace(str(trace_path)))
        assert totals["partition"]["count"] == 1
        assert totals["reconcile"]["count"] == 1
        assert totals["attempt"]["count"] >= 30  # one per candidate

    def test_manifest_without_reconcile(self, module_file, tmp_path):
        manifest_path = tmp_path / "run.json"
        out = tmp_path / "out.ll"
        args = ["merge", str(module_file), "-s", "f3m", "--partitions", "4"]
        args += ["--manifest", str(manifest_path), "-o", str(out)]
        assert main(args) == 0
        from repro.obs.manifest import load_manifest

        manifest = load_manifest(str(manifest_path))
        assert manifest.kind == "partitioned"
        assert manifest.config["partitions"] == 4
        assert manifest.config["reconcile"] is False
        assert set(manifest.stages) == {"partition"}
        assert manifest.functions >= 30
        assert tuple(manifest.outcomes)

    def test_inject_fault_is_contained(self, module_file, tmp_path, capsys):
        out = tmp_path / "merged.ll"
        args = ["merge", str(module_file), "-s", "f3m", "--partitions", "4"]
        args += ["--inject-fault", "commit:1", "-o", str(out)]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "contained failure" in err
        assert "commit:InjectedFault" in err
        from repro.ir import parse_module, verify_module

        verify_module(parse_module(out.read_text()))


class TestRun:
    def test_missing_entry_fails(self, module_file):
        assert main(["run", str(module_file), "--entry", "nope"]) == 1

    def test_wrong_arity_fails(self, module_file):
        assert main(["run", str(module_file), "--entry", "driver"]) == 1

    def test_runs_driver(self, module_file, capsys):
        assert main(["run", str(module_file), "--entry", "driver", "-a", "3"]) == 0
        assert "result:" in capsys.readouterr().out


class TestCompare:
    def test_prints_all_strategies(self, capsys):
        assert main(["compare", "-n", "60"]) == 0
        out = capsys.readouterr().out
        for name in ("hyfm", "f3m", "f3m-adaptive"):
            assert name in out


class TestCompile:
    SOURCE = "int sq(int x) { return x * x; }\nint f(int x) { return sq(x) + 1; }\n"

    def test_compile_and_run(self, tmp_path, capsys):
        src = tmp_path / "prog.mc"
        src.write_text(self.SOURCE)
        out = tmp_path / "prog.ll"
        assert main(["compile", str(src), "-o", str(out)]) == 0
        assert main(["run", str(out), "--entry", "f", "-a", "6"]) == 0
        assert "result: 37" in capsys.readouterr().out

    def test_no_mem2reg_keeps_allocas(self, tmp_path):
        src = tmp_path / "prog.mc"
        src.write_text(self.SOURCE)
        out = tmp_path / "raw.ll"
        assert main(["compile", str(src), "--no-mem2reg", "-o", str(out)]) == 0
        assert "alloca" in out.read_text()
        out2 = tmp_path / "ssa.ll"
        assert main(["compile", str(src), "-o", str(out2)]) == 0
        assert "alloca" not in out2.read_text()

    def test_compile_then_merge_toolchain(self, tmp_path, capsys):
        src = tmp_path / "prog.mc"
        src.write_text(
            "int a(int x) { int v = x * 3; if (v > 10) { v = v - 10; } return v; }\n"
            "int b(int x) { int v = x * 5; if (v > 10) { v = v - 10; } return v; }\n"
            "int use(int x) { return a(x) + b(x); }\n"
        )
        out = tmp_path / "prog.ll"
        merged = tmp_path / "merged.ll"
        assert main(["compile", str(src), "-o", str(out)]) == 0
        assert main(["run", str(out), "--entry", "use", "-a", "4"]) == 0
        ref = capsys.readouterr().out
        assert main(["merge", str(out), "-s", "f3m", "-o", str(merged)]) == 0
        assert "merged." in merged.read_text()
        assert main(["run", str(merged), "--entry", "use", "-a", "4"]) == 0
        assert capsys.readouterr().out == ref


class TestObservability:
    def test_trace_and_manifest_emitted(self, module_file, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        manifest_path = tmp_path / "run.json"
        out = tmp_path / "out.ll"
        assert (
            main(
                [
                    "merge", str(module_file), "-s", "f3m",
                    "--trace", str(trace_path),
                    "--manifest", str(manifest_path),
                    "-o", str(out),
                ]
            )
            == 0
        )
        from repro.obs.manifest import load_manifest
        from repro.obs.trace import load_trace, span_totals

        spans = load_trace(str(trace_path))
        totals = span_totals(spans)
        assert totals["attempt"]["count"] >= 30  # one per candidate
        assert "rank" in totals
        manifest = load_manifest(str(manifest_path))
        assert manifest.kind == "merge"
        assert manifest.functions >= 30
        assert tuple(manifest.outcomes)  # outcome table present

    def test_metrics_flag_writes_default_manifest(self, module_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.ll"
        assert main(["merge", str(module_file), "-s", "f3m", "--metrics", "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "wrote manifest run-manifest.json" in err
        assert "ranking.queries" in err  # rendered metrics table
        assert (tmp_path / "run-manifest.json").exists()

    def test_report_renders_and_diffs(self, module_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "out.ll"
        for path in (a, b):
            assert (
                main(
                    [
                        "merge", str(module_file), "-s", "f3m",
                        "--manifest", str(path), "-o", str(out),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert main(["report", str(a)]) == 0
        assert "strategy" in capsys.readouterr().out
        # The two runs merged the same module the same way; only timing
        # (stages, total_time, metrics histograms) and provenance differ.
        rc = main(
            [
                "report", str(a), str(b),
                "--ignore", "created_unix,git_rev,stages,total_time,metrics",
            ]
        )
        assert rc == 0
        assert "manifests identical" in capsys.readouterr().out

    def test_report_diff_exits_nonzero_on_difference(self, module_file, tmp_path, capsys):
        import json

        a = tmp_path / "a.json"
        out = tmp_path / "out.ll"
        assert (
            main(["merge", str(module_file), "-s", "f3m", "--manifest", str(a), "-o", str(out)]) == 0
        )
        payload = json.loads(a.read_text())
        payload["merges"] += 1
        b = tmp_path / "b.json"
        b.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["report", str(a), str(b)]) == 1
        assert "merges" in capsys.readouterr().out

    def test_no_flags_no_manifest(self, module_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.ll"
        assert main(["merge", str(module_file), "-s", "f3m", "-o", str(out)]) == 0
        assert not (tmp_path / "run-manifest.json").exists()
