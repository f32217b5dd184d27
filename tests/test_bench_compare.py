"""Unit tests for the benchmark-regression comparator (benchmarks/compare.py)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
)
compare = importlib.util.module_from_spec(_SPEC)
sys.modules["bench_compare"] = compare  # dataclass introspection needs the registration
_SPEC.loader.exec_module(compare)


def report(**benches) -> dict:
    """A minimal pytest-benchmark JSON: name -> (mean, speedup-or-None)."""
    return {
        "benchmarks": [
            {
                "name": name,
                "stats": {"mean": mean},
                "extra_info": {} if speedup is None else {"speedup": speedup},
            }
            for name, (mean, speedup) in benches.items()
        ]
    }


class TestCompareReports:
    def test_mean_within_tolerance_passes(self):
        outcome = compare.compare_reports(
            report(t=(1.0, None)), report(t=(1.2, None)), tolerance=0.25
        )
        assert [c.ok for c in outcome] == [True]
        assert outcome[0].metric == "mean"

    def test_mean_beyond_tolerance_fails_as_advisory(self):
        outcome = compare.compare_reports(
            report(t=(1.0, None)), report(t=(1.3, None)), tolerance=0.25
        )
        assert [c.ok for c in outcome] == [False]
        assert outcome[0].advisory  # machine-dependent: warning unless strict
        assert "warn" in outcome[0].render()

    def test_speedup_metric_wins_over_mean(self):
        # Fresh run is absolutely slower (different machine) but the relative
        # speedup held: the machine-independent metric must be the one used.
        outcome = compare.compare_reports(
            report(t=(1.0, 3.0)), report(t=(5.0, 2.9)), tolerance=0.25
        )
        assert outcome[0].metric == "speedup"
        assert outcome[0].ok

    def test_speedup_collapse_fails(self):
        outcome = compare.compare_reports(
            report(t=(1.0, 3.0)), report(t=(1.0, 1.5)), tolerance=0.25
        )
        assert not outcome[0].ok
        assert not outcome[0].advisory  # relative metric: a hard failure

    def test_missing_benchmark_fails_and_new_one_passes(self):
        outcome = compare.compare_reports(
            report(old=(1.0, None)), report(new=(1.0, None)), tolerance=0.25
        )
        by_name = {c.name: c for c in outcome}
        assert not by_name["old"].ok and by_name["old"].metric == "missing"
        assert by_name["new"].ok and by_name["new"].metric == "new"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare.compare_reports(report(), report(), tolerance=-0.1)


class TestMergeSummary:
    def _compare(self, baseline, fresh):
        return compare.compare_reports(baseline, fresh, tolerance=0.25)

    def test_suites_accumulate_into_one_artifact(self, tmp_path):
        summary_file = tmp_path / "BENCH_summary.json"
        compare.merge_summary(
            summary_file,
            "engine-benchmark",
            self._compare(report(t=(1.0, 3.0)), report(t=(1.0, 2.9))),
            generated="2026-08-08T00:00:00",
        )
        merged = compare.merge_summary(
            summary_file,
            "learner-benchmark",
            self._compare(report(u=(1.0, None)), report(u=(1.1, None))),
            generated="2026-08-08T00:01:00",
        )
        entries = merged["entries"]
        assert [(e["suite"], e["name"]) for e in entries] == [
            ("engine-benchmark", "t"),
            ("learner-benchmark", "u"),
        ]
        assert entries[0]["metric"] == "speedup" and entries[0]["ok"]
        assert entries[1]["metric"] == "mean" and entries[1]["advisory"]
        assert entries[0]["datetime"] == "2026-08-08T00:00:00"
        # What landed on disk is what merge returned.
        assert json.loads(summary_file.read_text())["entries"] == entries

    def test_rerunning_a_suite_replaces_only_its_rows(self, tmp_path):
        summary_file = tmp_path / "summary.json"
        compare.merge_summary(
            summary_file, "a", self._compare(report(x=(1.0, 2.0)), report(x=(1.0, 2.0))),
            generated="g1",
        )
        compare.merge_summary(
            summary_file, "b", self._compare(report(y=(1.0, 2.0)), report(y=(1.0, 2.0))),
            generated="g1",
        )
        merged = compare.merge_summary(
            summary_file, "a", self._compare(report(x=(1.0, 4.0)), report(x=(1.0, 4.0))),
            generated="g2",
        )
        by_suite = {entry["suite"]: entry for entry in merged["entries"]}
        assert len(merged["entries"]) == 2
        assert by_suite["a"]["fresh"] == 4.0 and by_suite["a"]["datetime"] == "g2"
        assert by_suite["b"]["datetime"] == "g1"

    def test_summary_records_src_lines_and_public_surface(self, tmp_path):
        import repro

        package = tmp_path / "checkout" / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text('__all__ = [\n    "a",\n    "b",\n]\n')
        (package / "other.py").write_text("x = 1\ny = 2\n")
        assert compare.code_size(tmp_path / "checkout") == {"src_lines": 6, "public_all_size": 2}

        summary_file = tmp_path / "summary.json"
        merged = compare.merge_summary(
            summary_file, "a", self._compare(report(x=(1.0, 2.0)), report(x=(1.0, 2.0))),
            generated=None,
        )
        # On the real checkout: the snapshot-tested surface, and a line count
        # that at least covers the package's own __init__.
        assert merged["public_all_size"] == len(repro.__all__)
        init_lines = Path(repro.__file__).read_text().count("\n")
        assert merged["src_lines"] > init_lines
        assert json.loads(summary_file.read_text())["src_lines"] == merged["src_lines"]

    def test_corrupt_summary_file_is_rebuilt(self, tmp_path):
        summary_file = tmp_path / "summary.json"
        summary_file.write_text("{not json")
        merged = compare.merge_summary(
            summary_file, "a", self._compare(report(x=(1.0, 2.0)), report(x=(1.0, 2.0))),
            generated=None,
        )
        assert len(merged["entries"]) == 1
        assert json.loads(summary_file.read_text())["generated"] is None


class TestMain:
    def _write(self, path: Path, payload: dict) -> Path:
        path.write_text(json.dumps(payload))
        return path

    def test_gate_passes_and_fails_via_exit_code(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", report(t=(1.0, 3.0)))
        good = self._write(tmp_path / "good.json", report(t=(1.1, 2.9)))
        bad = self._write(tmp_path / "bad.json", report(t=(2.0, 1.0)))
        assert compare.main(["--baseline", str(baseline), "--fresh", str(good)]) == 0
        assert "gate passed" in capsys.readouterr().out
        assert compare.main(["--baseline", str(baseline), "--fresh", str(bad)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_mean_regressions_warn_by_default_and_fail_in_strict_mode(
        self, tmp_path, capsys
    ):
        baseline = self._write(tmp_path / "base.json", report(t=(1.0, None)))
        slow = self._write(tmp_path / "slow.json", report(t=(2.0, None)))
        assert compare.main(["--baseline", str(baseline), "--fresh", str(slow)]) == 0
        assert "advisory" in capsys.readouterr().out
        assert (
            compare.main(
                ["--baseline", str(baseline), "--fresh", str(slow), "--strict-means"]
            )
            == 1
        )

    def test_write_baseline_round_trips(self, tmp_path, capsys):
        fresh = self._write(tmp_path / "fresh.json", report(t=(1.0, 2.5)))
        baseline = tmp_path / "baselines" / "t.json"
        assert (
            compare.main(
                ["--baseline", str(baseline), "--fresh", str(fresh), "--write-baseline"]
            )
            == 0
        )
        capsys.readouterr()
        assert compare.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0

    def test_summary_flag_names_the_suite_after_the_baseline(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path / "engine-benchmark.json", report(t=(1.0, 3.0))
        )
        fresh = self._write(tmp_path / "fresh.json", report(t=(1.0, 2.9)))
        summary_file = tmp_path / "BENCH_summary.json"
        code = compare.main(
            [
                "--baseline", str(baseline),
                "--fresh", str(fresh),
                "--summary", str(summary_file),
            ]
        )
        assert code == 0
        assert "summary merged" in capsys.readouterr().out
        (entry,) = json.loads(summary_file.read_text())["entries"]
        assert entry["suite"] == "engine-benchmark"
        assert entry["name"] == "t" and entry["ok"] is True

    def test_tolerance_flag(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", report(t=(1.0, 3.0)))
        fresh = self._write(tmp_path / "fresh.json", report(t=(1.0, 2.0)))
        assert (
            compare.main(
                ["--baseline", str(baseline), "--fresh", str(fresh), "--tolerance", "0.5"]
            )
            == 0
        )
        capsys.readouterr()
        assert compare.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 1
