#!/usr/bin/env python3
"""Benchmark-regression gate: diff a fresh pytest-benchmark JSON against a baseline.

Usage (what CI's benchmark-smoke job runs)::

    python benchmarks/compare.py --baseline benchmarks/baselines/learner-benchmark.json \
        --fresh learner-benchmark.json [--tolerance 0.25]

Comparison policy, per benchmark (matched by ``name``):

* When both sides carry an ``extra_info.speedup`` (our speed benchmarks
  record the measured ratio over their in-test legacy twin), the *relative*
  metric is compared: the fresh speedup may not fall more than
  ``tolerance`` below the baseline's.  Speedups are machine-independent, so
  this is the hard gate for shared CI runners.
* Otherwise the absolute ``stats.mean`` is compared: the fresh mean may not
  exceed the baseline's by more than ``tolerance``.  Absolute wall-clock is
  machine-dependent (a CI runner merely slower than the machine that wrote
  the baseline would trip it), so out-of-tolerance means are *advisory* --
  printed as warnings, failing the gate only under ``--strict-means``.

A benchmark present in the baseline but missing from the fresh run fails
the gate (a silently skipped benchmark is a regression of the harness);
fresh-only benchmarks are reported but pass (they get a baseline when it is
next regenerated with ``--write-baseline``).

``--summary FILE`` additionally merges this invocation's comparisons into a
consolidated trajectory artifact (read-modify-write JSON): one entry per
``(suite, name)`` with the compared metric, both values, the verdict, and
the fresh report's timestamp.  CI calls the gate once per benchmark suite
with the same ``--summary`` file and uploads the merged result, so one
artifact shows every suite's speedup ratios for the run.  The summary also
records the repository's size -- ``src_lines`` (``wc -l`` over
``src/**/*.py``) and ``public_all_size`` (``len(repro.__all__)``) -- the two
numbers the ROADMAP tracks for "least code, smallest surface".

Exit code 0 when every comparison is within tolerance, 1 otherwise.  The
default tolerance is 0.25 (fail on >25% slowdowns) and can also be set via
the ``REPRO_BENCH_TOLERANCE`` environment variable.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

DEFAULT_TOLERANCE = 0.25
REPO_ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Comparison:
    """The verdict for one benchmark name.

    ``advisory`` marks a machine-dependent comparison (absolute mean): its
    failure is a warning by default and fails the gate only in strict mode.
    """

    name: str
    metric: str  # "speedup", "mean", "missing" or "new"
    baseline: float | None
    fresh: float | None
    ok: bool
    advisory: bool = False

    def render(self) -> str:
        status = "ok  " if self.ok else ("warn" if self.advisory else "FAIL")
        if self.metric == "missing":
            return f"{status} {self.name}: present in baseline but missing from fresh run"
        if self.metric == "new":
            return f"{status} {self.name}: new benchmark (no baseline yet)"
        direction = "x" if self.metric == "speedup" else "s"
        return (
            f"{status} {self.name}: {self.metric} baseline={self.baseline:.4f}{direction} "
            f"fresh={self.fresh:.4f}{direction}"
        )


def _by_name(report: dict) -> dict[str, dict]:
    benchmarks = report.get("benchmarks", [])
    return {bench["name"]: bench for bench in benchmarks}


def _speedup(bench: dict) -> float | None:
    value = bench.get("extra_info", {}).get("speedup")
    return float(value) if isinstance(value, (int, float)) else None


def compare_reports(
    baseline: dict, fresh: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> list[Comparison]:
    """Compare two pytest-benchmark reports; one :class:`Comparison` per name."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    baseline_by_name = _by_name(baseline)
    fresh_by_name = _by_name(fresh)
    comparisons: list[Comparison] = []
    for name, base in sorted(baseline_by_name.items()):
        current = fresh_by_name.get(name)
        if current is None:
            comparisons.append(
                Comparison(name=name, metric="missing", baseline=None, fresh=None, ok=False)
            )
            continue
        base_speedup, fresh_speedup = _speedup(base), _speedup(current)
        if base_speedup is not None and fresh_speedup is not None:
            floor = base_speedup * (1.0 - tolerance)
            comparisons.append(
                Comparison(
                    name=name,
                    metric="speedup",
                    baseline=base_speedup,
                    fresh=fresh_speedup,
                    ok=fresh_speedup >= floor,
                )
            )
            continue
        base_mean = float(base["stats"]["mean"])
        fresh_mean = float(current["stats"]["mean"])
        ceiling = base_mean * (1.0 + tolerance)
        comparisons.append(
            Comparison(
                name=name,
                metric="mean",
                baseline=base_mean,
                fresh=fresh_mean,
                ok=fresh_mean <= ceiling,
                advisory=True,
            )
        )
    for name in sorted(set(fresh_by_name) - set(baseline_by_name)):
        comparisons.append(
            Comparison(name=name, metric="new", baseline=None, fresh=None, ok=True)
        )
    return comparisons


def code_size(root: Path = REPO_ROOT) -> dict[str, int]:
    """``src_lines`` and ``public_all_size`` of the checkout at ``root``.

    ``__all__`` is read off the syntax tree of ``src/repro/__init__.py``:
    the gate runs as a plain script and must not need the package importable.
    """
    src = root / "src"
    src_lines = sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))
    tree = ast.parse((src / "repro" / "__init__.py").read_text())
    exported = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    return {"src_lines": src_lines, "public_all_size": len(ast.literal_eval(exported))}


def merge_summary(
    path: Path, suite: str, comparisons: list[Comparison], *, generated: str | None
) -> dict:
    """Merge one suite's comparisons into the consolidated summary file.

    Entries are keyed by ``(suite, name)``: re-running a suite replaces its
    rows and leaves every other suite's untouched, so CI can call the gate
    once per suite against one shared ``--summary`` file.
    """
    summary: dict = {"entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("entries"), list):
                summary = loaded
        except json.JSONDecodeError:
            pass  # a corrupt artifact is rebuilt, not fatal
    kept = [
        entry
        for entry in summary["entries"]
        if not (isinstance(entry, dict) and entry.get("suite") == suite)
    ]
    for comparison in comparisons:
        kept.append(
            {
                "suite": suite,
                "name": comparison.name,
                "metric": comparison.metric,
                "baseline": comparison.baseline,
                "fresh": comparison.fresh,
                "ok": comparison.ok,
                "advisory": comparison.advisory,
                "datetime": generated,
            }
        )
    kept.sort(key=lambda entry: (entry.get("suite", ""), entry.get("name", "")))
    summary["entries"] = kept
    summary["generated"] = generated
    summary.update(code_size())
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, metavar="FILE", help="committed baseline JSON"
    )
    parser.add_argument(
        "--fresh", required=True, metavar="FILE", help="freshly produced benchmark JSON"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed relative slowdown (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--strict-means",
        action="store_true",
        help="fail on out-of-tolerance absolute means too (machine-dependent)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="copy the fresh report over the baseline instead of comparing",
    )
    parser.add_argument(
        "--summary",
        metavar="FILE",
        default=None,
        help="merge this suite's comparisons into a consolidated trajectory "
        "JSON (keyed by suite+name; safe to share across gate calls)",
    )
    args = parser.parse_args(argv)

    fresh = json.loads(Path(args.fresh).read_text())
    if args.write_baseline:
        # Committed baselines carry only what the gate reads: benchmark
        # names, stats and extra_info -- not the producing machine's
        # hardware inventory or commit metadata.
        pruned = {
            "datetime": fresh.get("datetime"),
            "version": fresh.get("version"),
            "benchmarks": [
                {
                    "name": bench["name"],
                    "fullname": bench.get("fullname"),
                    "stats": bench["stats"],
                    "extra_info": bench.get("extra_info", {}),
                }
                for bench in fresh.get("benchmarks", [])
            ],
        }
        Path(args.baseline).parent.mkdir(parents=True, exist_ok=True)
        Path(args.baseline).write_text(json.dumps(pruned, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = json.loads(Path(args.baseline).read_text())
    comparisons = compare_reports(baseline, fresh, tolerance=args.tolerance)
    if args.summary is not None:
        suite = Path(args.baseline).stem
        merge_summary(
            Path(args.summary), suite, comparisons, generated=fresh.get("datetime")
        )
        print(f"summary merged: {args.summary} (suite {suite})")
    print(f"benchmark regression gate (tolerance {args.tolerance:.0%}):")
    for comparison in comparisons:
        print("  " + comparison.render())
    failed = [
        comparison
        for comparison in comparisons
        if not comparison.ok and (args.strict_means or not comparison.advisory)
    ]
    warned = [
        comparison
        for comparison in comparisons
        if not comparison.ok and comparison.advisory and not args.strict_means
    ]
    if warned:
        print(
            f"{len(warned)} machine-dependent mean(s) beyond tolerance (advisory; "
            "gate with --strict-means)."
        )
    if failed:
        print(f"{len(failed)} regression(s) beyond tolerance.")
        return 1
    print("gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
