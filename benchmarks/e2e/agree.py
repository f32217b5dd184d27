#!/usr/bin/env python3
"""Do two result sets of the benchmark agree within its own bounds?

``python3 benchmarks/e2e/agree.py A B`` loads two directories written by
``run.py --out`` (``BENCH_e2e.json`` and, when both have it,
``BENCH_layers.json``) and prints one row per (workload, metric) with both
medians and quartiles.  The per-metric bounds of ``BENCHMARK.json`` apply
symmetrically -- neither side may be worse than the other by more than the
bound.  A metric whose own run-to-run spread exceeds its bound is marked
``unresolved``: the runs cannot tell a difference of that size from noise.
Rows that repeat exactly for a seed (digests, first-unit F1, counts, byte
sizes, hit rates) must be equal.  Exit code 1 on any disagreement, 2 when
the sets cannot be compared at all.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2e_common import ROOT  # noqa: E402 - needs the path line above

#: Per-layer rows a seed determines exactly (the traced run's request count
#: is fixed by ``--seconds``, so program counters repeat).  Response bytes are
#: not among them: the envelope carries elapsed times of varying digit count.
EXACT_LAYER_ROWS = (
    "storage.snapshot_bytes",
    "engine.result_cache_hit_rate", "engine.plan_cache_hit_rate",
    "engine.plan_compilations", "engine.states_expanded", "engine.edges_scanned",
    "service.shed_total", "service.errors",
    "engine.any_selects_calls", "engine.selects_calls", "engine.evaluate_calls",
    "learning.dynamic_k_retries", "evaluation.f1_mean",
    "interactive.reused_learn_rate", "interactive.k_final",
)


def load(path: str, name: str) -> dict | None:
    target = Path(path)
    target = target / name if target.is_dir() else target
    if not target.exists() or target.name != name:
        return None
    return json.loads(target.read_text(encoding="utf-8"))


def comparable(a: dict, b: dict) -> str | None:
    """Why the two sets cannot be compared, or None when they can."""
    numpy_a, numpy_b = a["fingerprint"]["numpy"], b["fingerprint"]["numpy"]
    if (numpy_a is None) != (numpy_b is None):
        return (
            f"numpy presence differs ({numpy_a} vs {numpy_b}): backend='auto' "
            "runs different kernels, the sets measure different programs"
        )
    for key in ("profile", "seconds", "seed"):
        if a[key] != b[key]:
            return f"{key} differs ({a[key]} vs {b[key]})"
    return None


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``agree``, ``disagree`` or ``unresolved`` for one end-to-end metric."""
    if a["spread"] > bound or b["spread"] > bound:
        return "unresolved"
    low, high = sorted((a["median"], b["median"]))
    if low <= 0:
        return "agree" if low == high else "disagree"
    # Symmetric: whichever side is the worse one, by the metric's direction,
    # may be worse than the other by at most the bound.
    worse_by = (high - low) / low if better == "lower" else (high - low) / high
    return "agree" if worse_by <= bound else "disagree"


def compare(e2e_a: dict, e2e_b: dict, layers_a: dict | None, layers_b: dict | None,
            spec: dict) -> tuple[list[str], dict]:
    """The printed rows and the count of each verdict."""
    rows = []
    counts = {"agree": 0, "disagree": 0, "unresolved": 0, "equal": 0, "unequal": 0}
    for workload, side_a in e2e_a["workloads"].items():
        side_b = e2e_b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = side_a["metrics"][name], side_b["metrics"][name]
            result = verdict(a, b, metric["better"], metric["bound"])
            counts[result] += 1
            rows.append(
                f"{workload:<18} {name:<12} "
                f"A {a['median']:>12.4f} [{a['q1']:.4f}, {a['q3']:.4f}]  "
                f"B {b['median']:>12.4f} [{b['q1']:.4f}, {b['q3']:.4f}]  "
                f"{metric['unit']:<4} bound {metric['bound']:.2f}  {result}"
            )
        exact = [("correct", side_a["correct"], side_b["correct"])]
        exact += [(key, value, side_b["exact"].get(key)) for key, value in side_a["exact"].items()]
        if layers_a and layers_b:
            metrics_a = layers_a["workloads"][workload]["metrics"]
            metrics_b = layers_b["workloads"][workload]["metrics"]
            exact += [
                (name, metrics_a[name]["value"], metrics_b[name]["value"])
                for name in EXACT_LAYER_ROWS
                if name in metrics_a and name in metrics_b
            ]
        for key, value_a, value_b in exact:
            result = "equal" if value_a == value_b else "unequal"
            counts[result] += 1
            rows.append(f"{workload:<18} {key:<32} A {value_a}  B {value_b}  {result}")
    return rows, counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: agree.py A B   (two directories written by run.py --out)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_a, e2e_b = (load(path, "BENCH_e2e.json") for path in argv)
    if e2e_a is None or e2e_b is None:
        print("agree: each argument must hold a BENCH_e2e.json", file=sys.stderr)
        return 2
    reason = comparable(e2e_a, e2e_b)
    if reason:
        print(f"agree: refusing to compare: {reason}", file=sys.stderr)
        return 2
    layers_a, layers_b = (load(path, "BENCH_layers.json") for path in argv)
    rows, counts = compare(e2e_a, e2e_b, layers_a, layers_b, spec)
    print("\n".join(rows))
    print("# " + ", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["disagree"] or counts["unequal"] else 0


if __name__ == "__main__":
    sys.exit(main())
