#!/usr/bin/env python3
"""The repo benchmark: four workloads, end to end and layer by layer.

One run of one workload, as ``BENCHMARK.json`` declares it::

    python3 benchmarks/e2e/run.py --workload serve-warm --seed 7 --seconds 15 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs the whole suite (every workload ``--repeat``
times untraced on the one seed, so that the spread between them is run-to-run
noise alone, plus one traced run each) and writes ``BENCH_e2e.json`` and
``BENCH_layers.json`` to ``--out``; ``agree.py`` compares two such result
sets.

Each workload runs in a fresh subprocess with ``PYTHONHASHSEED=0``: the
learners' outputs do not depend on the hash seed, but the order in which
sets are walked does, and pinning it cuts the run-to-run timing spread.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2e_common import (  # noqa: E402 - needs the path line above
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    Tracer,
    fingerprint,
    load_json,
    load_profile,
    quartiles,
    require_program,
    spread_share,
)

#: One worker must end well inside the driver's 180 s limit per run.
WORKER_TIMEOUT = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run this one workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (inputs derive from it)")
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="default", help="size profile (profiles.json)")
    parser.add_argument("--repeat", type=int, default=3, help="suite mode: untraced runs per workload")
    parser.add_argument("--out", default=None, help="directory for result and span files")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- the worker: one workload, in this process ----------------------------------


def worker(args: argparse.Namespace) -> int:
    """Run one workload here and print its raw result as one JSON line."""
    sys.path.insert(0, str(SRC))
    spec = load_profile(args.profile)[args.workload]
    expected = load_json("expected.json").get(args.profile, {}).get(args.workload, {})
    tracer = Tracer()
    if args.workload.startswith("serve"):
        import e2e_serve as module

        extra = ()
    else:
        if args.workload == "learn-static":
            import e2e_learn as module
        else:
            import e2e_interactive as module
        extra = (expected,)
    if args.trace:
        result = module.run_traced(spec, args.seed, args.seconds, tracer, *extra)
        out = Path(args.out) if args.out else WORK / "traces"
        tracer.dump(
            out / f"spans-{args.workload}-seed{args.seed}.json",
            workload=args.workload, seed=args.seed, seconds=args.seconds,
        )
    else:
        result = module.run(spec, args.seed, args.seconds, *extra)
    print(json.dumps(result))
    return 0


def run_worker(args: argparse.Namespace, workload: str, seed: int, trace: int) -> dict:
    """One workload in a fresh subprocess; its raw result dict."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--profile", args.profile,
    ]
    if args.out:
        command += ["--out", args.out]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    # Its own process group, so a timeout takes the daemon it started with it.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"benchmark: {workload} did not finish in {WORKER_TIMEOUT:.0f} s")
    if process.returncode != 0:
        raise SystemExit(f"benchmark: {workload} worker exited with code {process.returncode}")
    return json.loads(stdout.decode("utf-8").strip().splitlines()[-1])


# -- shaping and printing ------------------------------------------------------


def contract_result(raw: dict, declared: list[dict]) -> dict:
    """The result object the benchmark contract asks for.

    Exactly the declared metrics: a per-layer metric of a layer this
    workload does not exercise reads 0.
    """
    return {
        "correct": raw["failed"] == 0 and not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            metric["name"]: {
                "value": float(raw["metrics"].get(metric["name"], 0.0)),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }


def print_metrics(workload: str, result: dict, raw: dict) -> None:
    width = max(len(name) for name in result["metrics"])
    print(f"# {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, entry in result["metrics"].items():
        if name in raw["metrics"]:
            print(f"{name:<{width}}  {entry['value']:>16.6f} {entry['unit']}")
    for problem in raw["problems"]:
        print(f"! {problem}")


def run_one(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    raw = run_worker(args, args.workload, args.seed, args.trace)
    result = contract_result(raw, declared)
    print_metrics(args.workload, result, raw)
    print(json.dumps(result))
    return 0


# -- the suite -----------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread_share(values)}


def run_suite(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    out = Path(args.out) if args.out else WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    header = {
        "fingerprint": fingerprint(), "profile": args.profile,
        "seconds": args.seconds, "seed": args.seed, "repeat": args.repeat,
    }
    # Round-robin over the workloads, so that a slow stretch of the box lands
    # on one repeat of each rather than on every repeat of one.
    runs: dict[str, list] = {workload: [] for workload in WORKLOADS}
    for repeat in range(args.repeat):
        for workload in WORKLOADS:
            raw = run_worker(args, workload, args.seed, 0)
            result = contract_result(raw, spec["end_to_end"])
            print_metrics(f"{workload} (run {repeat + 1}/{args.repeat})", result, raw)
            runs[workload].append((raw, result))
    e2e: dict = dict(header, workloads={})
    layers: dict = dict(header, workloads={})
    for workload in WORKLOADS:
        first_raw = runs[workload][0][0]
        e2e["workloads"][workload] = {
            "correct": all(result["correct"] for _, result in runs[workload]),
            "attempted": [raw["attempted"] for raw, _ in runs[workload]],
            "failed": [raw["failed"] for raw, _ in runs[workload]],
            "exact": {
                key: value for key, value in first_raw["detail"].items()
                if key.startswith("first_")
            },
            "metrics": {
                metric["name"]: dict(
                    summarize(
                        [result["metrics"][metric["name"]]["value"]
                         for _, result in runs[workload]]
                    ),
                    unit=metric["unit"],
                )
                for metric in spec["end_to_end"]
            },
        }
        raw = run_worker(args, workload, args.seed, 1)
        result = contract_result(raw, spec["per_layer"])
        print_metrics(f"{workload} (traced)", result, raw)
        layers["workloads"][workload] = {
            "correct": result["correct"],
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {
                name: entry for name, entry in result["metrics"].items()
                if name in raw["metrics"]
            },
        }
    (out / "BENCH_e2e.json").write_text(json.dumps(e2e, indent=2) + "\n", encoding="utf-8")
    (out / "BENCH_layers.json").write_text(json.dumps(layers, indent=2) + "\n", encoding="utf-8")
    print(f"# wrote {out / 'BENCH_e2e.json'} and {out / 'BENCH_layers.json'}")
    correct = all(entry["correct"] for side in (e2e, layers) for entry in side["workloads"].values())
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.worker:
        return worker(args)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
