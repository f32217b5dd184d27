"""Shared pieces of the end-to-end benchmark harness.

Everything here is benchmark-owned: statistics helpers, the in-memory span
recorder, ladder arithmetic, the engine timing proxy, the machine
fingerprint and the profile loader.  Nothing in ``src/`` is instrumented --
layers are measured from outside, by timing calls into their public
functions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout (gitignored): temp catalogs and spans.
WORK = ROOT / ".bench_e2e"

WORKLOADS = ("serve-warm", "serve-cold", "learn-static", "learn-interactive")
#: The share of an in-process run that draws new inputs; the rest of the run
#: repeats the first units, which must then give the same outputs.  With the
#: pace read beside each unit a repeat tells less than a new input does.
DISTINCT_SHARE = 0.8


def load_json(name: str) -> dict:
    """One of the harness's own JSON files (profiles, expected digests)."""
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def load_profile(name: str) -> dict:
    """The named size profile: ``default`` (compared) or ``smoke`` (tests)."""
    profiles = load_json("profiles.json")
    if name not in profiles:
        raise SystemExit(f"unknown profile {name!r}; expected one of {sorted(profiles)}")
    return profiles[name]


def build_graph(spec: dict):
    """The profile's scale-free Zipfian graph (Section 5.1's generator)."""
    from repro.datasets.synthetic import scale_free_graph

    return scale_free_graph(
        spec["nodes"], alphabet_size=20, zipf_exponent=1.0, seed=spec["graph_seed"]
    )


def derived_seed(seed: int, *parts: int) -> int:
    """The seed of one unit of a run, from the workload seed alone."""
    return random.Random("/".join(map(str, (seed, *parts)))).randrange(2**31)


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def geometric_mean(values) -> float:
    """The typical value of positive timings that range over decades."""
    return math.exp(mean([math.log(value) for value in values]))


# -- the pace of the box --------------------------------------------------------

#: What :func:`speed_probe` reads on the reference box while it is quiet.
PROBE_REFERENCE_S = 0.0050


def speed_probe() -> float:
    """Seconds a fixed loop over a set and a dict takes right now.

    The loop does what the learners do -- hashing, set membership, dict
    reads and writes in a working set of a few hundred KiB -- and nothing of
    the program under test, so it slows down when the box does and only then.
    """
    seen: set[int] = set()
    table: dict[int, int] = {}
    total = 0
    started = time.perf_counter()
    for index in range(40000):
        key = (index * 7919) % 8192
        if key not in seen:
            seen.add(key)
            table[key] = index
        else:
            total += table[key]
    return time.perf_counter() - started


def slow_downs(probes: list[float]) -> list[float]:
    """The slow-down of each interval between two consecutive probe readings."""
    return [
        (before + after) / 2.0 / PROBE_REFERENCE_S for before, after in zip(probes, probes[1:])
    ]


class Pace:
    """How much slower than quiet the box runs, read beside each unit of work.

    Interference on a shared box lasts from seconds to minutes, longer than a
    run, so no statistic over a run's own repeats removes it: on one seed the
    20-second medians of a fixed sweep ranged over 32 %.  The probe, run
    before and after a unit, read the same slow-down to within 2 %.  Every
    end-to-end timing is therefore reported *at the quiet pace*: a unit's
    times are divided by the slow-down of its interval (:meth:`factor`, or
    :func:`slow_downs` where the readings are taken elsewhere).  A change to
    the program moves the unit and not the probe, so it shows in full.
    """

    def __init__(self) -> None:
        speed_probe()  # the first reading of a process is a cold one
        self.last = speed_probe()

    def factor(self) -> float:
        """Probe again: the slow-down over the interval since the last probe."""
        before, self.last = self.last, speed_probe()
        return slow_downs([before, self.last])[0]


# -- ladder arithmetic --------------------------------------------------------


def self_time(total: float, children) -> float:
    """A rung's self time: its duration minus the rungs it contains."""
    return total - sum(children)


def unattributed_share(top: float, self_times) -> float:
    """The share of the top rung that no measured self time accounts for."""
    return (top - sum(self_times)) / top if top else 0.0


# -- spans --------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.record[3] = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Benchmark-owned in-memory spans: name, start, end, parent, request id.

    Single-threaded by design (the traced runs replay their requests on one
    thread); spans are kept in a list and written out once, at exit.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, request=None) -> _Span:
        return _Span(self, [name, 0.0, 0.0, None, request])

    def durations(self, name: str) -> list[float]:
        return [end - start for span, start, end, _, _ in self.spans if span == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def dump(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, fields=["name", "start", "end", "parent", "request"])
        payload["spans"] = self.spans
        path.write_text(json.dumps(payload), encoding="utf-8")


# -- engine proxy -------------------------------------------------------------


class EngineProxy:
    """A pass-through engine that times its four hot entry points.

    The learner and the interactive session take ``engine=``; handing them
    this proxy measures the engine time *inside* the learner without
    re-implementing it.  The engine's internal calls (``any_selects`` ->
    ``index_for``) stay on the real object, so nothing is counted twice.
    """

    TIMED = ("any_selects", "selects", "evaluate", "index_for")

    def __init__(self, engine) -> None:
        self._engine = engine
        self.seconds = dict.fromkeys(self.TIMED, 0.0)
        self.calls = dict.fromkeys(self.TIMED, 0)

    def __getattr__(self, name: str):
        return getattr(self._engine, name)

    def _timed(self, name: str, args, kwargs):
        started = time.perf_counter()
        try:
            return getattr(self._engine, name)(*args, **kwargs)
        finally:
            self.seconds[name] += time.perf_counter() - started
            self.calls[name] += 1

    def any_selects(self, *args, **kwargs):
        return self._timed("any_selects", args, kwargs)

    def selects(self, *args, **kwargs):
        return self._timed("selects", args, kwargs)

    def evaluate(self, *args, **kwargs):
        return self._timed("evaluate", args, kwargs)

    def index_for(self, *args, **kwargs):
        return self._timed("index_for", args, kwargs)

    def busy(self) -> float:
        """Total seconds spent inside the timed entry points so far."""
        return sum(self.seconds.values())


# -- process and machine ------------------------------------------------------


def quiesce() -> None:
    """Collect garbage before a timed section so a collection debt carried
    over from set-up is not billed to the first operations."""
    gc.collect()


def peak_rss_mb_self() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Another live process's peak resident set, from ``VmHWM``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def fingerprint() -> dict:
    """What the numbers depend on besides the code: machine and interpreter.

    ``backend="auto"`` picks the numpy kernels when numpy imports, so numpy
    presence changes what runs; ``agree.py`` refuses to compare across it.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "commit": commit,
    }


def digest(payload) -> str:
    """A short stable digest of a JSON-safe transcript."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_digest(expected: dict, seed: int, key: str, found: str, problems: list) -> None:
    """Compare a first-unit digest with the committed one (default seed only)."""
    if expected and seed == expected["seed"] and found != expected[key]:
        problems.append(f"{key} {found} != committed {expected[key]}")


def require_program() -> None:
    """Exit non-zero, without a result line, when the program is absent.

    The benchmark measures ``src/repro``; in a directory that holds only the
    benchmark's own files there is nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"benchmark: no program to measure under {SRC}", file=sys.stderr)
        raise SystemExit(2)
