"""Shared machinery of the satsynth benchmark.

Locating the checkout's source, counting operations and failures,
in-memory spans, timing summaries, child processes and the record of
the environment a run was measured on.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
CHILD_TIMEOUT_S = 170.0


def use_source() -> None:
    """Import ``satsynth`` from the checkout's ``src``; exit non-zero without it."""
    if not (SRC / "satsynth" / "__init__.py").is_file():
        raise SystemExit(f"error: no satsynth source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python <args>`` to completion; returns (wall seconds, process).

    The wall time includes interpreter start-up, as a user pays it.  On
    timeout the child is killed and reaped before the error propagates.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    return time.perf_counter() - t0, proc


def exit_problems(proc: subprocess.CompletedProcess) -> list[str]:
    if proc.returncode == 0:
        return []
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit status {proc.returncode}: {tail[0]}"]


class Tally:
    """Attempted and failed operations of one run.

    An operation fails if it raises, exits non-zero or fails a check of
    its output; ``record`` takes the problems found (none means success).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def attempt(self, what: str, fn, *args, **kwargs):
        """Call ``fn``; a raised exception is recorded as a failed operation.

        Returns the result, or None after a failure.  Success is not
        recorded here: the caller records it once its checks have run.
        """
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark counts the failure and goes on
            self.record(what, [f"raised {exc!r}"])
            return None


class Tracer:
    """Spans kept in memory: name, start, end, parent span, iteration id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._origin = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, iteration: int, parent: int | None = None):
        rec = {
            "id": len(self.spans),
            "iteration": iteration,
            "parent": parent,
            "name": name,
            "start_ns": time.perf_counter_ns() - self._origin,
            "end_ns": None,
        }
        self.spans.append(rec)
        try:
            yield rec["id"]
        finally:
            rec["end_ns"] = time.perf_counter_ns() - self._origin


def span(tracer: Tracer | None, name: str, iteration: int, parent: int | None = None):
    """A span when tracing, else a context that records nothing."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, iteration, parent)


def timed(fn, *args, **kwargs):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def summary(values: list[float]) -> str:
    """Median with its sample count, plus the highest percentile that has
    at least ten samples beyond it when there are that many."""
    text = f"median of {len(values)}"
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(pct * 10) - 1]
            return f"{text}, p{pct:g} {cut:.6g}"
    return text


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process or its waited-for children, in MB."""
    import resource

    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "satsynth").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    """What runs on different machines or commits must not be compared across."""
    import numpy
    import scipy

    def cache(name: str) -> int | None:
        try:
            proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=30, check=False)
        except OSError:
            return None
        value = proc.stdout.strip()
        return int(value) if value.isdigit() and int(value) > 0 else None

    return {
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache("LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache("LEVEL3_CACHE_SIZE"),
    }


def check_counts_record(workload: str, seed: int, counts: dict) -> list[str]:
    """Counts of a seed must repeat across runs: compare with the first run's.

    The first run of a (workload, seed) in a checkout writes the record;
    later runs report every count that differs from it.
    """
    path = OUT_DIR / f"counts-{workload}-seed{seed}.json"
    if not path.exists():
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
        return []
    old = json.loads(path.read_text(encoding="utf-8"))
    return [
        f"{key} was {old.get(key)!r} in an earlier run, now {counts.get(key)!r}"
        for key in sorted(old.keys() | counts.keys())
        if old.get(key) != counts.get(key)
    ]
