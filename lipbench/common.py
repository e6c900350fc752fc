"""Shared plumbing: checkout layout, work directories, statistics."""

from __future__ import annotations

import math
import os
import random
import shutil
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".lipbench-work")

perf = time.perf_counter


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program source)."""


def bootstrap() -> None:
    """Make the checkout's ``src`` importable; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"program source not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's source first on
    the path, temporary files kept inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: CPUs this process could use when it started, before
#: :func:`pin_to_one_cpu` narrowed them.
_NPROC = _cpus()


def nproc() -> int:
    """CPUs available to the benchmark, as ``nproc`` counts them."""
    return _NPROC


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU.

    The serve workloads pass every request between two processes (the
    load generator and the server).  On a virtual machine whose CPUs
    the host also lends to others, waking a process on the other CPU
    can wait for the host to run that CPU, and those waits swamped the
    timings (serve-hot p90 read 0.9 to 3.8 ms on four seeds).  On one
    CPU the hand-over is a plain context switch.  The workloads run one
    thing at a time, so they lose no parallelism by it."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass


class WorkDir:
    """A per-run directory inside the checkout, removed on exit.

    Temporary files of this process and its children (SQLite spill
    files included) go to its ``tmp`` subdirectory, so a run writes
    nothing outside the checkout."""

    def __init__(self, workload: str):
        self.path = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        tmp = os.path.join(self.path, "tmp")
        os.makedirs(tmp)
        os.environ["TMPDIR"] = tmp
        import tempfile
        tempfile.tempdir = tmp
        self._count = 0

    def fresh(self, stem: str, suffix: str = "") -> str:
        """A path no earlier call returned."""
        self._count += 1
        return os.path.join(self.path, f"{stem}-{self._count:04d}{suffix}")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def trace_path(workload: str, seed: int) -> str:
    directory = os.path.join(WORK_ROOT, "traces")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{workload}-seed{seed}.jsonl")


def steal_seconds() -> Optional[float]:
    """Machine-wide steal time from ``/proc/stat``: seconds the host
    ran something else on this machine's virtual CPUs.  None where it
    cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = [int(value) for value in stream.readline().split()[1:]]
        tick = os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError):
        return None
    return fields[7] / tick if len(fields) > 7 else None


def sqlite_bytes(path: str) -> int:
    """Bytes of a SQLite database with its WAL sidecars."""
    total = 0
    for suffix in ("", "-wal", "-shm"):
        try:
            total += os.path.getsize(path + suffix)
        except OSError:
            pass
    return total


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def stratified(rng: random.Random, nodes: List[int], count: int) -> List[int]:
    """One node drawn from each of ``count`` equal slices of ``nodes``
    in id order.  Ids follow execution order, and a node's place in it
    sets how much of the run lies above and below it (so how much work
    a query about it does), so every seed asks about nodes spread alike
    over the run."""
    ordered = sorted(nodes)
    size = len(ordered) / count
    return [ordered[rng.randrange(round(k * size), round((k + 1) * size))]
            for k in range(count)]


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Outcome:
    """What a workload hands back: operation counts, correctness, and
    metric values by name (units are attached by the runner)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.values: Dict[str, float] = {}
        self.report: Dict[str, object] = {}

    def problem(self, text: str) -> None:
        """Record a wrong answer (kept short: the first few suffice)."""
        if len(self.problems) < 20:
            self.problems.append(text)
        else:
            self.problems[-1] = f"... and more (last: {text})"

    @property
    def correct(self) -> bool:
        return not self.problems

