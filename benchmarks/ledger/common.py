"""Shared plumbing: checkout paths, run scale, result digests, statistics."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

#: The checkout root: the benchmark builds and runs everything from here.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for stores, checkpoints, daemon state and traces; it is
#: listed in the root ``.gitignore``.
WORK = ROOT / ".ledger_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RUN_PY = Path(__file__).resolve().parent / "run.py"


def require_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit 2.

    The benchmark measures the program in its own checkout, never an
    installed copy, so a checkout without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux >= 3.4).
_PR_SET_CHILD_SUBREAPER = 36
#: Seconds a leftover child gets to end on its own before it is killed.
STOP_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent exits.

    A child's helpers, such as the multiprocessing resource tracker of
    the ``serve`` daemon, outlive it by a moment; adopted, they can be
    waited for by :func:`stop_children` instead of running on under
    init.  Without ``prctl`` (not Linux) this does nothing.
    """
    import ctypes

    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """PIDs whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # it ended while we looked
        # The fields after the command name: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = STOP_GRACE_S) -> None:
    """Stop every process this one started or adopted, and wait for each.

    The multiprocessing resource tracker ignores SIGTERM and ends when
    its pipe closes, so it is stopped by closing the pipe; other children
    get ``grace_s`` to end on their own, then SIGKILL.  Every child is
    reaped before this returns.
    """
    import signal
    import time
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        live = _children()
        if not live:
            return
        if time.monotonic() > deadline:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclasses.dataclass(frozen=True)
class Scale:
    """How much work one run does.

    Full scale sizes each workload so its measured phase takes about
    ``--seconds`` on the reference machine (see ``baseline.json``), with
    floors that keep the correctness gates safe for any seed.  Smoke
    scale is a fixed few seconds per workload for the test suite.
    """

    #: Cold starts timed for ``setup_s``.
    setup_reps: int
    #: Segments of the main campaign; ``traces_per_s`` is their median.
    segments: int
    cpa_chunks: int
    zoo_chunks: int
    tvla_chunks: int
    service_open_s: float
    service_burst_jobs: int
    service_resubmits: int

    @classmethod
    def for_seconds(cls, seconds: int) -> "Scale":
        return cls(
            setup_reps=3,
            segments=5,
            # RFTC(1,16) recovers every key byte by ~120k traces on every
            # seed tried; 32 chunks of 5000 keep a margin above that.
            cpa_chunks=max(32, round(4 * seconds)),
            zoo_chunks=max(10, round(4 * seconds)),
            tvla_chunks=max(10, round(3 * seconds)),
            service_open_s=max(1.0, 0.8 * seconds),
            service_burst_jobs=max(20, 20 * seconds),
            service_resubmits=max(10, 10 * seconds),
        )

    @classmethod
    def smoke(cls) -> "Scale":
        return cls(
            setup_reps=1,
            segments=2,
            cpa_chunks=16,
            zoo_chunks=8,
            tvla_chunks=4,
            service_open_s=1.0,
            service_burst_jobs=30,
            service_resubmits=10,
        )


@dataclasses.dataclass
class Outcome:
    """What one measured phase of a workload produced.

    ``wall_s`` is the time spent in the measured calls, the base of the
    tracing overhead; ``layers`` holds the per-layer numbers the phase
    could see (more with a tracing recorder).
    """

    wall_s: float
    traces_per_s: float
    attempted: int
    failed: int
    gates: Dict[str, bool]
    digest: str
    layers: Dict[str, float]


def _feed(h, value) -> None:
    """Hash ``value`` with type tags, exactly (floats by ``repr``)."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"B1" if value else b"B0")
    elif isinstance(value, (int, np.integer)):
        h.update(b"I" + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        h.update(b"F" + repr(float(value)).encode())
    elif isinstance(value, str):
        h.update(b"S" + str(len(value)).encode() + b":" + value.encode())
    elif isinstance(value, bytes):
        h.update(b"Y" + str(len(value)).encode() + b":" + value)
    elif isinstance(value, np.ndarray):
        h.update(f"A{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"D" + str(len(value)).encode())
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"L" + str(len(value)).encode())
        for item in value:
            _feed(h, item)
    elif dataclasses.is_dataclass(value):
        h.update(b"C" + type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _feed(h, f.name)
            _feed(h, getattr(value, f.name))
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 over a nested structure of results (see :func:`_feed`)."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(v) for v in statistics.quantiles(values, n=4)]


def steady_rate(marks: List[tuple]) -> float:
    """Rate between the first and last of ``(time, done)`` marks.

    Starting at the first mark leaves out the start-up before the first
    result, which is reported on its own.
    """
    if len(marks) < 2:
        raise ValueError("a rate needs at least two marks")
    (t0, done0), (t1, done1) = marks[0], marks[-1]
    return (done1 - done0) / (t1 - t0)


def peak_rss_mib(who: int) -> float:
    """``ru_maxrss`` (KiB on Linux) of ``RUSAGE_SELF``/``RUSAGE_CHILDREN``."""
    import resource

    return resource.getrusage(who).ru_maxrss / 1024.0
