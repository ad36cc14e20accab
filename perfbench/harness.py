"""Shared benchmark plumbing: work dirs, phase ledger, stats, stamps."""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

#: Everything a run writes lives under here (inside the checkout).
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Seconds a child process gets to exit after SIGTERM before SIGKILL.
CHILD_GRACE = 20.0


def derive_seed(seed: int, *keys: object) -> int:
    """A stable 31-bit integer seed derived from ``seed`` and ``keys``."""
    text = "/".join(str(part) for part in (seed, *keys))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Phase ledger
# ----------------------------------------------------------------------
@dataclass
class Phase:
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    retried: int = 0
    errors: list[str] = field(default_factory=list)


class Ledger:
    """Operations attempted / succeeded / failed / retried, per phase.

    A failed, refused or wrong-output operation is a failure; the first
    few error messages per phase are kept for the report.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.phases: dict[str, Phase] = {}

    def _phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    def ok(self, phase: str, n: int = 1) -> None:
        with self._lock:
            entry = self._phase(phase)
            entry.attempted += n
            entry.succeeded += n

    def fail(self, phase: str, error: object, n: int = 1) -> None:
        with self._lock:
            entry = self._phase(phase)
            entry.attempted += n
            entry.failed += n
            if len(entry.errors) < 5:
                entry.errors.append(str(error)[:300])

    def check(self, phase: str, passed: bool, error: str) -> None:
        """Record one correctness comparison."""
        if passed:
            self.ok(phase)
        else:
            self.fail(phase, error)

    def retried(self, phase: str, n: int) -> None:
        with self._lock:
            self._phase(phase).retried += n

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases.values())

    def as_dict(self) -> dict:
        return {
            name: {
                "attempted": p.attempted, "succeeded": p.succeeded,
                "failed": p.failed, "retried": p.retried,
                **({"errors": p.errors} if p.errors else {}),
            }
            for name, p in sorted(self.phases.items())
        }


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
@dataclass
class Context:
    """One benchmark run: arguments, scratch directory and ledger."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: str
    ledger: Ledger = field(default_factory=Ledger)
    #: Workload-scale overrides (the smoke tests shrink the inputs).
    scale: dict = field(default_factory=dict)
    #: The span sink while a traced phase runs, else ``None``.
    sink: object = None

    def span(self, name: str, **attrs: object):
        """A benchmark-owned span in traced phases, a no-op otherwise."""
        if self.sink is None:
            return contextlib.nullcontext()
        from repro import obs

        return obs.span(name, tracer=self.sink, **attrs)

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def size(self, name: str, default: int) -> int:
        return int(self.scale.get(name, default))


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: What one reference probe takes on the machine the benchmark was tuned
#: on (2-vCPU Xeon VM, Python 3.11), in seconds.  Timings are reported
#: at this host speed.
REF_NOMINAL_S = 2.4e-3
#: Seconds of work between two probes.
PROBE_EVERY_S = 0.05
#: Probes this many seconds either side of a sample set its speed; the
#: host's speed can change within a second, which a p95 sees.
PROBE_SPAN_S = 0.1


#: Slots in the probe's pointer walk (~16 MB of list slots and objects).
_WALK_SLOTS = 1 << 18
#: Slots one probe visits; a slot comes round again ~90 probes later.
_WALK_STEPS = 3000


@functools.cache
def _walk_table() -> tuple[list[int], list[float]]:
    """One random cycle through every slot, and the slots' values;
    built once per process."""
    order = list(range(_WALK_SLOTS))
    random.Random(0).shuffle(order)
    successor = [0] * _WALK_SLOTS
    for here, there in zip(order, order[1:] + order[:1]):
        successor[here] = there
    return successor, [float(i) for i in range(_WALK_SLOTS)]


def reference_probe(slot: int) -> int:
    """Fixed pure-Python work that shares no code with the program;
    returns the slot the next probe starts from.

    Half is an arithmetic and dict loop, half a pointer walk through
    list slots spread over megabytes; co-tenants slow the two
    differently (see ``perfbench/README.md``).  The walk goes on where the last probe stopped, so its data is not
    still cached from the probe before.  Against a fixed
    ``serve-step`` load, the loop alone tracked an episode that slowed
    the server round trip 1.7x as 1.4x; a walk tracked it in full but
    over-corrected imperfect sessions, whose rounds are mostly
    arithmetic.  The sum tracks both within ~10%.
    """
    total, table = 0, {}
    for i in range(10_000):
        table[i & 255] = total
        total += i * i % 7
    successor, values = _walk_table()
    acc = 0.0
    for _ in range(_WALK_STEPS):
        slot = successor[slot]
        acc += values[slot]
    return slot


class Speed:
    """How fast the host runs right now, probed between units of work.

    Co-tenants of a shared host slow every instruction, by up to 2x for
    seconds at a time, with no steal time (CPU time tracks wall time).
    The workload thread runs :func:`reference_probe` every
    ``PROBE_EVERY_S`` and each timing is scaled by ``REF_NOMINAL_S`` /
    the median probe around it, so a figure describes the program at a
    fixed host speed.  A program change moves the timings, not the
    probe, so it still shows in full.
    """

    def __init__(self) -> None:
        _walk_table()  # build the probe's table before anything is timed
        self._slot = 0
        self.at: list[float] = []
        self.took: list[float] = []
        #: Seconds spent probing; callers subtract it from their timings.
        self.spent = 0.0
        self._last = float("-inf")

    def probe(self, cores: list[int]) -> None:
        """One probe on each of ``cores`` (the thread visits each core
        and returns to its own mask)."""
        mask = os.sched_getaffinity(0)
        try:
            for core in cores:
                os.sched_setaffinity(0, {core})
                self._probe()
        finally:
            os.sched_setaffinity(0, mask)

    def _probe(self) -> None:
        t0 = time.perf_counter()
        self._slot = reference_probe(self._slot)
        now = time.perf_counter()
        self.at.append(now)
        self.took.append(now - t0)
        self.spent += now - t0
        self._last = now

    def tick(self) -> None:
        """Probe if the last probe is ``PROBE_EVERY_S`` old."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._probe()

    def scale(self, start: float, end: float) -> float:
        """``REF_NOMINAL_S`` / the median probe in ``[start, end]``
        widened by ``PROBE_SPAN_S`` (the nearest three probes if none)."""
        if not self.took:
            return 1.0
        lo = bisect.bisect_left(self.at, start - PROBE_SPAN_S)
        hi = bisect.bisect_right(self.at, end + PROBE_SPAN_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 1)
        return REF_NOMINAL_S / statistics.median(self.took[lo:hi])


#: One timing: ``(start, end, seconds)`` on ``perf_counter``.
Sample = tuple[float, float, float]


@dataclass
class Measured:
    """One measured phase of a closed loop."""

    speed: Speed = field(default_factory=Speed)
    sessions: int = 0
    elapsed: float = 0.0
    open_s: list[Sample] = field(default_factory=list)
    step_s: list[Sample] = field(default_factory=list)
    run_s: list[Sample] = field(default_factory=list)
    #: Units of work (a simulation, a job, a session, a block of the
    #: traffic mix) as ``(start, end, seconds, sessions)``.
    units: list[tuple[float, float, float, int]] = field(default_factory=list)
    retries: int = 0

    def since(self, series: list[Sample], t0: float, spent0: float) -> float:
        """Append the time since ``t0``, less any probing since then
        (``spent0`` is ``speed.spent`` at ``t0``), to ``series``."""
        now = time.perf_counter()
        took = now - t0 - (self.speed.spent - spent0)
        series.append((t0, now, took))
        return took

    def unit(self, t0: float, spent0: float, sessions: int) -> None:
        """Record a unit of work of ``sessions`` that began at ``t0``."""
        now = time.perf_counter()
        self.units.append((t0, now, now - t0 - (self.speed.spent - spent0),
                           sessions))

    def scaled(self, series: list[Sample]) -> list[float]:
        """Each timing of ``series`` at the nominal host speed."""
        return [took * self.speed.scale(t0, t1) for t0, t1, took in series]

    @property
    def sessions_per_s(self) -> float:
        """The median unit's sessions per scaled second."""
        return median([
            sessions / (took * self.speed.scale(t0, t1))
            for t0, t1, took, sessions in self.units
        ])

    @property
    def host_scale(self) -> float:
        """The median probe's scale over the phase (1.0: nominal speed)."""
        return REF_NOMINAL_S / median(self.speed.took) if self.speed.took else 1.0


def make_workdir(workload: str) -> str:
    path = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env(workdir: str) -> dict:
    """Environment for this process and its children: every default
    cache/store path the program could fall back to points inside the
    run's work directory, and ``src/`` is importable."""
    env = dict(os.environ)
    env["REPRO_ORACLE_CACHE"] = os.path.join(workdir, "oracle-cache")
    env["REPRO_JOB_STORE"] = os.path.join(workdir, "jobs.sqlite3")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH"))
        if p
    )
    return env


#: Set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 5


def scaled_call(speed: Speed, call) -> float:
    """Wall seconds of ``call()`` at the nominal host speed, probing
    every core this process may use before and after it."""
    cores = sorted(os.sched_getaffinity(0))
    for _ in range(3):
        speed.probe(cores)
    t0 = time.perf_counter()
    call()
    t1 = time.perf_counter()
    for _ in range(3):
        speed.probe(cores)
    return (t1 - t0) * speed.scale(t0, t1)


def cold_starts(ctx: Context, workdirs: list[str],
                timeout: float = 120.0) -> list[float]:
    """Scaled wall time of one fresh-interpreter cold start of the
    workload (``coldstart.py``) per entry of ``workdirs``."""
    speed = Speed()

    def cold_start(workdir: str) -> None:
        done = subprocess.run(
            [sys.executable, f"{BENCH_DIR}/coldstart.py", ctx.workload,
             workdir],
            env=child_env(ctx.workdir), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cold start exited {done.returncode}: "
                               f"{done.stderr.strip()[-500:]}")

    times = [scaled_call(speed, lambda: cold_start(w)) for w in workdirs]
    ctx.ledger.ok("setup", len(times))
    return times


def stop_child(proc: subprocess.Popen) -> None:
    """SIGTERM, wait, SIGKILL if it will not go; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=CHILD_GRACE)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


# ----------------------------------------------------------------------
# Result stamping
# ----------------------------------------------------------------------
def git_commit(root: str = ROOT) -> str:
    """HEAD's commit id read from ``.git`` (``unknown`` outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def result_line(ctx: Context, metrics: dict[str, tuple[float, str]]) -> str:
    """The last output line: correctness, operation counts, metrics."""
    return json.dumps({
        "correct": ctx.ledger.failed == 0,
        "attempted": max(1, ctx.ledger.attempted),
        "failed": ctx.ledger.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
