"""Closed-loop timing, failure accounting, latency summaries and the run's environment."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


# Calibrated seconds: wall seconds scaled to a machine on which a fixed
# calibration kernel takes its reference time.  The kernel runs between ops;
# the scale is the reference over the median of its last CALIBRATION_WINDOW
# timings.  On a shared host the speed of the CPU drifts by up to half over
# tens of seconds, and scaling by a kernel that uses no cyclegas code cancels
# most of that drift while leaving every change to cyclegas visible.
CALIBRATION_WINDOW = 9
CALIBRATION_INTERVAL_S = 0.02  # busy time between kernel runs


def calibration_kernel() -> None:
    """In-process kernel, about a third each of interpreter-bound loops, small
    numpy calls and vector arithmetic on 4096-element arrays."""
    z = [1.0] * 110
    for n in range(1, 110):
        acc = 0.0
        for k in range(1, n + 1):
            acc += 0.5 * z[n - k]
        z[n] = acc / n
    for key in range(16):
        generator = np.random.Generator(np.random.Philox(key=key))
        float(np.sum(np.log(generator.random(64))) + generator.poisson(3.0))
    for start in range(1, 1 + 8 * 4096, 4096):
        s = np.arange(start, start + 4096, dtype=float)
        float(np.sum(np.exp(-1e-4 * s) * s**-1.5))


class _Sequence:
    """1-based read-only sequence, indexed through a Python method call."""

    def __init__(self, values):
        self.values = values

    def __getitem__(self, k):
        return self.values[k - 1]


_RECURSION_TERMS = _Sequence(np.exp(-0.01 * np.arange(1.0, 81.0)))


def recursion_kernel() -> None:
    """In-process kernel for recursion-bound ops: an 80-step convolution
    recursion over numpy scalars, read through a Python-level sequence."""
    z = np.empty(80)
    z[0] = 1.0
    for n in range(1, 80):
        acc = 0.0
        for k in range(1, n + 1):
            acc += _RECURSION_TERMS[k] * z[n - k]
        z[n] = acc / n


def spawn_kernel() -> None:
    """Process kernel: start a fresh interpreter that imports numpy."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


IN_PROCESS = (calibration_kernel, 1e-3)  # (kernel, reference seconds)
RECURSION = (recursion_kernel, 1e-3)
FRESH_PROCESS = (spawn_kernel, 0.2)


class Calibrator:
    """Times a calibration kernel and turns wall seconds into calibrated seconds."""

    def __init__(self, kernel=IN_PROCESS):
        self.kernel, self.reference_s = kernel
        self.samples = []
        self.kernel()  # the first call pays for lazy set-up
        for _ in range(CALIBRATION_WINDOW):
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return self.reference_s / statistics.median(self.samples[-CALIBRATION_WINDOW:])


@dataclass
class Phase:
    """What one timed phase recorded.

    Per op: wall latency and the calibration scale (calibrated seconds per
    wall second) at its time, in compact arrays.  Failed ops as (index, op,
    reason).  With record=True also every op and its outcome, a digest of the
    output with the failure reason, so that a second phase can replay and
    compare them.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    scales: array = field(default_factory=lambda: array("d"))
    failures: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    busy: float = 0.0


def _plain(value):
    """The value with numpy arrays and scalars turned into Python lists and numbers."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def fingerprint(value) -> str:
    """Digest of an output that is equal exactly when the outputs are bit-identical."""
    return hashlib.blake2b(repr(_plain(value)).encode(), digest_size=16).hexdigest()


def finite(value) -> bool:
    """True when every float inside a nested list/tuple/dict/array value is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if hasattr(value, "tolist"):
        return finite(value.tolist())
    if isinstance(value, dict):
        return all(finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(finite(v) for v in value)
    return True


def attempt(execute, check, op):
    """(output, failure reason or None, wall seconds of execute) of one op.

    Only execute(op) is timed.  The op fails if it raises, returns a
    non-finite value or fails check(op, value), which returns a reason string
    or None.
    """
    t0 = time.perf_counter()
    try:
        value = execute(op)
    except Exception as exc:  # a failing op is recorded, the run goes on
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0
    latency = time.perf_counter() - t0
    return value, (check(op, value) if finite(value) else "non-finite output"), latency


def measure(ops, execute, check, seconds: float, calibrator: Calibrator, record: bool = False) -> Phase:
    """Run ops one after another until their summed wall latency reaches `seconds`.

    Each op runs through `attempt`; a failure is counted and never stops the
    run.  The loop also ends when `ops` runs out, and takes no op from `ops`
    that it does not run.
    The calibration kernel runs before an op whenever CALIBRATION_INTERVAL_S
    of busy time has passed since it last ran.
    """
    phase = Phase()
    calibrated_at = -math.inf
    for index, op in enumerate(ops):
        if phase.busy - calibrated_at >= CALIBRATION_INTERVAL_S:
            calibrator.sample()
            scale = calibrator.scale()
            calibrated_at = phase.busy
        value, reason, latency = attempt(execute, check, op)
        phase.busy += latency
        phase.latencies.append(latency)
        phase.scales.append(scale)
        if reason is not None:
            phase.failures.append((index, op, reason))
        if record:
            phase.ops.append(op)
            phase.outcomes.append((fingerprint(value), reason))
        if phase.busy >= seconds:
            break
    return phase


def tail(latencies):
    """Latency at the highest percentile that has at least ten samples beyond it.

    Returns (percentile, value, samples_beyond).  With n >= 11 samples that is
    the (n-10)/n percentile, the 11th largest value; with fewer samples no
    percentile qualifies, and the smallest value is returned with the n-1
    samples beyond it, so the report shows the shortfall.
    """
    ordered = sorted(latencies)
    if not ordered:
        raise ValueError("no latencies to summarize")
    index = max(len(ordered) - 11, 0)
    return 100.0 * (index + 1) / len(ordered), ordered[index], len(ordered) - 1 - index


def summarize(phase: Phase, count: int | None = None) -> dict:
    """End-to-end figures of the first `count` ops (all by default) of a phase,
    in calibrated and in wall seconds."""
    wall = phase.latencies[:count]
    failed = sum(index < len(wall) for index, _op, _reason in phase.failures)
    summary = {"attempted": len(wall), "failed": failed, "error_rate": failed / len(wall)}
    for suffix, latencies in (("", [t * c for t, c in zip(wall, phase.scales)]), ("_wall", list(wall))):
        percentile, tail_value, beyond = tail(latencies)
        summary.update({
            f"ops_per_s{suffix}": len(latencies) / math.fsum(latencies),
            f"latency_p50_s{suffix}": statistics.median(latencies),
            f"latency_tail_s{suffix}": tail_value,
        })
    summary.update(tail_percentile=percentile, tail_samples_beyond=beyond)
    return summary


def setup_times(argv, count: int, env, cwd, calibrator: Calibrator) -> list:
    """(wall, calibrated) seconds from spawning each of `count` fresh processes
    to its 'ready' line."""
    times = []
    for _ in range(count):
        calibrator.sample()
        scale = calibrator.scale()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            times.append((wall, wall * scale))
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
    return times


def environment(root: Path, seed: int) -> dict:
    """Where and on what the run happened, recorded next to every result."""
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "executable": Path(sys.executable).name,
    }


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()
