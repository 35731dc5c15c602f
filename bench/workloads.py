"""The four workloads: inputs generated from the seed, the timed op, its check.

Every workload is single-process and closed-loop with one client.  Its ops
come from `schedule()`, an endless sequence fixed by the seed; the seed picks
parameter values while the mix of op kinds repeats in a fixed pattern, so
that every seed does the same amount of work of each kind.  `execute(op)` is
the only timed code.  `check(op, value)` compares the output with an
independent route and returns a reason string when it disagrees.

Why each mix is shaped the way it is (see README.md for the workload list):
the median must fall well inside the class of ops that the cheap layer
dominates, and the tail percentile (the 11th largest latency) well inside
the class that the expensive layer dominates, so that neither sits on the
boundary between two size classes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import cyclegas as cg
from bench import harness

# bench.refs (and mpmath) load inside the checks, so that set-up time holds
# only the program's own set-up.

# Tolerances, none looser than tests/test_acceptance.py uses for the same identity.
CLOSED_FORM_TOL = 1e-10  # log Z, energy, variance, Bose density, grand sums
EXACT_TOL = 1e-12  # recursion vs enumeration, band identity, photon density
PRINTED_TOL = 1e-8  # CLI output, printed at 9 significant digits
SIGMA_GATE = 5.0  # Monte Carlo estimates against their expectation


def _first_failure(comparisons, tol):
    """Reason for the first (label, got, want) whose relative deviation exceeds tol."""
    from bench import refs

    for label, got, want in comparisons:
        dev = refs.rel_dev(got, want)
        if not dev <= tol:
            return f"{label}: {got!r} deviates from reference by {dev:.2e} (tol {tol:g})"
    return None


def _spread(counts: dict) -> list:
    """Interleave op kinds so that each appears evenly along the sequence."""
    slots = [((j + 0.5) / n, kind) for kind, n in counts.items() for j in range(n)]
    return [kind for _pos, kind in sorted(slots, key=lambda slot: slot[0])]


class Workload:
    """Common parts: the seed's generator and peak memory of this process."""

    name = ""

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.rng = np.random.default_rng([seed, _WORKLOAD_KEYS[self.name]])

    def warm_up(self) -> None:
        """Untimed calls that fill lazy caches before the timed phase."""

    def defect_probes(self) -> list:
        """(what a correct program does, op) for each defect documented in
        README.md.  The runner calls each probe once, untimed, and reports
        whether the defect still shows; probes are never timed ops, so that
        no timed op fails at the parent commit."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Calibration kernel for the ops' latencies: an in-process one for warm ops.
    calibration = harness.IN_PROCESS


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


class SamplerOp(NamedTuple):
    size: float  # V T^3, which fixes the expected number of cycles
    temperature: float
    volume: float
    seed: int


# log10(V T^3) of consecutive ops: 7 x 1e5, 8 x 1e2, 7 x 1e3, 1 x 1e4 per round.
SAMPLER_ROUND = (5, 2, 3) * 3 + (5, 2, 4) + (5, 2, 3) * 3 + (2, 3)
SAMPLER_FIRST = 6  # one V = 1e6 op opens every run and sets the memory peak
REPLICAS = 200
S_MAX = 50


class Sampler(Workload):
    """Warm estimate_observables calls over V T^3 from 1e2 to 1e6."""

    name = "sampler"

    def schedule(self):
        for exponent in itertools.chain([SAMPLER_FIRST], itertools.cycle(SAMPLER_ROUND)):
            size = 10.0**exponent
            t = float(self.rng.uniform(0.9, 1.1))
            yield SamplerOp(size, t, size / t**3, int(self.rng.integers(2**32)))

    def execute(self, op: SamplerOp):
        config = cg.SampleConfig(
            seed=op.seed, replicas=REPLICAS, s_max=S_MAX, state=cg.ThermoState(op.temperature, op.volume)
        )
        report = cg.estimate_observables(config)
        return report.estimates, report.histogram

    def check(self, op: SamplerOp, value):
        return check_sampled(value[0], op.temperature, op.volume)

    def warm_up(self):
        self.execute(SamplerOp(1e2, 1.0, 1e2, 0))


def check_sampled(estimates: dict, t: float, v: float):
    """Energy, photon number and variance within 5 sigma of their expectation."""
    from bench import refs

    energy, number, variance = refs.sampled_moments(t, v, S_MAX)
    for key, want in (("total_energy", energy), ("photon_number", number), ("energy_variance", variance)):
        mean, se = estimates[key]["mean"], estimates[key]["se"]
        if not abs(mean - want) <= SIGMA_GATE * se:
            return f"{key} {mean!r} is {float(abs(mean - want) / se):.1f} sigma from {float(want):.9g}"
    return None


# ---------------------------------------------------------------------------
# canonical
# ---------------------------------------------------------------------------


class CanonicalOp(NamedTuple):
    system: str  # "trap" (harmonic trap spectrum) or "photon" (continuum cycle sums)
    n: int
    beta: float
    z: float


TRAP_LEVELS = np.arange(60.0)  # energies n hbar omega, n = 0..59, ground level at 0
TRAP_DEGENERACY = ((TRAP_LEVELS + 1) * (TRAP_LEVELS + 2) / 2).astype(int)
TRAP_BETAS = (0.5, 1.0, 2.0)
FUGACITIES_PER_RUN = 4
PHOTON_TEMPERATURE, PHOTON_VOLUME = 1.0, 1e4
PHOTON_OVERFLOW_N = 220  # the smallest N whose photon Z_N overflows at the parent commit
# One round, interleaved evenly: one N = 2000 and 6 N = 1000 trap ops and 200
# N = 200 ops, a third of them on photon sums.  Photon ops stay below
# PHOTON_OVERFLOW_N, so that no timed op fails; the overflow is probed apart
# (see `defect_probes`).  A 20 s run holds 3 to 5 rounds: 3 to 5 N = 2000 and
# 18 to 30 N = 1000 ops, so the tail (11th largest latency) falls well inside
# the N = 1000 ops at any of those speeds, and the median among the N = 200 ops.
CANONICAL_ROUND = [("trap", 2000)] + _spread({("trap", 1000): 6, ("trap", 200): 133, ("photon", 200): 67})


class Canonical(Workload):
    """Cycle sums, the canonical table Z_0..Z_N and the grand sum built from it."""

    name = "canonical"

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.spectrum = cg.ModeSpectrum.from_modes(TRAP_LEVELS, TRAP_DEGENERACY)
        self.photon_state = cg.ThermoState(PHOTON_TEMPERATURE, PHOTON_VOLUME)
        self._refs = {}

    def schedule(self):
        # few distinct (beta, z) per run, so that each reference is computed once
        betas = [b * float(self.rng.uniform(0.95, 1.05)) for b in TRAP_BETAS]
        trap = itertools.cycle(itertools.product(betas, self.rng.uniform(0.5, 0.75, FUGACITIES_PER_RUN).tolist()))
        photon = itertools.cycle(self.rng.uniform(0.01, 0.03, FUGACITIES_PER_RUN).tolist())
        for system, n in itertools.cycle(CANONICAL_ROUND):
            if system == "trap":
                yield CanonicalOp(system, n, *next(trap))
            else:
                yield CanonicalOp(system, n, 1.0 / PHOTON_TEMPERATURE, next(photon))

    # The ops are pure-Python recursions over numpy scalars, whose speed on a
    # shared host drifts apart from the mixed kernel's.
    calibration = harness.RECURSION

    def _sums(self, op: CanonicalOp, s_max: int):
        if op.system == "trap":
            return self.spectrum.cycle_sums(op.beta, s_max)
        return cg.CycleSumSequence.from_photon_gas(self.photon_state, s_max)

    def execute(self, op: CanonicalOp):
        sums = self._sums(op, op.n)
        table = cg.canonical_partition_table(sums, op.n)
        grand = cg.grand_partition_from_canonical(sums, op.z)
        return table, grand

    def _reference(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def check(self, op: CanonicalOp, value):
        from bench import refs

        table, grand = value
        enumerated = self._reference(
            ("Z_12", op.system, op.beta), lambda: cg.canonical_partition_enumerated(self._sums(op, 12), 12)[0]
        )
        comparisons = [("Z_12 vs enumeration", table[12], enumerated)]
        if op.system == "photon":
            want = self._reference(("grand", op.z), lambda: refs.photon_grand(PHOTON_TEMPERATURE, PHOTON_VOLUME, op.z))
            return _first_failure(comparisons, EXACT_TOL) or _first_failure(
                [("grand sum vs exp(V f Li_4(z))", grand, want)], CLOSED_FORM_TOL
            )
        limit = self._reference(("limit", op.beta), lambda: refs.trap_ground_limit(TRAP_LEVELS, TRAP_DEGENERACY, op.beta))
        product = self._reference(
            ("product", op.beta, op.z), lambda: cg.grand_partition_product(self.spectrum, op.z, op.beta)
        )
        return _first_failure(comparisons, EXACT_TOL) or _first_failure(
            [
                (f"Z_{op.n} vs excited-mode product", table[op.n], limit),
                ("grand sum vs mode product", grand, product),
            ],
            CLOSED_FORM_TOL,
        )

    def warm_up(self):
        self.execute(CanonicalOp("trap", 200, 1.0, 0.6))

    def defect_probes(self):
        # the recursion runs in linear space; photon Z_N overflows from N = 220
        op = CanonicalOp("photon", PHOTON_OVERFLOW_N, 1.0 / PHOTON_TEMPERATURE, 0.02)
        return [(f"photon Z_N is finite up to N = {PHOTON_OVERFLOW_N}", op)]


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


class AnalyticOp(NamedTuple):
    kind: str
    state: object  # cyclegas.ThermoState
    arg: object  # nu, BandSpec, s_max or mass, by kind


# Ops per sweep point; the median falls inside the mean_energy block.
ANALYTIC_MIX = {
    "planck_spectral_density": 4,
    "band_fluctuation": 4,
    "photon_number_density": 5,
    "log_grand_partition_cycle_series": 5,
    "log_grand_partition_product_form": 5,
    "mean_energy": 26,
    "energy_variance": 15,
}
ANALYTIC_POINTS = 47
# A round is this many passes over the sweep, with one Bose op of each k.  A
# 20 s run then holds about 20 to 30 k = 5 ops, so the tail (11th largest
# latency) falls near the middle of them rather than at their upper end.
SWEEPS_PER_ROUND = 4
BOSE_EXPONENTS = (1, 2, 3, 4, 5)  # fugacity 1 - 10^-k
BOSE_FAILING_EXPONENT = 6  # the direct series gives up at the parent commit


class Analytic(Workload):
    """A warm sweep of closed-form calls over temperature, volume and fugacity."""

    name = "analytic"

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        rng = self.rng
        pattern = _spread(ANALYTIC_MIX)
        ops = []
        for _ in range(ANALYTIC_POINTS):
            t = float(10.0 ** rng.uniform(-0.3, 0.3))
            state = cg.ThermoState(t, float(10.0 ** rng.uniform(0.0, 3.0)))
            nu = t * float(rng.uniform(0.05, 20.0)) / (2.0 * math.pi)
            band_nu = t * float(rng.uniform(0.5, 5.0)) / (2.0 * math.pi)
            band = cg.BandSpec.from_mode_count(band_nu, 0.05 * band_nu, float(10.0 ** rng.uniform(1.0, 4.0)))
            args = {
                "planck_spectral_density": nu,
                "band_fluctuation": band,
                "log_grand_partition_product_form": int(rng.integers(20, 61)),
            }
            ops += [AnalyticOp(kind, state, args.get(kind)) for kind in pattern]
        t = float(rng.uniform(0.8, 1.6))
        mass = 2.0 * math.pi * float(rng.uniform(0.5, 2.0))
        bose = [
            AnalyticOp("bose_number_density_cycle", cg.ThermoState(t, 1.0, 1.0 - 10.0**-k), mass)
            for k in BOSE_EXPONENTS
        ]
        self.bose_probe = bose[0]._replace(state=cg.ThermoState(t, 1.0, 1.0 - 10.0**-BOSE_FAILING_EXPONENT))
        ops *= SWEEPS_PER_ROUND
        step = len(ops) // len(bose)
        for j, op in enumerate(bose):
            ops.insert(j * (step + 1) + step // 2, op)
        self.round = ops
        self._refs = {}

    def schedule(self):
        return itertools.cycle(self.round)

    def execute(self, op: AnalyticOp):
        kind, state, arg = op
        if kind == "energy_variance":
            report = cg.energy_variance(state)
            return report.mean_energy, report.variance, report.per_cycle_contribution
        if kind in ("planck_spectral_density", "band_fluctuation", "bose_number_density_cycle"):
            return getattr(cg, kind)(state, arg)
        if kind == "log_grand_partition_product_form":
            return cg.log_grand_partition_product_form(state, arg)
        return getattr(cg, kind)(state)

    def _reference(self, op: AnalyticOp):
        from bench import refs

        kind, state, arg = op
        t, v = state.temperature, state.volume
        if kind == "mean_energy":
            return [("mean energy", refs.mean_energy(t, v), CLOSED_FORM_TOL)]
        if kind == "energy_variance":
            return [
                ("mean energy", refs.mean_energy(t, v), CLOSED_FORM_TOL),
                ("variance", refs.energy_variance(t, v), CLOSED_FORM_TOL),
                ("s=1 variance share", refs.cycle_variance(t, v, 1), EXACT_TOL),
                ("s=100 variance share", refs.cycle_variance(t, v, 100), EXACT_TOL),
            ]
        if kind == "photon_number_density":
            return [("photon density", refs.photon_density(t), EXACT_TOL)]
        if kind == "log_grand_partition_cycle_series":
            return [("cycle-series log Z", refs.log_z(t, v), CLOSED_FORM_TOL)]
        if kind == "log_grand_partition_product_form":
            return [("product-form log Z", refs.log_z_partial(t, v, arg), EXACT_TOL)]
        if kind == "band_fluctuation":
            relative, wave, particle = refs.band(t, arg.nu, arg.mode_count())
            return [("relative", relative, EXACT_TOL), ("wave", wave, EXACT_TOL), ("particle", particle, EXACT_TOL)]
        if kind == "planck_spectral_density":
            return [("u_nu", refs.planck(t, arg), EXACT_TOL)]
        return [("Bose density", refs.bose_density(t, arg, state.fugacity), CLOSED_FORM_TOL)]

    def check(self, op: AnalyticOp, value):
        if op not in self._refs:
            self._refs[op] = [(label, float(want), tol) for label, want, tol in self._reference(op)]
        kind = op.kind
        if kind == "energy_variance":
            mean, variance, shares = value
            got = [mean, variance, shares[1], shares[100]]
        elif kind == "band_fluctuation":
            got = list(value)
        elif kind == "log_grand_partition_product_form":
            got = [value[-1]]
        else:
            got = [value]
        for (label, want, tol), g in zip(self._refs[op], got):
            dev = abs(g - want) / abs(want)  # want is the 30-digit value rounded once
            if not dev <= tol:
                return f"{kind} {label}: {g!r} deviates by {dev:.2e} (tol {tol:g})"
        return None

    def warm_up(self):
        for op in self.round[: len(ANALYTIC_MIX) * 2]:
            if op.kind != "bose_number_density_cycle":
                self.execute(op)

    def defect_probes(self):
        # the direct polylog series gives up after 10^7 terms at z = 1 - 1e-6
        return [("polylog(1.5, z) converges at z = 1 - 1e-6", self.bose_probe)]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


class CliOp(NamedTuple):
    kind: str
    argv: tuple


CLI_ROUND = (
    "weights",
    "weights_massive_json",
    "partition",
    "partition_spectrum_json",
    "spectrum_json",
    "fluctuations_band",
    "density_si",
    "sample",
    "verify",
    "density_csv",
    "spectrum_si",
    "fluctuations_csv",
)
SPECTRUM_MODES = 6
SPECTRUM_N_MAX = 12


def _r(x) -> str:
    return repr(float(x))


class CliCold(Workload):
    """One fresh `python -m cyclegas.cli` process per op, over the README's command mix."""

    name = "cli-cold"

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        energies = np.sort(self.rng.uniform(0.0, 3.0, SPECTRUM_MODES))
        energies -= energies[0]
        degeneracies = self.rng.integers(1, 4, SPECTRUM_MODES)
        self.spectrum = (tuple(float(e) for e in energies), tuple(int(g) for g in degeneracies))
        self.spectrum_path = out_dir / f"spectrum-{seed}.txt"
        lines = ["# energy degeneracy"] + [f"{_r(e)} {g}" for e, g in zip(*self.spectrum)]
        self.spectrum_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        self.max_child_kb = 0
        self.trace_files = []
        self._refs = {}

    def schedule(self):
        for kind in itertools.cycle(CLI_ROUND):
            yield CliOp(kind, tuple(self._argv(kind)))

    def _argv(self, kind: str) -> list:
        rng = self.rng
        t = _r(10.0 ** rng.uniform(-0.5, 0.5))
        if kind == "weights":
            return ["weights", "--temperature", t, "--s-max", str(rng.integers(5, 31))]
        if kind == "weights_massive_json":
            mass = _r(2.0 * math.pi * rng.uniform(0.5, 2.0))
            return ["weights", "--dispersion", "massive", "--mass", mass, "--temperature", t,
                    "--s-max", str(rng.integers(5, 31)), "--format", "json"]
        if kind == "partition":
            return ["partition", "--temperature", t, "--volume", _r(10.0 ** rng.uniform(0.0, 2.0)),
                    "--s-max", str(rng.integers(20, 61))]
        if kind == "partition_spectrum_json":
            return ["partition", "--spectrum-file", str(self.spectrum_path), "--n-max", str(SPECTRUM_N_MAX),
                    "--temperature", t, "--format", "json"]
        if kind in ("spectrum_json", "spectrum_si"):
            x_min = rng.uniform(0.05, 1.0)
            argv = ["spectrum", "--x-min", _r(x_min), "--x-max", _r(x_min + rng.uniform(5.0, 20.0)),
                    "--points", str(rng.integers(50, 301))]
            if kind == "spectrum_si":
                return argv + ["--units", "si", "--temperature", _r(rng.uniform(100.0, 10000.0))]
            return argv + ["--temperature", t, "--format", "json"]
        if kind == "fluctuations_band":
            nu = float(t) * rng.uniform(0.5, 5.0) / (2.0 * math.pi)
            modes = 10.0 ** rng.uniform(1.0, 4.0)
            volume = modes / (8.0 * math.pi * nu**2 * 0.05 * nu)
            return ["fluctuations", "--temperature", t, "--volume", _r(volume), "--nu", _r(nu),
                    "--delta-nu", _r(0.05 * nu)]
        if kind == "density_si":
            return ["density", "--units", "si", "--temperature", _r(rng.uniform(100.0, 10000.0))]
        if kind == "sample":
            temperature = rng.uniform(0.9, 1.1)
            return ["sample", "--seed", str(rng.integers(2**32)), "--replicas", str(REPLICAS),
                    "--s-max", str(S_MAX), "--temperature", _r(temperature),
                    "--volume", _r(1e4 / temperature**3)]
        if kind == "verify":
            return ["verify", "--seed", str(rng.integers(2**32))]
        if kind == "density_csv":
            return ["density", "--temperature", t, "--format", "csv"]
        if kind == "fluctuations_csv":
            return ["fluctuations", "--temperature", t, "--volume", _r(10.0 ** rng.uniform(0.0, 2.0)),
                    "--s-max", str(rng.integers(10, 61)), "--format", "csv"]
        raise ValueError(kind)

    def _spawn(self, argv, env):
        """Run one process to completion; returns (exit code, stdout, stderr)."""
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=self.root)
        out = proc.stdout.read()
        err = proc.stderr.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.max_child_kb = max(self.max_child_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), err.decode()

    def execute(self, op: CliOp):
        return self._spawn([sys.executable, "-m", "cyclegas.cli", *op.argv], self.env)

    def execute_traced(self, op: CliOp):
        """The same command started through the tracing launcher."""
        path = self.out_dir / f"cli-trace-{len(self.trace_files)}.json"
        self.trace_files.append(path)
        env = dict(self.env, CGBENCH_SPAWN=repr(time.monotonic()))
        return self._spawn([sys.executable, str(self.root / "bench" / "launcher.py"), str(path), *op.argv], env)

    def warm_up(self):
        self.execute(CliOp("density_csv", ("density", "--format", "csv")))
        self.max_child_kb = 0

    def peak_rss_mb(self) -> float:
        return self.max_child_kb / 1024.0

    # Each op is a fresh process, so a fresh process calibrates it.
    calibration = harness.FRESH_PROCESS

    def check(self, op: CliOp, value):
        code, out, err = value
        if code != 0:
            return f"exit code {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
        try:
            comparisons = self._comparisons(op, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{op.kind}: unparsable output ({type(exc).__name__}: {exc})"
        if isinstance(comparisons, str):
            return comparisons
        return _first_failure(comparisons, PRINTED_TOL)

    def _comparisons(self, op: CliOp, out: str):
        """(label, printed, reference) triples for one command's output."""
        from bench import refs

        args = dict(zip(op.argv[1::2], op.argv[2::2])) if op.kind != "verify" else {}
        t = float(args.get("--temperature", 1.0))
        v = float(args.get("--volume", 1.0))
        kind = op.kind
        if kind in ("weights", "weights_massive_json"):
            columns, rows = _table(out)
            _expect(columns, ["s", "f_s"])
            _expect(len(rows), int(args["--s-max"]))
            if kind == "weights":
                return [(f"f_{int(s)}", f, refs.photon_weight(t, int(s))) for s, f in rows]
            mass = float(args["--mass"])
            return [(f"f'_{int(s)}", f, refs.matter_weight(mass, t, int(s))) for s, f in rows]
        if kind == "partition":
            columns, rows = _table(out)
            _expect(columns, ["s", "f_s", "log_z_partial", "log_z_integral"])
            _expect(len(rows), int(args["--s-max"]))
            out_rows = []
            for s, f, partial, integral in rows:
                s = int(s)
                out_rows += [(f"f_{s}", f, refs.photon_weight(t, s)),
                             (f"log_z_partial[{s}]", partial, refs.log_z_partial(t, v, s)),
                             ("log_z_integral", integral, refs.log_z(t, v))]
            return out_rows
        if kind == "partition_spectrum_json":
            columns, rows = _table(out)
            _expect(columns, ["N", "Z_N"])
            want = refs.canonical_by_series(*self.spectrum, 1.0 / t, SPECTRUM_N_MAX)
            _expect([int(n) for n, _z in rows], list(range(SPECTRUM_N_MAX + 1)))
            return [(f"Z_{int(n)}", z, want[int(n)]) for n, z in rows]
        if kind in ("spectrum_json", "spectrum_si"):
            columns, rows = _table(out)
            _expect(columns, ["nu", "u_nu", "x", "planck_x"])
            _expect(len(rows), int(args["--points"]))
            # x is rebuilt from the arguments: the printed x is rounded to 9 digits
            grid = np.linspace(float(args["--x-min"]), float(args["--x-max"]), int(args["--points"]))
            triples = []
            for (nu, u, printed_x, px), x in zip(rows, grid):
                triples.append(("x", printed_x, x))
                if kind == "spectrum_si":
                    want_nu, want_u = refs.si_planck(t, x)
                else:
                    want_nu = x * t / (2.0 * math.pi)
                    want_u = refs.planck(t, want_nu)
                triples += [("nu", nu, want_nu), ("u_nu", u, want_u), ("planck_x", px, refs.planck_x(x))]
            return triples
        if kind == "fluctuations_band":
            data = json.loads(out)
            nu, dnu = float(args["--nu"]), float(args["--delta-nu"])
            modes = refs.band_modes(nu, dnu, v)
            relative, wave, particle = refs.band(t, nu, modes)
            shares = data["per_cycle_contribution"]
            _expect(len(shares), 50)
            return [
                ("mean_energy", data["mean_energy"], refs.mean_energy(t, v)),
                ("variance", data["variance"], refs.energy_variance(t, v)),
                ("relative_fluctuation", data["relative_fluctuation"],
                 refs.energy_variance(t, v) / refs.mean_energy(t, v) ** 2),
                ("band.relative_fluctuation", data["band"]["relative_fluctuation"], relative),
                ("band.wave_term", data["band"]["wave_term"], wave),
                ("band.particle_term", data["band"]["particle_term"], particle),
                ("band.mode_count", data["band"]["mode_count"], modes),
            ] + [(f"variance share s={s}", x, refs.cycle_variance(t, v, int(s))) for s, x in shares.items()]
        if kind in ("density_si", "density_csv"):
            if kind == "density_si":
                data = json.loads(out)
                density = refs.si_photon_density(t)
            else:
                data = _quantities(out)
                density = refs.photon_density(t)
            return [("photon_number_density", data["photon_number_density"], density),
                    ("coherence_volume_count", data["coherence_volume_count"], refs.coherence_count())]
        if kind == "fluctuations_csv":
            columns, rows = _table(out)
            _expect(columns, ["s", "variance_contribution"])
            _expect(len(rows), int(args["--s-max"]))
            return [(f"variance share s={int(s)}", x, refs.cycle_variance(t, v, int(s))) for s, x in rows]
        if kind == "sample":
            data = json.loads(out)
            return check_sampled(data["estimates"], t, v) or []
        if kind == "verify":
            lines = out.strip().splitlines()
            if lines[-1].split() != ["PASS", "overall"] or not all(line.startswith("PASS") for line in lines):
                return "verify did not report PASS overall"
            return []
        raise ValueError(kind)


def _expect(got, want):
    if got != want:
        raise ValueError(f"expected {want!r}, got {got!r}")


def _table(out: str):
    """(columns, rows of floats) from the CLI's CSV or JSON table output."""
    if out.startswith("{"):
        data = json.loads(out)
        return data["columns"], data["rows"]
    lines = out.strip().splitlines()
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def _quantities(out: str) -> dict:
    lines = out.strip().splitlines()
    _expect(lines[0], "quantity,value")
    return {name: float(value) for name, value in (line.split(",") for line in lines[1:])}


WORKLOADS = {cls.name: cls for cls in (CliCold, Sampler, Canonical, Analytic)}
# Mixed into the seed so that two workloads given one seed draw unrelated inputs.
_WORKLOAD_KEYS = {"cli-cold": 1, "sampler": 2, "canonical": 3, "analytic": 4}
