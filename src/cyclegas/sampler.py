"""Monte Carlo realization of the photon gas as a random assembly of cycles.

The grand-canonical measure factorizes: the number of s-cycles is Poisson
with mean lambda_s = V * f_s / s, independently for every s, and each cycle
carries a momentum drawn from p^2 e^{-beta s p} dp, i.e. Gamma(shape 3,
rate beta*s).  The cycle energy E = s*p is then Gamma(shape 3, rate beta)
regardless of s: mean 3T, variance 3T^2, second moment 12T^2.  Sampling is
therefore exact and rejection-free.

Randomness contract: one counter-based Philox stream per (replica, s) pair,
keyed as (seed, replica * 2^32 + s).  Within a stream the Poisson count is
drawn first, then 3 uniforms per cycle for the energies.  Replicas are
independent by construction and may be evaluated in any order or in
parallel without changing the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ThermoState
from .cycle_weights import _photon_cycle_term
from .partition import CycleDistribution, tail_bracket

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SampleConfig:
    seed: int
    replicas: int
    s_max: int
    state: ThermoState

    def __post_init__(self):
        if self.replicas < 1:
            raise DomainError(f"replicas must be >= 1, got {self.replicas}")
        if self.s_max < 1:
            raise DomainError(f"s_max must be >= 1, got {self.s_max}")
        if not 0 <= self.replicas < 2**32 or self.s_max >= 2**32:
            raise DomainError("replicas and s_max must fit in 32 bits")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.state.fugacity != 1.0:
            raise DomainError(
                f"the photon gas is sampled at fugacity 1, got {self.state.fugacity}"
            )


@dataclass(frozen=True)
class SampleReport:
    """Estimates with standard errors, plus the photon-count histogram by cycle size."""

    estimates: dict
    histogram: dict
    n_replicas: int
    config: dict

    def to_json(self) -> str:
        return _dumps(
            {
                "estimates": self.estimates,
                "histogram": {str(s): n for s, n in self.histogram.items()},
                "config": self.config,
            }
        )

    def histogram_csv(self) -> str:
        lines = ["s,photon_count"]
        lines += [f"{s},{self.histogram[s]}" for s in sorted(self.histogram)]
        return "\n".join(lines) + "\n"


def _dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 9 significant digits."""
    if isinstance(obj, dict):
        body = ",".join(f"{_dumps(str(k))}:{_dumps(v)}" for k, v in obj.items())
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.9g}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def stream(seed: int, replica: int, s: int) -> np.random.Generator:
    """The Philox stream owned by one (replica, s) pair."""
    key = np.array(
        [seed & _UINT64_MASK, ((replica << 32) | s) & _UINT64_MASK], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def cycle_mean_counts(config: SampleConfig) -> np.ndarray:
    """lambda_s = V * f_s / s for s = 1..s_max."""
    s = np.arange(1, config.s_max + 1, dtype=float)
    return _photon_cycle_term(config.state.temperature, config.state.volume, s, 4)


def sample_cycle_configuration(config: SampleConfig, replica: int = 0) -> CycleDistribution:
    """One grand-canonical cycle configuration: xi_s ~ Poisson(V f_s / s)."""
    lam = cycle_mean_counts(config)
    multiplicities = {}
    n_total = 0
    for s in range(1, config.s_max + 1):
        xi = int(stream(config.seed, replica, s).poisson(lam[s - 1]))
        if xi > 0:
            multiplicities[s] = xi
            n_total += s * xi
    return CycleDistribution(multiplicities=multiplicities, n_total=n_total)


def sample_cycle_energy(s: int, state: ThermoState, rng: np.random.Generator) -> float:
    """Energy of one s-cycle: E = -T (ln u1 + ln u2 + ln u3).

    The cycle momentum p ~ Gamma(3, beta*s) and E = s*p, so E ~ Gamma(3,
    beta) independent of s; the sum of three exponentials samples that
    exactly and branch-free.  The per-photon energy is E/s.
    """
    if s < 1:
        raise DomainError(f"cycle size must be >= 1, got {s}")
    u = rng.random(3)
    return -state.temperature * float(np.sum(np.log(u)))


def _cycle_energies(count: int, state: ThermoState, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draw of `count` cycle energies from the same uniform stream."""
    if count == 0:
        return np.empty(0)
    u = rng.random(3 * count).reshape(count, 3)
    return -state.temperature * np.sum(np.log(u), axis=1)


def estimate_observables(config: SampleConfig) -> SampleReport:
    """Replica-averaged estimates of total energy, photon number, and Var(E).

    Each replica draws one full cycle configuration and its energies; means
    and standard errors come from the replica-to-replica spread (the
    variance estimate's error uses the fourth-moment formula).  The
    histogram counts photons, s per s-cycle, summed over replicas.
    """
    state = config.state
    lam = cycle_mean_counts(config)
    totals_e = np.empty(config.replicas)
    totals_n = np.empty(config.replicas, dtype=np.int64)
    photons = np.zeros(config.s_max, dtype=np.int64)
    for replica in range(config.replicas):
        e_acc = 0.0
        n_acc = 0
        for s in range(1, config.s_max + 1):
            rng = stream(config.seed, replica, s)
            xi = int(rng.poisson(lam[s - 1]))
            if xi == 0:
                continue
            e_acc += float(np.sum(_cycle_energies(xi, state, rng)))
            n_acc += s * xi
            photons[s - 1] += s * xi
        totals_e[replica] = e_acc
        totals_n[replica] = n_acc

    r = config.replicas
    mean_e = float(np.mean(totals_e))
    mean_n = float(np.mean(totals_n))
    se_e = float(np.std(totals_e, ddof=1) / math.sqrt(r)) if r > 1 else 0.0
    se_n = float(np.std(totals_n, ddof=1) / math.sqrt(r)) if r > 1 else 0.0
    if r > 1:
        var_e = float(np.var(totals_e, ddof=1))
        m4 = float(np.mean((totals_e - mean_e) ** 4))
        se_var = math.sqrt(max(m4 - (r - 3) / (r - 1) * var_e**2, 0.0) / r)
    else:
        var_e = 0.0
        se_var = 0.0

    # mass of the discarded tail sum_{s > s_max} V f_s / s, bracket midpoint
    lo, hi = tail_bracket(config.s_max, 4.0)
    tail = _photon_cycle_term(state.temperature, state.volume) * (0.5 * (lo + hi))

    estimates = {
        "total_energy": {"mean": mean_e, "se": se_e},
        "photon_number": {"mean": mean_n, "se": se_n},
        "energy_variance": {"mean": var_e, "se": se_var},
    }
    histogram = {s: int(photons[s - 1]) for s in range(1, config.s_max + 1) if photons[s - 1] > 0}
    report_config = {
        "seed": config.seed,
        "replicas": config.replicas,
        "s_max": config.s_max,
        "temperature": state.temperature,
        "volume": state.volume,
        "fugacity": state.fugacity,
        "truncated_tail": tail,
    }
    return SampleReport(
        estimates=estimates, histogram=histogram, n_replicas=r, config=report_config
    )


def histogram_loglog_slope(histogram: dict, s_min: int = 1, s_max: int = 8) -> float:
    """Weighted least-squares slope of log(photon count) against log(s).

    Weights follow the Poisson error of the underlying cycle counts
    (photons arrive s at a time, so the count of s-cycles sets the
    uncertainty).  For the photon gas the slope estimates the exponent of
    the 1/s^3 law.
    """
    sizes = [s for s in range(s_min, s_max + 1) if histogram.get(s, 0) > 0]
    if len(sizes) < 2:
        raise DomainError("need at least two occupied histogram bins")
    counts = np.array([histogram[s] for s in sizes], dtype=float)
    s_arr = np.array(sizes, dtype=float)
    weights = np.sqrt(counts / s_arr)
    return float(np.polyfit(np.log(s_arr), np.log(counts), 1, w=weights)[0])
