"""Monte Carlo realization of the photon gas as a random assembly of cycles.

The grand-canonical measure factorizes: the number of s-cycles is Poisson
with mean lambda_s = V * f_s / s, independently for every s, and each cycle
carries a momentum drawn from p^2 e^{-beta s p} dp, i.e. Gamma(shape 3,
rate beta*s).  The cycle energy E = s*p is then Gamma(shape 3, rate beta)
regardless of s, and the energies of K independent cycles sum to one
Gamma(shape 3K, rate beta) variable.  A replica is therefore sampled
exactly, rejection-free and in memory independent of V, by a Poisson vector
xi_s and a single energy draw.

Randomness contract: one counter-based Philox stream per replica, keyed by
the two 64-bit words (seed, replica).  Within a stream the Poisson vector
xi_1..xi_{s_max} is drawn first, in one call, then the replica's total
energy E ~ Gamma(3 * sum_s xi_s, scale T) in one call (E = 0 when no cycle
was drawn).  Replicas are independent by construction and may be
evaluated in any order or in parallel without changing the result.

estimate_observables builds one Philox generator per call and re-keys it to
each replica's stream by assigning its state, which costs about 1 us where
a Philox build costs about 16 us; 200 replicas at s_max 50 take 3.5-6 ms on a
2-vCPU Xeon, mostly in the Poisson draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._output import dumps
from .core import DomainError, SizeError, ThermoState, _require_integer, _require_photon_fugacity
from .cycle_weights import _photon_cycle_means, _photon_prefactor
from .partition import tail_bracket

# Largest replicas * V * T^3 that SampleConfig accepts.  At this limit the
# largest Poisson mean, lambda_1 = (2/pi^2) V T^3 <= 2.1e17, is far below
# numpy's bound (about 9.2e18), and the photon count summed over all replicas,
# of mean at most (2 zeta(3)/pi^2) * 1e18 = 2.4e17, stays 38 times below the
# int64 limit.
SAMPLE_SIZE_LIMIT = 1e18


@dataclass(frozen=True)
class SampleConfig:
    seed: int
    replicas: int
    s_max: int
    state: ThermoState

    def __post_init__(self):
        # numpy integers become ints, so that the stream key is exact
        for name, minimum in (("seed", 0), ("replicas", 1), ("s_max", 1)):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name), minimum))
        if self.seed >= 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.replicas >= 2**32 or self.s_max >= 2**32:
            raise DomainError("replicas and s_max must fit in 32 bits")
        _require_photon_fugacity(self.state)
        t = self.state.temperature
        size = self.replicas * self.state.volume * t * t * t  # inf, not OverflowError as t**3
        if not size <= SAMPLE_SIZE_LIMIT:
            raise SizeError(
                f"replicas * V * T^3 = {size:g} exceeds the sampling limit {SAMPLE_SIZE_LIMIT:g}"
            )


@dataclass(frozen=True)
class SampleReport:
    """Estimates with standard errors, plus the photon-count histogram by cycle size."""

    estimates: dict
    histogram: dict
    config: dict

    def to_json(self) -> str:
        return dumps(
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


def stream(seed: int, replica: int) -> np.random.Generator:
    """The Philox stream owned by one replica, keyed by the words (seed, replica)."""
    if not (0 <= seed < 2**64 and 0 <= replica < 2**64):
        raise DomainError(f"seed and replica must lie in [0, 2**64), got {seed}, {replica}")
    # an explicit seed skips the OS entropy of Philox(); _rekey replaces the whole state
    rng = np.random.Generator(np.random.Philox(0))
    _rekey(rng.bit_generator, seed, replica)
    return rng


def _rekey(bit_generator: np.random.Philox, seed: int, replica: int) -> None:
    """Reset bit_generator to the start of the stream keyed (seed, replica).

    The state equals that of a fresh Philox(key=seed | replica << 64): counter
    zero, empty buffer, no cached 32-bit half-word.
    """
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, replica)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw(rng: np.random.Generator, lam: np.ndarray, temperature: float):
    """(xi, E): cycle counts xi_s ~ Poisson(lam_s), then E ~ Gamma(3 sum xi, T)."""
    xi = rng.poisson(lam)
    return xi, rng.gamma(3 * xi.sum(), temperature)


def sample_cycle_configuration(config: SampleConfig, replica: int = 0) -> dict:
    """The cycle configuration {s: xi_s}, xi_s ~ Poisson(V f_s / s), of one replica.

    Only occupied cycle sizes appear.  It is the configuration behind that
    replica of estimate_observables(config).
    """
    _require_integer("replica", replica, 0)
    lam = _photon_cycle_means(config.state, config.s_max)
    xi, _energy = _draw(stream(config.seed, replica), lam, config.state.temperature)
    return {s: n for s, n in enumerate(xi.tolist(), start=1) if n > 0}


def estimate_observables(config: SampleConfig) -> SampleReport:
    """Replica-averaged estimates of total energy, photon number, and Var(E).

    Each replica draws one full cycle configuration and its energy.  Means
    and their standard errors come from the replica-to-replica spread; the
    error of the variance estimate is the exact spread of a sample variance
    of r compound-Poisson energies, evaluated at the sampled mean energy.
    The histogram counts photons, s per s-cycle, summed over replicas.
    """
    state = config.state
    lam = _photon_cycle_means(state, config.s_max)
    sizes = np.arange(1, config.s_max + 1)
    totals_e = np.empty(config.replicas)
    totals_n = np.empty(config.replicas, dtype=np.int64)
    counts = np.zeros(config.s_max, dtype=np.int64)
    rng = stream(config.seed, 0)
    for replica in range(config.replicas):
        if replica:
            _rekey(rng.bit_generator, config.seed, replica)
        xi, totals_e[replica] = _draw(rng, lam, state.temperature)
        totals_n[replica] = xi @ sizes
        counts += xi
    photons = sizes * counts

    r = config.replicas
    mean_e = float(np.mean(totals_e))
    mean_n = float(np.mean(totals_n))
    se_e = float(np.std(totals_e, ddof=1) / math.sqrt(r)) if r > 1 else 0.0
    se_n = float(np.std(totals_n, ddof=1) / math.sqrt(r)) if r > 1 else 0.0
    if r > 1:
        var_e = float(np.var(totals_e, ddof=1))
        # Var(var_e) = sigma^4 (2/(r-1) + kappa/r).  Poisson cycle counts with
        # Gamma(3, T) energies give sigma^2 = 4 T <E> and excess kurtosis
        # kappa = 7.5 T / <E> for any lambda_s.  Evaluated at mean_e, the
        # error bar does not shrink along with a low var_e, as a plug-in of
        # var_e and the sample fourth moment does: at 200 replicas that
        # plug-in puts |z| > 5 about once in 10^4 estimates, not 6e-7.
        t = state.temperature
        se_var = t * math.sqrt(32.0 * mean_e**2 / (r - 1) + 120.0 * t * mean_e / r)
    else:
        var_e = 0.0
        se_var = 0.0

    # mass of the discarded tail sum_{s > s_max} V f_s / s, bracket midpoint
    lo, hi = tail_bracket(config.s_max, 4.0)
    tail = _photon_prefactor(state.temperature, state.volume) * (0.5 * (lo + hi))

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
    return SampleReport(estimates=estimates, histogram=histogram, config=report_config)


def histogram_loglog_slope(histogram: dict) -> float:
    """Weighted least-squares slope of log(photon count) against log(s), s = 1..8.

    Weights follow the Poisson error of the underlying cycle counts
    (photons arrive s at a time, so the count of s-cycles sets the
    uncertainty).  For the photon gas the slope estimates the exponent of
    the 1/s^3 law.
    """
    sizes = [s for s in range(1, 9) if histogram.get(s, 0) > 0]
    if len(sizes) < 2:
        raise DomainError("need at least two occupied histogram bins")
    counts = np.array([histogram[s] for s in sizes], dtype=float)
    s_arr = np.array(sizes, dtype=float)
    weights = np.sqrt(counts / s_arr)
    return float(np.polyfit(np.log(s_arr), np.log(counts), 1, w=weights)[0])
