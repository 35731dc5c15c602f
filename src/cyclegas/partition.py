"""The grand and canonical partition functions of an ideal Bose system,
built from exchange-cycle sums.

Four equivalent routes are implemented and cross-checked against each other:

* integral route: log Z from the integral of p^3/(e^p - 1) (photon gas),
* cycle series:   log Z = V * sum_s f_s / s with a certified tail bracket,
* product form:   Z = prod_s exp(V f_s / s), one factor per cycle size,
* canonical form: Z_N as a sum over all cycle distributions {xi_s} with
                  sum_s s*xi_s = N, evaluated both by exact enumeration of
                  integer partitions and by the standard recursion
                  Z_N = (1/N) sum_k C_k Z_{N-k}.

Substituting the matter-wave weight with fugacity z^s into the cycle series
reproduces the familiar Bose-Einstein momentum integrals; both sides of that
identity are exposed so tests can drive them independently.

Each production call computes its answer once, by its closed form; the
independent routes are compared in Tier-1 and by `cyclegas verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .core import ConvergenceError, DomainError, SizeError, ThermoState, bose_integral, polylog
from .core import _finite, _quad, _require_integer, _require_photon_fugacity
from .cycle_weights import _photon_cycle_means, _photon_prefactor, matter_cycle_weight

ENUMERATION_LIMIT = 25  # p(25) = 1958 cycle types, factorials < 2**128
GRAND_SUM_REL_CUTOFF = 1e-16
# the canonical recursion's buffer is scaled down by 2**-RESCALE_BITS once a
# dot product n Z_n reaches RESCALE_ABOVE, well before it can overflow
RESCALE_ABOVE = 2.0**900
RESCALE_BITS = 600
# the first power of two from 64 at which tail_bracket(s_max, 4) is narrower than 1e-12
CYCLE_SERIES_S_MAX = 1024


@dataclass(frozen=True)
class CycleSumSequence:
    """Per-system cycle sums C_s for s = 1..s_max (index 0 holds C_1).

    For the continuum photon gas C_s = V * f_s; for a discrete spectrum
    C_s = sum_j g_j exp(-beta e_j s).
    """

    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise DomainError("cycle sums must form a nonempty 1-d sequence")
        if not np.all((values > 0.0) & np.isfinite(values)):
            raise DomainError("cycle sums must be finite and strictly positive")
        object.__setattr__(self, "values", values)

    @property
    def s_max(self) -> int:
        return self.values.size

    def __getitem__(self, s: int) -> float:
        if s < 1 or s > self.values.size:
            raise IndexError(f"cycle sum C_{s} not available (s_max = {self.values.size})")
        return float(self.values[s - 1])

    @classmethod
    def from_photon_gas(cls, state: ThermoState, s_max: int) -> "CycleSumSequence":
        import numpy as np

        _require_photon_fugacity(state)
        s = np.arange(1, _require_integer("s_max", s_max, 1) + 1, dtype=float)
        return cls(values=_photon_prefactor(state.temperature, state.volume) / s**3)


def tail_bracket(s_max: int, power: float):
    """Two-sided integral bounds on sum_{s > s_max} s**(-power).

    Returns (lo, hi) with lo = integral from s_max+1 and hi = integral from
    s_max of x**(-power); the true tail lies strictly between them.
    """
    s_max = _require_integer("s_max", s_max, 1)
    if not power > 1.0:
        raise DomainError(f"tail bracket requires power > 1, got {power}")
    lo = (s_max + 1.0) ** (1.0 - power) / (power - 1.0)
    hi = float(s_max) ** (1.0 - power) / (power - 1.0)
    return lo, hi


def _closed_power_sum(s_max: int, power: float) -> float:
    """sum_{s >= 1} s**(-power): the terms up to s_max plus the midpoint of tail_bracket."""
    import numpy as np

    lo, hi = tail_bracket(s_max, power)
    s = np.arange(1, s_max + 1, dtype=float)
    return float(np.sum(s ** (-power))) + 0.5 * (lo + hi)


@_finite
def log_grand_partition_integral(state: ThermoState) -> float:
    """log Z of the photon gas from the momentum integral of p^3/(e^p - 1)."""
    _require_photon_fugacity(state)
    # volume multiplies last so that log Z(V) = V * log Z(1) holds exactly
    return state.volume * (state.temperature**3 / (3.0 * math.pi**2) * bose_integral(3))


@_finite
def log_grand_partition_cycle_series(state: ThermoState) -> float:
    """log Z of the photon gas as V * sum_s f_s / s.

    The series is truncated at CYCLE_SERIES_S_MAX and closed by the midpoint
    of the two-sided integral bracket on sum_{s > s_max} s**(-4); that
    bracket is narrower than 1e-12 of the sum, which brings the result
    within 1e-10 relative of the integral route.
    """
    _require_photon_fugacity(state)
    total = _closed_power_sum(CYCLE_SERIES_S_MAX, 4.0)
    return _photon_prefactor(state.temperature, state.volume) * total


@_finite
def log_grand_partition_product_form(state: ThermoState, s_max: int) -> np.ndarray:
    """Running log of the partial products of Z = prod_s exp(V f_s / s).

    Factor s is exp(lambda_s) with lambda_s = V f_s / s, so the running log
    is the running sum of lambda_s; it increases monotonically toward the
    cycle-series log Z.  The exponential-series identity behind each factor,
    sum_xi lambda**xi / xi! = exp(lambda), is checked in Tier-1.
    """
    _require_photon_fugacity(state)
    return _photon_cycle_means(state, _require_integer("s_max", s_max, 1)).cumsum()


@lru_cache(maxsize=None, typed=True)  # typed: True must reach the check, not a cached np.int64(1)
def cycle_types(n: int):
    """All integer partitions of n as tuples of (cycle size, multiplicity).

    Checks, once per n, that n!/(prod_s xi_s! s**xi_s) permutations of each
    type is an integer and that these counts sum to n!.
    """
    n = _require_integer("n", n, 0)

    def generate(remaining, largest):
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in generate(remaining - part, part):
                grown = dict(rest)
                grown[part] = grown.get(part, 0) + 1
                yield grown

    types = tuple(tuple(sorted(d.items())) for d in generate(n, n))
    fact_n = math.factorial(n)
    counts = [divmod(fact_n, math.prod(math.factorial(xi) * s**xi for s, xi in t)) for t in types]
    if any(remainder for _count, remainder in counts) or sum(c for c, _r in counts) != fact_n:
        raise RuntimeError(f"cycle-type counts of {n} are not integers summing to {n}! = {fact_n}")
    return types


def _canonical_recursion(C: CycleSumSequence):
    """Yield Z_1, Z_2, ..., Z_{s_max} from Z_0 = 1, Z_n = (1/n) sum_{k=1..n} C_k Z_{n-k}.

    Each step is one BLAS dot product of C_1..C_n with Z_{n-1}..Z_0, which
    sit in that order at the end of a buffer that fills from the back.  The
    buffer keeps Z_j / 2**shift: when a dot product n Z_n / 2**shift reaches
    RESCALE_ABOVE, every filled entry is multiplied by 2**-RESCALE_BITS
    (exact in binary) and the dot is redone, so Z_n stays finite whenever
    it fits in a double even though n Z_n does not.  Until a rescale fires
    the values are exactly those of the plain dot product.  A Z_n past
    double range raises SizeError, here or from the callers' gate on ldexp.

    Each Z_n is computed as soon as it is asked for, so a caller that stops
    early pays only for the terms it used.
    """
    import numpy as np

    c = C.values
    top = c.size
    reversed_z = np.empty(top + 1)  # reversed_z[top - j] holds Z_j / 2**shift
    reversed_z[top] = 1.0
    shift = 0
    for n in range(1, top + 1):
        window = reversed_z[top - n + 1 :]
        y = float(np.dot(c[:n], window))
        if not y < RESCALE_ABOVE:
            window *= 2.0**-RESCALE_BITS
            shift += RESCALE_BITS
            y = float(np.dot(c[:n], window))
        y /= n
        reversed_z[top - n] = y
        z_n = math.ldexp(y, shift)
        if not z_n < math.inf:
            raise SizeError(f"Z_{n} = {y:g} * 2**{shift} overflows double precision")
        yield z_n


@_finite
def canonical_partition_table(C: CycleSumSequence, N: int) -> np.ndarray:
    """Array of Z_0, Z_1, ..., Z_N from the cycle-sum recursion."""
    import numpy as np

    N = _require_integer("particle number N", N, 0)
    if N > 0 and C.s_max < N:
        raise DomainError(f"need cycle sums up to s = {N}, have s_max = {C.s_max}")
    return np.array([1.0, *islice(_canonical_recursion(C), N)])


@_finite
def canonical_partition_enumerated(C: CycleSumSequence, N: int):
    """Z_N as an explicit sum over all cycle distributions of N particles.

    Returns (total, weights) where weights[i] is the weight
    prod_s C_s**xi_s / (xi_s! * s**xi_s) of cycle_types(N)[i].  cycle_types
    verifies the counting identity sum over distributions of
    N!/(prod_s xi_s! s**xi_s) = N! behind these weights.
    """
    N = _require_integer("particle number N", N, 0)
    if N > ENUMERATION_LIMIT:
        raise SizeError(
            f"enumeration is limited to N <= {ENUMERATION_LIMIT}, got N = {N}"
        )
    if N > 0 and C.s_max < N:
        raise DomainError(f"need cycle sums up to s = {N}, have s_max = {C.s_max}")
    c = C.values.tolist()
    total = 0.0
    weights = []
    for ctype in cycle_types(N):
        weight = 1.0
        for s, xi in ctype:
            weight *= c[s - 1] ** xi / (math.factorial(xi) * float(s) ** xi)
        total += weight  # sequential: math.fsum or 3.12's sum would round differently
        weights.append(weight)
    return total, tuple(weights)


@_finite
def grand_partition_from_canonical(C: CycleSumSequence, z: float) -> float:
    """Grand sum sum_N z**N Z_N built from the canonical recursion.

    Truncates once a term drops below GRAND_SUM_REL_CUTOFF of the running
    sum; raises if the available cycle sums run out first.
    """
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"fugacity must lie in [0, 1], got {z}")
    total = 1.0
    z_power = 1.0
    for n, z_n in enumerate(_canonical_recursion(C), start=1):
        z_power *= z
        term = z_power * z_n
        total += term
        if n >= 8 and term < GRAND_SUM_REL_CUTOFF * total:
            return total
    raise ConvergenceError(
        f"grand sum not converged by N = {C.s_max}; extend the cycle sums"
    )


@_finite
def bose_number_density_cycle(state: ThermoState, mass: float) -> float:
    """Massive-boson number density from the fugacity-weighted cycle sum.

    n = sum_s z**s f'_s = f'_1 * g_{3/2}(z), with f'_1 = (m T / 2 pi)^(3/2).
    At z = 1 the series still converges (to zeta(3/2)); z > 1 is rejected
    upstream.
    """
    return matter_cycle_weight(state, mass, 1) * polylog(1.5, state.fugacity)


@_finite
def bose_number_density_integral(state: ThermoState, mass: float) -> float:
    """Independent momentum-integral route to the Bose number density.

    Integrates 4 pi p^2 dp/(2 pi)^3 * z e^{-beta p^2/2m} / (1 - z e^{-beta
    p^2/2m}) by quadrature after substituting u = p sqrt(beta/2m).
    """
    if not mass > 0.0:
        raise DomainError(f"mass must be > 0, got {mass}")
    z = state.fugacity

    def integrand(u):
        # 1 - z e^{-u^2} as (1 - z) - z expm1(-u^2) stays exact as u -> 0 at z = 1
        return u * u * z * math.exp(-u * u) / ((1.0 - z) - z * math.expm1(-u * u))

    value = _quad(integrand, 1e-9, f"the Bose density at z = {z}")
    scale = (2.0 * mass * state.temperature) ** 1.5 / (2.0 * math.pi**2)
    return scale * value
