"""Thermodynamic state, units policy, and shared special-function numerics.

Everything internal works in natural units with hbar = c = k_B = 1:
temperatures are energies, lengths are inverse energies, and a frequency nu
carries the photon energy 2*pi*nu.  The SI layer is a pure conversion shell
around this core; it fixes the joule as the internal energy unit, so the
internal length unit is hbar*c / (1 J) metres and the internal time unit is
hbar / (1 J) seconds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# 2019 SI defining constants (h, c, k_B exact; hbar = h / 2 pi so that
# photon-energy ratios stay consistent to machine precision).
H_SI = 6.62607015e-34      # J s
HBAR_SI = H_SI / (2.0 * math.pi)
C_SI = 299792458.0         # m / s
KB_SI = 1.380649e-23       # J / K


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A series or a quadrature could not reach its tolerance."""


class SizeError(ValueError):
    """A request exceeds a hard size limit (exact enumeration, sampled volume, double range)."""


def _finite(fn):
    """fn gated on double range, the one place that decides it: an OverflowError
    inside fn, or an inf or NaN in a float, tuple or ndarray result, becomes
    SizeError.  Other results, validated objects such as BandSpec, pass."""

    @functools.wraps(fn)
    def gated(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except OverflowError as exc:
            raise SizeError(f"{fn.__qualname__} leaves double range") from exc
        if type(result) is float and math.isfinite(result) or _all_finite(result):
            return result
        raise SizeError(f"{fn.__qualname__} leaves double range")

    return gated


def _all_finite(result) -> bool:
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, tuple):
        return all(map(_all_finite, result))
    # on short arrays count_nonzero takes half the time of .all()
    return not isinstance(result, np.ndarray) or np.count_nonzero(np.isfinite(result)) == result.size


def _require_integer(name: str, value, minimum: int) -> int:
    """value as an int >= minimum; bools and non-integral numbers raise DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _require_photon_fugacity(state: ThermoState) -> None:
    """The photon number is not conserved, so the photon gas has fugacity 1."""
    if state.fugacity != 1.0:
        raise DomainError(f"the photon gas has fugacity 1, got {state.fugacity}")


@dataclass(frozen=True)
class ThermoState:
    """Grand-canonical ensemble parameters in natural units.

    temperature is an energy (k_B = 1), volume is a (length)^3 with
    length = 1/energy (hbar = c = 1), and fugacity is dimensionless.
    For the photon gas the fugacity must stay pinned at 1.
    """

    temperature: float
    volume: float = 1.0
    fugacity: float = 1.0

    def __post_init__(self):
        if not self.temperature > 0.0:
            raise DomainError(f"temperature must be > 0, got {self.temperature}")
        if not self.volume > 0.0:
            raise DomainError(f"volume must be > 0, got {self.volume}")
        if math.isinf(self.temperature) or math.isinf(self.volume):
            raise DomainError(
                f"temperature and volume must be finite, got {self.temperature}, {self.volume}"
            )
        if not 0.0 <= self.fugacity <= 1.0:
            raise DomainError(f"fugacity must lie in [0, 1], got {self.fugacity}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


@dataclass(frozen=True)
class UnitsPolicy:
    """Boundary conversion between natural internal units and SI.

    In "natural" mode every conversion is the identity.  In "si" mode the
    internal energy unit is the joule, hence the internal length unit is
    hbar*c metres and the internal time unit is hbar seconds (numerically,
    because the unit energy is 1 J).
    """

    mode: str = "natural"

    def __post_init__(self):
        if self.mode not in ("natural", "si"):
            raise DomainError(f"units mode must be 'natural' or 'si', got {self.mode!r}")

    @property
    def length_unit_m(self) -> float:
        return HBAR_SI * C_SI if self.mode == "si" else 1.0

    @property
    def time_unit_s(self) -> float:
        return HBAR_SI if self.mode == "si" else 1.0

    # --- inputs (SI -> internal) ---

    def temperature_from_si(self, t_kelvin: float) -> float:
        return KB_SI * t_kelvin if self.mode == "si" else t_kelvin

    def volume_from_si(self, v_m3: float) -> float:
        return v_m3 / self.length_unit_m**3

    def frequency_from_si(self, nu_hz: float) -> float:
        return nu_hz * self.time_unit_s

    def mass_from_si(self, m_kg: float) -> float:
        # mass enters formulas as a rest energy once c = 1
        return m_kg * C_SI**2 if self.mode == "si" else m_kg

    def state_from_si(self, t_kelvin, v_m3, fugacity=1.0) -> ThermoState:
        return ThermoState(
            temperature=self.temperature_from_si(t_kelvin),
            volume=self.volume_from_si(v_m3),
            fugacity=fugacity,
        )

    # --- outputs (internal -> SI) ---

    @_finite
    def temperature_to_si(self, t: float) -> float:
        return t / KB_SI if self.mode == "si" else t

    def volume_to_si(self, v: float) -> float:
        return v * self.length_unit_m**3

    @_finite
    def frequency_to_si(self, nu: float) -> float:
        return nu / self.time_unit_s

    @_finite
    def number_density_to_si(self, n: float) -> float:
        return n / self.length_unit_m**3

    @_finite
    def spectral_density_to_si(self, u_nu: float) -> float:
        # energy per volume per frequency: J / (m^3 Hz)
        return u_nu * self.time_unit_s / self.length_unit_m**3

    def state_to_si(self, state: ThermoState):
        return (
            self.temperature_to_si(state.temperature),
            self.volume_to_si(state.volume),
            state.fugacity,
        )


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

_ZETA_TRUNCATIONS = (256, 1024)
_ZETA_REL_TOL = 1e-13
POLYLOG_MAX_TERMS = 10**7
BOSE_INTEGRAL_MAX_ORDER = 170  # 171! zeta(172) = 1.2e309 leaves double range
# exp-sinh nodes run over exp(-42.9) <= x <= exp(42.9); the part of each
# oracle integral outside that range is below 1e-17 of the whole.  The step
# halves down to 2**-8: the oracles settle by level 6, bose_quadrature(169) at 8.
QUAD_T_MAX = 4
QUAD_MAX_LEVEL = 8


def riemann_zeta(r: float) -> float:
    """Sum of s**(-r) over s >= 1 for r > 1, relative error below 1e-12.

    A direct partial sum over s <= S is closed with the integral of x**(-r)
    from S + 1/2 to infinity (the midpoint-rule image of the tail) plus the
    first Euler-Maclaurin correction.  The remainder after both corrections
    is bounded by ~ r(r+1)(r+2) * (S + 1/2)**(-(r+3)); S grows until that
    bound drops below 1e-13 of the running value, which happens by S = 1024
    for every r above the domain cutoff: there the bound is below
    0.06 * 1024.5**-4 ~ 5.4e-14 and shrinks as r grows, while zeta(r) > 1.
    """
    if not 1.0 + 1e-9 < r < math.inf:
        raise DomainError(f"zeta series needs a finite r > 1 (got r = {r})")
    value = math.inf
    for n_terms in _ZETA_TRUNCATIONS:
        s = np.arange(1.0, n_terms + 1.0)
        partial = float(np.sum(s ** (-r)))
        m = n_terms + 0.5
        value = partial + m ** (1.0 - r) / (r - 1.0) - (r / 24.0) * m ** (-r - 1.0)
        remainder_bound = 0.01 * r * (r + 1.0) * (r + 2.0) * m ** (-r - 3.0)
        if remainder_bound <= _ZETA_REL_TOL * value:
            return value
    return value


@_finite
def polylog(r: float, z: float) -> float:
    """Bose-Einstein function g_r(z) = sum of z**s / s**r, for z in [0, 1].

    For z < 1 the series is summed directly and cut off once a geometric
    tail bound falls below 1e-13 of the partial sum, or raises
    ConvergenceError after POLYLOG_MAX_TERMS terms; at z = 1 it reduces to
    the zeta function (requiring r > 1).
    """
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"polylog requires 0 <= z <= 1, got z = {z}")
    if not math.isfinite(r):
        raise DomainError(f"polylog requires a finite order, got r = {r}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        if not r > 1.0 + 1e-9:
            raise DomainError(f"polylog diverges at z = 1 for r <= 1 (got r = {r})")
        return riemann_zeta(r)

    log_z = math.log(z)
    total = 0.0
    start = 1
    chunk = 4096
    while start <= POLYLOG_MAX_TERMS:
        s = np.arange(start, start + chunk, dtype=float)
        total += float(np.sum(np.exp(s * log_z) * s ** (-r)))
        nxt = start + chunk
        # terms t_s = z^s / s^r decay at least geometrically with ratio q
        q = z * ((nxt + 1.0) / nxt) ** max(-r, 0.0)
        if q < 1.0:
            t_next = math.exp(nxt * log_z) * nxt ** (-r)
            if t_next / (1.0 - q) <= 1e-13 * total:
                return total
        start = nxt
    raise ConvergenceError(
        f"polylog({r}, {z}) did not converge within {POLYLOG_MAX_TERMS} terms"
    )


def _exp_sinh(integrand, rtol: float) -> tuple[float, float]:
    """Integral of integrand over [0, inf) as (value, error estimate).

    The exp-sinh trapezoid rule (Takahasi & Mori, Publ. RIMS 9, 721 (1974))
    sums integrand(x) dx/dt at x = exp(pi/2 sinh t) for |t| <= QUAD_T_MAX.
    The step in t starts at 1 and halves, each level adding the midpoints,
    until two levels differ by at most rtol * |value| or QUAD_MAX_LEVEL is
    reached; the estimate is that last difference.
    """

    def node(t):
        x = math.exp(0.5 * math.pi * math.sinh(t))
        return integrand(x) * 0.5 * math.pi * math.cosh(t) * x

    value = sum(node(k) for k in range(-QUAD_T_MAX, QUAD_T_MAX + 1))
    for level in range(1, QUAD_MAX_LEVEL + 1):
        step = 0.5**level
        half_width = QUAD_T_MAX * 2**level
        midpoints = sum(node(k * step) for k in range(1 - half_width, half_width, 2))
        previous, value = value, 0.5 * value + step * midpoints
        if abs(value - previous) <= rtol * abs(value):
            break
    return value, abs(value - previous)


def _quad(integrand, accept: float, what: str) -> float:
    """Integral over [0, inf) for the oracles; ConvergenceError naming `what`
    unless the value is finite and the error estimate at most accept * |value|.
    The rule aims at accept / 100, so an accepted value has margin on its estimate."""
    value, estimate = _exp_sinh(integrand, accept / 100.0)
    if not estimate <= accept * abs(value) < math.inf:
        raise ConvergenceError(f"exp-sinh quadrature for {what} reports error {estimate:g}")
    return value


@_finite
def bose_quadrature(n: int) -> float:
    """Integral of x**n / (e**x - 1) on [0, inf) by the exp-sinh rule of _quad.

    The integrand is evaluated as e**(n log x - x) / (1 - e**-x).  Neither
    x**n, which overflows where the integrand is still a double once n
    passes ~100, nor e**x, which overflows past x ~ 709, is formed.
    """
    n = _require_integer("bose_quadrature order n", n, 1)
    return _quad(
        lambda x: math.exp(n * math.log(x) - x) / -math.expm1(-x), 1e-10, f"bose_quadrature({n})"
    )


def bose_integral(n: int) -> float:
    """Integral of x**n / (e**x - 1) over [0, inf), n a positive integer.

    Evaluated in closed form as Gamma(n+1) * zeta(n+1).  bose_quadrature is
    the independent route; Tier-1 and `cyclegas verify` check that the two
    agree.  n past BOSE_INTEGRAL_MAX_ORDER, out of double range, raises SizeError.
    """
    n = _require_integer("bose_integral order n", n, 1)
    if n > BOSE_INTEGRAL_MAX_ORDER:
        raise SizeError(f"bose_integral order n must be <= {BOSE_INTEGRAL_MAX_ORDER}, got {n}")
    return math.factorial(n) * riemann_zeta(n + 1)
