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
import itertools
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

# Divisors of the Euler-Maclaurin corrections of the midpoint rule,
# (2j)! / ((1 - 2**(1 - 2j)) B_2j) for j = 1..10, B_2j the Bernoulli numbers.
_MIDPOINT_EM = (
    24,
    -5760 / 7,
    967680 / 31,
    -154828800 / 127,
    3503554560 / 73,
    -2678117105664000 / 1414477,
    612141052723200 / 8191,
    -49950709902213120000 / 16931177,
    669659197233029971968000 / 5749691557,
    -420928638260761696665600000 / 91546277357,
)
_EULER_GAMMA = 0.5772156649015329
# polylog sums the direct series where alpha = -ln z >= POLYLOG_SEAM (at most
# ~40 terms for r >= 0) and Robinson's series in alpha below it.
POLYLOG_SEAM = 1.0
_SERIES_REL_TOL = 1e-17
BOSE_INTEGRAL_MAX_ORDER = 170  # 171! zeta(172) = 1.2e309 leaves double range
# exp-sinh nodes run over exp(-42.9) <= x <= exp(42.9); the part of each
# oracle integral outside that range is below 1e-17 of the whole.  The step
# halves down to 2**-8: the oracles settle by level 6, bose_quadrature(169) at 8.
QUAD_T_MAX = 4
QUAD_MAX_LEVEL = 8


def _zeta_closing(x: float, regular: bool = False) -> float:
    """zeta(1 + x), x != 0, as the partial sum over s <= 10 closed by the
    integral of s**-(1 + x) from m = 10.5 to infinity (the midpoint-rule image
    of the tail) and up to ten Euler-Maclaurin terms of that rule, stopping
    at the first one below 1e-17 of the value.

    The pole distance x is taken as given, so the pole term m**-x / x keeps full
    relative accuracy next to s = 1.  With regular=True the pole 1/x is left
    out: the result is zeta(1 + x) - 1/x, which is Euler's constant at x = 0.
    """
    r = 1.0 + x
    m = 10.5
    if not regular:
        pole = m**-x / x
    else:
        pole = math.expm1(-x * math.log(m)) / x if x else -math.log(m)
    term = r / _MIDPOINT_EM[0] * m ** (-r - 1.0)
    value = math.fsum(s**-r for s in range(1, 11)) + pole - term
    rising = r  # the rising factorial r (r + 1) ... (r + 2j)
    for j in range(1, len(_MIDPOINT_EM)):
        if abs(term) <= 1e-17 * abs(value):
            break
        rising *= (r + 2 * j - 1) * (r + 2 * j)
        term = rising / _MIDPOINT_EM[j] * m ** (-r - 2 * j - 1)
        value -= term
    return value


def riemann_zeta(r: float) -> float:
    """Sum of s**(-r) over s >= 1 for finite r > 1 + 1e-9, by _zeta's closing."""
    if not 1.0 + 1e-9 < r < math.inf:
        raise DomainError(f"zeta series needs a finite r > 1 (got r = {r})")
    return _zeta(r)


def _zeta(s: float) -> float:
    """zeta(s) for every finite s != 1, continued below s = 1 for Robinson's series.

    From s = 0 on, _zeta_closing (within ~1e-18 before rounding; zeta(0) = -1/2
    comes out exactly).  Below 0 the reflection formula
    zeta(s) = 2 (2 pi)**(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s),
    with the pole distance -s of zeta(1 - s) passed exactly.
    """
    if s < 0.0:
        # s mod 4 is exact, so the sine's argument carries no rounding from |s|
        sine = math.sin(0.5 * math.pi * math.fmod(s, 4.0))
        prefactor = 2.0 * (2.0 * math.pi) ** (s - 1.0) * sine * math.gamma(1.0 - s)
        return prefactor * _zeta_closing(-s)
    return _zeta_closing(s - 1.0)


@functools.lru_cache(maxsize=8)
def _robinson(r: float):
    """Robinson's series (Phys. Rev. 83, 678 (1951)) for alpha < POLYLOG_SEAM,
    g_r(e**-alpha) = Gamma(1-r) alpha**(r-1) + sum_k zeta(r-k) (-alpha)**k / k!,
    as (coefficients, singular): g = sum_k coefficients[k] alpha**k + singular(alpha).

    For r within 1/4 of an integer n >= 1, Gamma(1-r) and the k0 = n-1 term
    zeta(1 + delta), delta = r - n, both have a pole at delta = 0, so they
    are summed as one: (-alpha)**k0 / k0! (eta - L expm1(delta L) / (delta L)),
    where eta = zeta(1 + delta) - 1/delta, L = ln alpha + lam, and
    lam delta = ln Gamma(1 - delta) - sum_{j <= k0} ln(1 + delta / j).  At
    delta = 0 this is (-alpha)**k0 / k0! (H_k0 - ln alpha), and nothing
    cancels near it.

    The coefficients stop at the first two in a row below _SERIES_REL_TOL of
    a lower bound of g, once k is past -2r, where |zeta(r-k)| / k! no longer
    grows; no term exceeds its coefficient, since alpha < 1.
    """
    n = round(r)
    delta = r - n
    k0 = n - 1 if n >= 1 and abs(delta) < 0.25 else -1
    g_min = math.exp(-POLYLOG_SEAM) if r >= 0.0 else 0.5 * math.gamma(1.0 - r)
    coefficients = []
    for k in itertools.count():
        coefficients.append(0.0 if k == k0 else (-1) ** k * _zeta(r - k) / math.factorial(k))
        last_two = abs(coefficients[-2]) + abs(coefficients[-1]) if k else math.inf
        if k > -2.0 * r and last_two <= _SERIES_REL_TOL * g_min:
            break
    coefficients = tuple(coefficients)
    if k0 < 0:
        gamma = math.gamma(1.0 - r)
        return coefficients, lambda alpha: gamma * alpha ** (r - 1.0)
    if k0 >= len(coefficients):  # (-alpha)**k0 / k0! is below the tolerance
        return coefficients, lambda alpha: 0.0
    eta = _zeta_closing(delta, regular=True)
    # ln Gamma(1 - delta) / delta = gamma + sum_i zeta(i) delta**(i-1) / i; at |delta| < 1/4
    # the terms past i = 29 are below 3e-19
    log_gamma = _EULER_GAMMA + sum(_zeta(i) * delta ** (i - 1) / i for i in range(2, 30))
    log_rising = math.fsum(
        math.log1p(delta / j) / delta if delta else 1.0 / j for j in range(1, k0 + 1)
    )
    lam = log_gamma - log_rising
    weight = (-1) ** k0 / math.factorial(k0)

    def singular(alpha):
        log_term = math.log(alpha) + lam
        y = delta * log_term
        return weight * alpha**k0 * (eta - log_term * (math.expm1(y) / y if y else 1.0))

    return coefficients, singular


def _direct_terms(r: float, alpha: float) -> int:
    """How many terms of sum_s e**(-alpha s) s**-r to keep: past them the rest
    is at most _SERIES_REL_TOL of the first term.  From term n + 1 on the
    terms fall at least by the ratio q = e**-alpha (1 + 1/(n+1))**max(-r, 0)."""
    p = max(-r, 0.0)
    n = max(1, math.ceil(math.log(_SERIES_REL_TOL * -math.expm1(-alpha)) / -alpha))
    while True:
        log_q = p * math.log1p(1.0 / (n + 1)) - alpha
        if log_q < 0.0:
            log_rest = p * math.log(n + 1) - alpha * n - math.log(-math.expm1(log_q))
            if log_rest <= math.log(_SERIES_REL_TOL):
                return n
        n *= 2


@_finite
def polylog(r: float, z: float) -> float:
    """Bose-Einstein function g_r(z) = sum of z**s / s**r, for z in [0, 1].

    With alpha = -ln z, the series is summed directly for alpha >= POLYLOG_SEAM,
    in as many terms as its geometric tail bound asks, and by Robinson's
    series in alpha below the seam, which holds every z up to 1 in the same
    ~20 terms.  Both are cut where the rest is below 1e-17 of the value; the
    result is within a few 1e-15 for the orders the tests check.  At z = 1 it
    reduces to the zeta function (requiring r > 1).
    """
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"polylog requires 0 <= z <= 1, got z = {z}")
    if not math.isfinite(r):
        raise DomainError(f"polylog requires a finite order, got r = {r}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return riemann_zeta(r)
    alpha = -math.log(z)
    if alpha >= POLYLOG_SEAM:
        return math.fsum(z**s * s**-r for s in range(1, _direct_terms(r, alpha) + 1))
    coefficients, singular = _robinson(r)
    value = 0.0
    for c in reversed(coefficients):
        value = value * alpha + c
    return value + singular(alpha)


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
