"""Physical observables of the photon gas derived from the cycle expansion.

Because log Z is proportional to beta**(-3), every beta derivative is
available in closed form: the mean energy is 3*T*log Z (the familiar T^4
energy-density law), and the energy variance is 12*T^2*log Z.  The variance
decomposes over cycle sizes as 12*T^2*V*f_s/s: an s-cycle occurs a Poisson
number of times with mean V*f_s/s, and each occurrence carries energy
distributed as Gamma(shape 3, rate beta), i.e. mean 3T and second moment
12*T^2 independent of s.  Finite-difference derivatives of log Z are kept
alongside as ground-truth checks on all of this.

Band-resolved fluctuations follow the classic wave/particle split: with
n = 1/(e^{h nu / k T} - 1) and rho*dnu modes in the band,

    <dE^2>/<E>^2 = h nu / <E> + 1 / (rho dnu),

an algebraically exact identity for the Planck occupation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import DomainError, SizeError, ThermoState, bose_quadrature, riemann_zeta
from .core import _finite, _require_integer, _require_photon_fugacity
from .cycle_weights import _photon_cycle_means, _photon_prefactor
from .partition import _closed_power_sum, log_grand_partition_integral

DENSITY_CYCLE_SUM_S_MAX = 10**4
MEAN_ENERGY_REL_STEP = 1e-5
VARIANCE_REL_STEP = 1e-3
WIEN_PEAK_TOL = 1e-13
TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


@dataclass(frozen=True)
class FluctuationReport:
    """Total energy fluctuation with its decomposition over cycle sizes."""

    mean_energy: float
    variance: float
    per_cycle_contribution: dict
    relative_fluctuation: float


@dataclass(frozen=True)
class BandSpec:
    """A narrow frequency band: center nu, width delta_nu, cavity volume."""

    nu: float
    delta_nu: float
    volume: float

    def __post_init__(self):
        if not self.nu > 0.0 or not self.delta_nu > 0.0 or not 0.0 < self.volume < math.inf:
            raise DomainError("band requires nu, delta_nu > 0 and a finite volume > 0")
        if self.delta_nu > 0.1 * self.nu:
            raise DomainError(
                f"band must be narrow: delta_nu <= 0.1 * nu, got {self.delta_nu} vs {self.nu}"
            )

    @_finite
    def mode_count(self) -> float:
        """rho * dnu, with two polarizations: rho(nu) = 8 pi V nu^2 (c = 1)."""
        return 8.0 * math.pi * self.volume * self.nu**2 * self.delta_nu

    @classmethod
    def from_mode_count(cls, nu: float, delta_nu: float, mode_count: float) -> "BandSpec":
        """The band whose volume holds mode_count modes: mode_count over the count at V = 1."""
        per_volume = cls(nu, delta_nu, 1.0).mode_count()  # 0 once nu^2 dnu underflows
        return cls(nu, delta_nu, mode_count / per_volume if per_volume else math.inf)


@_finite
def mean_energy(state: ThermoState) -> float:
    """Mean photon-gas energy 3*T*log Z = V * (pi^2/15) * T^4."""
    return 3.0 * state.temperature * log_grand_partition_integral(state)


@_finite
def mean_energy_finite_difference(state: ThermoState) -> float:
    """-d(log Z)/d(beta) by central difference, the oracle for mean_energy."""
    beta = state.beta
    h = MEAN_ENERGY_REL_STEP * beta
    lo = ThermoState(1.0 / (beta - h), state.volume, state.fugacity)
    hi = ThermoState(1.0 / (beta + h), state.volume, state.fugacity)
    return -(log_grand_partition_integral(hi) - log_grand_partition_integral(lo)) / (2.0 * h)


@_finite
def photon_number_density(state: ThermoState) -> float:
    """Average photon density (2/pi^2) * T^3 * zeta(3)."""
    _require_photon_fugacity(state)
    return _photon_prefactor(state.temperature) * riemann_zeta(3.0)


@_finite
def photon_number_density_cycle_sum(state: ThermoState) -> float:
    """The same density as sum_s f_s (an s-cycle holds s photons, weight f_s/s).

    Truncated at DENSITY_CYCLE_SUM_S_MAX and closed with the midpoint of the
    integral bracket on sum_{s > s_max} s**(-3); the certified error is
    below 1e-12 relative.
    """
    _require_photon_fugacity(state)
    return _photon_prefactor(state.temperature) * _closed_power_sum(DENSITY_CYCLE_SUM_S_MAX, 3.0)


def coherence_volume_photon_count(state: ThermoState) -> float:
    """Photons in one coherence volume (1/T)^3: the constant 2*zeta(3)/pi^2.

    Temperature independent by construction: the density grows as T^3, so the
    count is the density at T = 1, and no T^3 is formed that could underflow.
    Numerically about 0.2436, so "about one photon per coherence volume" only
    as an order of magnitude.
    """
    _require_photon_fugacity(state)
    return photon_number_density(ThermoState(1.0))


def energy_variance(state: ThermoState, s_max: int = 100) -> FluctuationReport:
    """Total energy variance d^2(log Z)/d(beta)^2 = 12*T^2*log Z.

    per_cycle_contribution[s] = 12*T^2*V*f_s/s for s up to s_max; the
    remainder of the sum is certified by tail_bracket(s_max, 4).  The relative
    fluctuation variance / mean**2 is exactly 4 / (3 log Z).  Raises SizeError
    when any of the three leaves double precision.
    """
    s_max = _require_integer("s_max", s_max, 1)
    t = state.temperature
    log_z = log_grand_partition_integral(state)
    variance = 12.0 * t**2 * log_z
    mean = 3.0 * t * log_z
    relative = 4.0 / (3.0 * log_z) if log_z > 0.0 else math.inf  # log Z underflows at tiny V T^3
    if math.isinf(max(mean, variance, relative)):
        raise SizeError(f"energy moments leave double precision at V = {state.volume:g}, T = {t:g}")
    shares = 12.0 * t**2 * _photon_cycle_means(state, s_max)
    per_cycle = dict(enumerate(shares.tolist(), start=1))
    return FluctuationReport(
        mean_energy=mean,
        variance=variance,
        per_cycle_contribution=per_cycle,
        relative_fluctuation=relative,
    )


@_finite
def energy_variance_finite_difference(state: ThermoState) -> float:
    """d^2(log Z)/d(beta)^2 by a 5-point central stencil, the variance oracle."""
    beta = state.beta
    h = VARIANCE_REL_STEP * beta

    def log_z(b):
        return log_grand_partition_integral(ThermoState(1.0 / b, state.volume, state.fugacity))

    return (
        -log_z(beta + 2 * h)
        + 16.0 * log_z(beta + h)
        - 30.0 * log_z(beta)
        + 16.0 * log_z(beta - h)
        - log_z(beta - 2 * h)
    ) / (12.0 * h * h)


@_finite
def band_fluctuation(state: ThermoState, band: BandSpec):
    """Relative energy fluctuation of a band and its particle/wave split.

    Returns (relative_fluctuation, wave_term, particle_term) with
    relative = <dE^2>/<E>^2, particle = h*nu/<E>, wave = 1/(rho * dnu).
    The identity relative = particle + wave is exact.  Raises SizeError deep
    in the Wien tail, where the occupation or <E>^2 underflows.
    """
    _require_photon_fugacity(state)
    modes = band.mode_count()
    if modes < 1.0:
        raise DomainError(
            f"degenerate band: mode count rho*dnu = {modes:g} is below 1"
        )
    photon_energy = 2.0 * math.pi * band.nu  # h*nu with hbar = 1
    x = photon_energy / state.temperature
    occupation = _planck_occupation(x)
    mean = modes * photon_energy * occupation
    mean_squared = mean**2
    if mean_squared == 0.0:
        raise SizeError(f"<E>^2 of the band underflows at h nu / kT = {x:g}")
    variance = modes * photon_energy**2 * occupation * (occupation + 1.0)
    return variance / mean_squared, 1.0 / modes, photon_energy / mean


def _planck_occupation(x: float) -> float:
    """1/(e^x - 1) at x = h nu / k T; once e^x overflows it equals e^-x to double precision."""
    if x == 0.0:
        raise SizeError("h nu / kT underflows to 0, where the Planck occupation is infinite")
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return math.exp(-x)


@_finite
def planck_spectral_density(state: ThermoState, nu: float) -> float:
    """Planck energy density per unit frequency, u(nu) = 16 pi^2 nu^3 / (e^{2 pi nu/T} - 1).

    This is (8 pi h nu^3 / c^3) / (e^{h nu / k T} - 1) in natural units.  Raises
    SizeError where it is not finite, as at a subnormal h nu / k T.
    """
    _require_photon_fugacity(state)
    if not nu > 0.0:
        raise DomainError(f"frequency must be > 0, got {nu}")
    x = 2.0 * math.pi * nu / state.temperature
    occupation = _planck_occupation(x)
    if occupation < sys.float_info.min:
        # e^-x is subnormal or 0 past x ~ 708, while nu^3 e^-x may be a normal
        # double.  16 pi^2 nu^3 e^-x = (2 sqrt(pi) nu^(3/4) e^(-x/8) e^(-x/8))^4:
        # x/8 is exact and no factor leaves double range before the result
        # does.  exp(log(16 pi^2) + 3 log nu - x) would round an exponent of
        # size |3 log nu|, up to 2e-13 relative; this stays within 1e-14.
        eighth = math.exp(-x / 8.0)
        return (TWO_SQRT_PI * nu**0.75 * eighth * eighth) ** 4
    return 16.0 * math.pi**2 * nu**3 * occupation


@_finite
def spectral_energy_density_integral(state: ThermoState) -> float:
    """Energy density from quadrature of the Planck spectrum over all nu.

    Uses bose_quadrature (substituting x = 2 pi nu / T gives T^4/pi^2 times
    the n = 3 Bose integral), so this route is independent of the
    zeta-series closed forms.
    """
    _require_photon_fugacity(state)
    return state.temperature**4 / math.pi**2 * bose_quadrature(3)


def wien_peak_x() -> float:
    """Location x* = h nu / k T of the Planck spectral peak.

    Solves 3*(1 - e**(-x)) = x by bisection on [2, 3]; the root is the Wien
    displacement constant 2.8214393721...
    """
    lo, hi = 2.0, 3.0
    while hi - lo > WIEN_PEAK_TOL:
        mid = 0.5 * (lo + hi)
        if 3.0 * (1.0 - math.exp(-mid)) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
