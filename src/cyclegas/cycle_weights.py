"""Per-volume statistical weights of s-particle exchange cycles.

An s-cycle is a group of s particles sharing one momentum and polarization
in the symmetrized many-body state.  Its weight per unit volume is the
momentum integral of exp(-beta * energy(p) * s) over 4*pi*p^2 dp / (2*pi)^3
times the internal degeneracy.  For light (energy = p) the closed form is

    f_s = (2 / pi^2) * T^3 / s^3,

and for a nonrelativistic massive particle (energy = p^2 / 2m)

    f'_s = (m T / 2 pi)^(3/2) / s^(3/2),

both in natural units.  The quadrature route below evaluates the same
integrals numerically and is the independent check on the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, ThermoState
from .core import _finite, _quad, _require_integer, _require_photon_fugacity

TWO_OVER_PI_SQUARED = 2.0 / math.pi**2


@_finite
def _photon_prefactor(temperature, volume=1.0):
    """V (2/pi^2) T^3, the one place the photon cycle weight is written: V f_s is
    this over s**3, and the mean number V f_s / s of s-cycles this over s**4."""
    return volume * TWO_OVER_PI_SQUARED * temperature**3


def _photon_cycle_means(state: ThermoState, s_max: int) -> np.ndarray:
    """lambda_s = V f_s / s, the mean number of s-cycles, for s = 1..s_max."""
    s = np.arange(1, s_max + 1, dtype=float)
    return _photon_prefactor(state.temperature, state.volume) / s**4


def photon_cycle_weight(state: ThermoState, s: int) -> float:
    """Closed-form photon cycle weight (2/pi^2) * T^3 / s^3, in (length)^-3."""
    _require_photon_fugacity(state)
    s = _require_integer("cycle size s", s, 1)
    return _photon_prefactor(state.temperature) / s**3


@_finite
def matter_cycle_weight(state: ThermoState, mass: float, s: int) -> float:
    """Closed-form matter-wave cycle weight (m T / 2 pi)^(3/2) / s^(3/2), in (length)^-3."""
    s = _require_integer("cycle size s", s, 1)
    if not mass > 0.0:
        raise DomainError(f"mass must be > 0, got {mass}")
    return (mass * state.temperature / (2.0 * math.pi)) ** 1.5 / s**1.5


def _exp_moment(power: float) -> float:
    """Integral of u**power * e**(-u) over [0, inf) to 1e-9 relative."""
    return _quad(lambda u: u**power * math.exp(-u), 1e-9, f"exponential moment {power}")


@_finite
def photon_cycle_weight_by_quadrature(state: ThermoState, s: int) -> float:
    """Oracle for photon_cycle_weight: 2 int exp(-beta p s) 4 pi p^2 dp / (2 pi)^3.

    The substitution u = beta p s (u = beta s p^2 / 2m for matter) leaves no
    parameter in the quadrature, so its accuracy is uniform in s and T.
    """
    _require_photon_fugacity(state)
    s = _require_integer("cycle size s", s, 1)
    # p = u/(beta s):  p^2 dp -> (beta s)^-3 u^2 du
    moment = _exp_moment(2.0)
    return 1.0 / math.pi**2 * (state.temperature / s) ** 3 * moment


@_finite
def matter_cycle_weight_by_quadrature(state: ThermoState, mass: float, s: int) -> float:
    """Oracle for matter_cycle_weight: int exp(-beta s p^2 / 2m) 4 pi p^2 dp / (2 pi)^3."""
    s = _require_integer("cycle size s", s, 1)
    if not mass > 0.0:
        raise DomainError(f"mass must be > 0, got {mass}")
    # u = beta s p^2/(2m):  p^2 dp -> (2m/(beta s))^(3/2) sqrt(u)/2 du
    moment = _exp_moment(0.5)
    return 1.0 / (4.0 * math.pi**2) * (2.0 * mass / (state.beta * s)) ** 1.5 * moment


def decay_comparison(s_max: int) -> np.ndarray:
    """Normalized decay of photon vs matter cycle weights, rows (s, f_s/f_1, f'_s/f'_1).

    The photon column falls as s**-3 and the matter column as s**-3/2.
    """
    s_max = _require_integer("s_max", s_max, 2)
    state = ThermoState(temperature=1.0)
    f1 = photon_cycle_weight(state, 1)
    fp1 = matter_cycle_weight(state, 2.0 * math.pi, 1)
    rows = np.empty((s_max, 3))
    for s in range(1, s_max + 1):
        rows[s - 1, 0] = s
        rows[s - 1, 1] = photon_cycle_weight(state, s) / f1
        rows[s - 1, 2] = matter_cycle_weight(state, 2.0 * math.pi, s) / fp1
    return rows
