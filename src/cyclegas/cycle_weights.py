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
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ThermoState
from .core import _finite, _quad, _require_integer, _require_photon_fugacity

TWO_OVER_PI_SQUARED = 2.0 / math.pi**2


@dataclass(frozen=True)
class Dispersion:
    """Single-particle energy law plus internal degeneracy.

    kind "photon" means energy(p) = p with two helicity states; kind
    "massive" means energy(p) = p^2 / (2 mass) with one internal state.
    """

    kind: str
    mass: float | None = None

    def __post_init__(self):
        if self.kind not in ("photon", "massive"):
            raise DomainError(f"dispersion kind must be 'photon' or 'massive', got {self.kind!r}")
        if self.kind == "massive":
            if self.mass is None or not self.mass > 0.0:
                raise DomainError("massive dispersion requires mass > 0")

    @property
    def internal_degeneracy(self) -> int:
        return 2 if self.kind == "photon" else 1

    @classmethod
    def photon(cls) -> "Dispersion":
        return cls(kind="photon")

    @classmethod
    def massive(cls, mass: float) -> "Dispersion":
        return cls(kind="massive", mass=mass)


@_finite
def _photon_prefactor(temperature, volume=1.0):
    """V (2/pi^2) T^3, the one place the photon cycle weight is written: V f_s is
    this over s**3, and the mean number V f_s / s of s-cycles this over s**4."""
    return volume * TWO_OVER_PI_SQUARED * temperature**3


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
def cycle_weight_by_quadrature(dispersion: Dispersion, state: ThermoState, s: int) -> float:
    """Numerical momentum integral g * int exp(-beta*energy(p)*s) 4 pi p^2 dp/(2 pi)^3.

    The substitution u = beta * energy(p) * s removes every parameter from
    the quadrature itself, so the accuracy is uniform in s and T; the
    remaining scale factor is exact arithmetic.  Serves as the independent
    oracle for the two closed-form weights.
    """
    s = _require_integer("cycle size s", s, 1)
    g = dispersion.internal_degeneracy
    beta = state.beta
    if dispersion.kind == "photon":
        # p = u/(beta s):  p^2 dp -> (beta s)^-3 u^2 du
        moment = _exp_moment(2.0)
        return g / (2.0 * math.pi**2) * (state.temperature / s) ** 3 * moment
    # u = beta s p^2/(2m):  p^2 dp -> (2m/(beta s))^(3/2) sqrt(u)/2 du
    moment = _exp_moment(0.5)
    return g / (4.0 * math.pi**2) * (2.0 * dispersion.mass / (beta * s)) ** 1.5 * moment


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
