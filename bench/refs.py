"""Reference values computed with mpmath at 30 digits, independent of cyclegas.

Each function is the closed form (or a direct series) that the program's
output must match.  The SI constants are the exact 2019 defining values,
written out here rather than taken from the program.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

H = mp.mpf("6.62607015e-34")
C = mp.mpf("299792458")
KB = mp.mpf("1.380649e-23")
HBAR = H / (2 * mp.pi)
TWO_OVER_PI2 = 2 / mp.pi**2


def rel_dev(got, want) -> float:
    return float(abs(mp.mpf(got) - want) / abs(want))


def photon_weight(t, s):
    return TWO_OVER_PI2 * mp.mpf(t) ** 3 / mp.mpf(s) ** 3


def matter_weight(mass, t, s):
    return (mp.mpf(mass) * t / (2 * mp.pi)) ** mp.mpf(1.5) / mp.mpf(s) ** mp.mpf(1.5)


def log_z(t, v):
    return mp.mpf(v) * mp.pi**2 / 45 * mp.mpf(t) ** 3


def log_z_partial(t, v, s_max):
    """V (2/pi^2) T^3 sum_{s <= s_max} s^-4."""
    return mp.mpf(v) * TWO_OVER_PI2 * mp.mpf(t) ** 3 * (mp.zeta(4) - mp.zeta(4, s_max + 1))


def mean_energy(t, v):
    return mp.mpf(v) * mp.pi**2 / 15 * mp.mpf(t) ** 4


def energy_variance(t, v):
    return 4 * mp.pi**2 / 15 * mp.mpf(v) * mp.mpf(t) ** 5


def cycle_variance(t, v, s):
    """12 T^2 V f_s / s, the variance carried by s-cycles."""
    t = mp.mpf(t)
    return 12 * t**2 * mp.mpf(v) * TWO_OVER_PI2 * t**3 / mp.mpf(s) ** 4


def photon_density(t):
    return TWO_OVER_PI2 * mp.zeta(3) * mp.mpf(t) ** 3


def coherence_count():
    return TWO_OVER_PI2 * mp.zeta(3)


def band(t, nu, modes):
    """(relative, wave, particle) fluctuation of a band holding `modes` modes."""
    energy = 2 * mp.pi * mp.mpf(nu)
    occupation = 1 / mp.expm1(energy / t)
    mean = modes * energy * occupation
    variance = modes * energy**2 * occupation * (occupation + 1)
    return variance / mean**2, 1 / mp.mpf(modes), energy / mean


def band_modes(nu, delta_nu, volume):
    return 8 * mp.pi * mp.mpf(volume) * mp.mpf(nu) ** 2 * delta_nu


def planck(t, nu):
    nu = mp.mpf(nu)
    return 16 * mp.pi**2 * nu**3 / mp.expm1(2 * mp.pi * nu / t)


def planck_x(x):
    x = mp.mpf(x)
    return x**3 / mp.expm1(x)


def bose_density(t, mass, z):
    return (mp.mpf(mass) * t / (2 * mp.pi)) ** mp.mpf(1.5) * mp.polylog(mp.mpf(1.5), mp.mpf(z))


def photon_grand(t, v, z):
    """sum_N z^N Z_N for photon cycle sums C_s = V (2/pi^2) T^3 / s^3."""
    return mp.exp(mp.mpf(v) * TWO_OVER_PI2 * mp.mpf(t) ** 3 * mp.polylog(4, mp.mpf(z)))


def sampled_moments(t, v, s_max):
    """Expected total energy, photon number and energy variance of the cycles
    the sampler draws (sizes 1..s_max): cycle counts Poisson(V f_s / s), each
    cycle energy Gamma(3, T)."""
    t, v = mp.mpf(t), mp.mpf(v)
    scale = v * TWO_OVER_PI2 * t**3
    zeta_4 = mp.zeta(4) - mp.zeta(4, s_max + 1)
    zeta_3 = mp.zeta(3) - mp.zeta(3, s_max + 1)
    return 3 * t * scale * zeta_4, scale * zeta_3, 12 * t**2 * scale * zeta_4


def trap_ground_limit(energies, degeneracies, beta):
    """Large-N limit of Z_N with the lowest level at energy 0: the product
    over the excited modes of (1 - e^{-beta e})^(-g)."""
    log_total = mp.mpf(0)
    for e, g in zip(energies, degeneracies):
        if e > 0:
            log_total -= int(g) * mp.log(-mp.expm1(-mp.mpf(beta) * e))
    return mp.exp(log_total)


def canonical_by_series(energies, degeneracies, beta, n_max):
    """Z_0..Z_n_max as coefficients of prod_j (1 - x e^{-beta e_j})^(-g_j)."""
    coeffs = [mp.mpf(1)] + [mp.mpf(0)] * n_max
    for e, g in zip(energies, degeneracies):
        q = mp.exp(-mp.mpf(beta) * e)
        factor = [mp.binomial(int(g) + k - 1, k) * q**k for k in range(n_max + 1)]
        coeffs = [sum(coeffs[j] * factor[n - j] for j in range(n + 1)) for n in range(n_max + 1)]
    return coeffs


def si_photon_density(t_kelvin):
    """Photon number density in m^-3 at temperature t_kelvin."""
    return TWO_OVER_PI2 * mp.zeta(3) * (KB * mp.mpf(t_kelvin) / (HBAR * C)) ** 3


def si_planck(t_kelvin, x):
    """(nu in Hz, u_nu in J m^-3 Hz^-1) at h nu / k T = x."""
    nu = mp.mpf(x) * KB * t_kelvin / H
    return nu, 8 * mp.pi * H * nu**3 / C**3 / mp.expm1(x)
