import math

import mpmath
import numpy as np
import pytest

from cyclegas.core import DomainError, ThermoState
from cyclegas.observables import (
    DENSITY_CYCLE_SUM_S_MAX,
    BandSpec,
    band_fluctuation,
    coherence_volume_photon_count,
    energy_variance,
    energy_variance_finite_difference,
    mean_energy,
    mean_energy_finite_difference,
    photon_number_density,
    photon_number_density_cycle_sum,
    planck_spectral_density,
    spectral_energy_density_integral,
    wien_peak_x,
)
from cyclegas.partition import tail_bracket

T1V1 = ThermoState(1.0, 1.0)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestMeanEnergy:
    def test_stefan_boltzmann_value(self):
        assert rel(mean_energy(T1V1), math.pi**2 / 15.0) <= 1e-12

    def test_quartic_scaling_and_extensivity(self):
        base = mean_energy(T1V1)
        assert rel(mean_energy(ThermoState(2.0, 1.0)), 16.0 * base) <= 1e-14
        assert rel(mean_energy(ThermoState(1.0, 5.0)), 5.0 * base) <= 1e-14

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
    def test_finite_difference_oracle(self, temperature):
        state = ThermoState(temperature, 2.0)
        assert rel(mean_energy(state), mean_energy_finite_difference(state)) <= 1e-6


class TestPhotonDensity:
    def test_closed_form(self):
        assert rel(photon_number_density(T1V1), 0.2435876564671461) <= 1e-12

    def test_cycle_sum_route(self):
        assert rel(photon_number_density_cycle_sum(T1V1), photon_number_density(T1V1)) <= 1e-10

    def test_cycle_sum_matches_the_plain_loop(self):
        # the same closed sum added one term at a time, smallest first; the
        # vectorised sum may differ from it in the last bits only
        total = 0.0
        for s in range(DENSITY_CYCLE_SUM_S_MAX, 0, -1):
            total += 1.0 / float(s) ** 3
        lo, hi = tail_bracket(DENSITY_CYCLE_SUM_S_MAX, 3.0)
        reference = 2.0 / math.pi**2 * (total + 0.5 * (lo + hi))
        assert rel(photon_number_density_cycle_sum(T1V1), reference) <= 1e-15

    def test_cubic_scaling(self):
        assert rel(photon_number_density(ThermoState(2.0)), 8.0 * photon_number_density(T1V1)) <= 1e-14

    def test_fugacity_guard(self):
        with pytest.raises(DomainError):
            photon_number_density(ThermoState(1.0, fugacity=0.3))


class TestCoherenceVolumeCount:
    def test_temperature_independent_constant(self):
        reference = coherence_volume_photon_count(T1V1)
        assert rel(reference, 0.2435876564671461) <= 1e-12
        # T^3 underflows at 1e-120 and overflows at 1e150; the count needs neither
        for t in (1e-120, 0.01, 1.0, 100.0, 1e150):
            assert rel(coherence_volume_photon_count(ThermoState(t)), reference) <= 1e-12


class TestEnergyVariance:
    def test_analytic_value(self):
        report = energy_variance(T1V1)
        assert rel(report.variance, 4.0 * math.pi**2 / 15.0) <= 1e-12
        assert rel(report.mean_energy, math.pi**2 / 15.0) <= 1e-12

    def test_scaling_t5_v(self):
        assert rel(energy_variance(ThermoState(2.0, 1.0)).variance,
                   32.0 * energy_variance(T1V1).variance) <= 1e-14
        assert rel(energy_variance(ThermoState(1.0, 4.0)).variance,
                   4.0 * energy_variance(T1V1).variance) <= 1e-14

    def test_single_cycle_share(self):
        report = energy_variance(T1V1)
        assert rel(report.per_cycle_contribution[1], 12.0 * 2.0 / math.pi**2) <= 1e-13
        share = report.per_cycle_contribution[1] / report.variance
        assert rel(share, 0.9239384029215898) <= 1e-10  # = 1/zeta(4)

    def test_contributions_positive_and_decreasing(self):
        contributions = energy_variance(T1V1, s_max=40).per_cycle_contribution
        values = [contributions[s] for s in range(1, 41)]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
    def test_finite_difference_oracle(self, temperature):
        state = ThermoState(temperature, 1.5)
        report = energy_variance(state)
        assert rel(report.variance, energy_variance_finite_difference(state)) <= 1e-5

    @pytest.mark.parametrize("s_max", [0, -3, 2.5])
    def test_cutoff_validation(self, s_max):
        # a cutoff below 1 would return an empty share table
        with pytest.raises(DomainError):
            energy_variance(T1V1, s_max=s_max)

    def test_cycle_sum_plus_tail_reconstructs_variance(self):
        s_max = 100
        report = energy_variance(T1V1, s_max=s_max)
        partial = sum(report.per_cycle_contribution.values())
        lo, hi = tail_bracket(s_max, 4.0)
        tail = 12.0 * (2.0 / math.pi**2) * 0.5 * (lo + hi)
        assert rel(partial + tail, report.variance) <= 1e-9


class TestBandFluctuation:
    def test_hand_computed_chain(self):
        # h*nu = 2, 10 modes: occupation n = 1/(e^2 - 1)
        band = BandSpec.from_mode_count(nu=1.0 / math.pi, delta_nu=0.1 / math.pi, mode_count=10.0)
        assert rel(band.mode_count(), 10.0) <= 1e-13
        relative, wave, particle = band_fluctuation(T1V1, band)
        n = 1.0 / (math.exp(2.0) - 1.0)
        assert rel(particle, 1.0 / (10.0 * n)) <= 1e-13
        assert rel(particle, 0.6389056098930651) <= 1e-12
        assert wave == 0.1
        assert rel(relative, 0.7389056098930652) <= 1e-12

    def test_identity_is_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            t = float(rng.uniform(0.2, 5.0))
            nu = float(rng.uniform(0.05, 5.0))
            modes = float(rng.uniform(1.0, 1e5))
            band = BandSpec.from_mode_count(nu, 0.05 * nu, modes)
            relative, wave, particle = band_fluctuation(ThermoState(t), band)
            assert abs(particle + wave - relative) <= 1e-12 * relative

    def test_wien_limit_particle_dominated(self):
        # h*nu/kT = 20
        band = BandSpec.from_mode_count(nu=20.0 / (2.0 * math.pi), delta_nu=0.1, mode_count=100.0)
        _, wave, particle = band_fluctuation(T1V1, band)
        assert particle / wave > 1e3

    def test_rayleigh_jeans_limit_wave_dominated(self):
        # h*nu/kT = 0.01: n ~ kT/h nu >> 1, particle term ~ x * wave term
        x = 0.01
        band = BandSpec.from_mode_count(nu=x / (2.0 * math.pi), delta_nu=x / 100.0, mode_count=50.0)
        relative, wave, particle = band_fluctuation(T1V1, band)
        assert particle < 0.02 * wave
        assert rel(relative, wave) <= 0.011

    def test_degenerate_band_rejected(self):
        band = BandSpec(nu=1.0, delta_nu=0.01, volume=1e-3)
        assert band.mode_count() < 1.0
        with pytest.raises(DomainError):
            band_fluctuation(T1V1, band)

    def test_band_spec_validation(self):
        with pytest.raises(DomainError):
            BandSpec(nu=1.0, delta_nu=0.5, volume=1.0)  # not narrow
        with pytest.raises(DomainError):
            BandSpec(nu=-1.0, delta_nu=0.01, volume=1.0)


class TestPlanckSpectrum:
    def test_rayleigh_jeans_limit(self):
        nu = 1e-6
        classical = 8.0 * math.pi * nu**2 * 1.0  # 8 pi nu^2 k T with c = 1
        assert rel(planck_spectral_density(T1V1, nu), classical) <= 1e-5

    def test_spectral_integral_reproduces_energy_density(self):
        for t in (0.5, 1.0, 3.0):
            state = ThermoState(t, 1.0)
            assert rel(spectral_energy_density_integral(state), mean_energy(state)) <= 1e-8

    def test_wien_peak_location(self):
        # grid-argmax oracle for the maximum of x^3/(e^x - 1)
        x = np.linspace(2.5, 3.2, 200001)
        oracle = x[np.argmax(x**3 / np.expm1(x))]
        peak = wien_peak_x()
        assert abs(peak - oracle) <= 1e-5
        assert rel(peak, 2.8214393721220787) <= 1e-10

    def test_peak_matches_spectrum(self):
        # u(nu) peaks where x = 2 pi nu / T equals the Wien constant
        t = 2.7
        x_star = wien_peak_x()
        nu_star = x_star * t / (2.0 * math.pi)
        u_star = planck_spectral_density(ThermoState(t), nu_star)
        for shift in (0.999, 1.001):
            assert planck_spectral_density(ThermoState(t), shift * nu_star) < u_star

    def test_wien_tail_stays_finite(self):
        # h nu / kT = 1257: e^x overflows, the density itself underflows
        u = planck_spectral_density(ThermoState(1.0), 200.0)
        assert math.isfinite(u) and u >= 0.0

    @pytest.mark.parametrize("t", [1e50, 1e150, 1e200])
    @pytest.mark.parametrize("x", [750.0, 800.0])
    def test_wien_tail_past_the_occupation_underflow(self, t, x):
        # e^-x is 0 here, but 16 pi^2 nu^3 e^-x is a normal double (5.1e-168 at T = 1e50,
        # x = 750); the reference takes the x the function forms, since u is x times
        # as sensitive to it as to nu
        nu = x * t / (2.0 * math.pi)
        x_formed = 2.0 * math.pi * nu / t
        assert math.exp(-x_formed) == 0.0
        with mpmath.workdps(40):
            exact = 16 * mpmath.pi**2 * mpmath.mpf(nu) ** 3 / mpmath.expm1(mpmath.mpf(x_formed))
            assert rel(planck_spectral_density(ThermoState(t), nu), exact) <= 1e-13

    def test_frequency_validation(self):
        with pytest.raises(DomainError):
            planck_spectral_density(T1V1, 0.0)
