"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py -v` to see one pass/fail line
per criterion.  The whole module finishes in well under a minute.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import cyclegas as cg
from cyclegas import ThermoState
from cyclegas.cycle_weights import TWO_OVER_PI_SQUARED

SEED = 20260811


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    print(f"criterion {number:2d} PASS  {label}")


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture(scope="module")
def mc_report():
    # replicas * V = 4e6 puts >= 1e3 photons in every bin up to s = 8 and
    # close to 1e6 sampled cycles in total
    state = ThermoState(1.0, 2.0e4)
    config = cg.SampleConfig(seed=SEED, replicas=200, s_max=50, state=state)
    return cg.estimate_observables(config), config


def test_criterion_1_zeta_form_identity():
    with criterion(1, "log Z: integral route == cycle series (zeta identity)"):
        for temperature in (0.1, 1.0, 10.0):
            for volume in (1.0, 10.0):
                state = ThermoState(temperature, volume)
                integral = cg.log_grand_partition_integral(state)
                series = cg.log_grand_partition_cycle_series(state)
                assert rel(series, integral) <= 1e-10
        assert rel(cg.log_grand_partition_integral(ThermoState(1.0, 1.0)), math.pi**2 / 45.0) <= 1e-10


def test_criterion_2_product_form_convergence():
    with criterion(2, "product form: monotone, certified tail, 2e-6 at s_max=50"):
        state = ThermoState(1.0, 1.0)
        products = np.exp(cg.log_grand_partition_product_form(state, 50))
        assert np.all(np.diff(products) > 0.0)
        log_z = cg.log_grand_partition_cycle_series(state)
        deficit = log_z - math.log(products[-1])
        lo, hi = cg.tail_bracket(50, 4.0)
        assert TWO_OVER_PI_SQUARED * lo <= deficit <= TWO_OVER_PI_SQUARED * hi
        z = math.exp(log_z)
        assert 0.0 < (z - products[-1]) / z <= 2e-6


def test_criterion_3_combinatorial_canonical_form():
    with criterion(3, "canonical form: enumeration == recursion, counts == N!"):
        # the counting identity, checked directly in integer arithmetic
        for n in range(0, 26):
            fact = math.factorial(n)
            total = 0
            for ctype in cg.cycle_types(n):
                denominator = 1
                for s, xi in ctype:
                    denominator *= math.factorial(xi) * s**xi
                assert fact % denominator == 0
                total += fact // denominator
            assert total == fact
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            sums = cg.CycleSumSequence(values=rng.uniform(0.05, 3.0, size=25))
            for n in range(0, 26):
                enumerated, _ = cg.canonical_partition_enumerated(sums, n)
                recursive = cg.canonical_partition_table(sums, n)[n]
                assert rel(enumerated, recursive) <= 1e-12


def test_criterion_4_oracle_triple_agreement():
    with criterion(4, "oracle: occupation == cycle types == recursion; grand forms"):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(50):
            n_modes = int(rng.integers(1, 7))
            spectrum = cg.ModeSpectrum.from_modes(
                rng.uniform(0.05, 3.0, size=n_modes), rng.integers(1, 4, size=n_modes)
            )
            n = int(rng.integers(0, 9))
            for beta in (0.5, 1.0, 2.0):
                occupation = cg.canonical_by_occupation(spectrum, n, beta)
                permutation = cg.canonical_by_permutations(spectrum, n, beta)
                recursion = cg.canonical_partition_table(spectrum.cycle_sums(beta, max(n, 1)), n)[n]
                assert rel(permutation, occupation) <= 1e-12
                assert rel(recursion, occupation) <= 1e-12
                assert rel(recursion, permutation) <= 1e-12
                # z chosen so z * exp(-beta e_min) sits at the 0.9 margin
                z = 0.89 * math.exp(beta * float(spectrum.energies[0]))
                product = cg.grand_partition_product(spectrum, z, beta)
                cycle = cg.grand_partition_cycle(spectrum, z, beta)
                assert rel(cycle, product) <= 1e-10


def test_criterion_5_bose_distribution_reproduction():
    with criterion(5, "massive cycle sum == Bose-Einstein momentum integral"):
        mass = 2.0 * math.pi
        for z in (0.1, 0.5, 0.9, 1.0):
            state = ThermoState(1.0, fugacity=z)
            cycle = cg.bose_number_density_cycle(state, mass)
            integral = cg.bose_number_density_integral(state, mass)
            assert rel(cycle, integral) <= 1e-8
        reference = cg.bose_number_density_cycle(ThermoState(1.0, fugacity=0.5), mass)
        assert abs(reference - 0.62484) <= 1e-5


def test_criterion_6_stefan_boltzmann_closure():
    with criterion(6, "energy density pi^2/15 T^4 from cycle and spectral routes"):
        for temperature in (0.5, 1.0, 2.0):
            state = ThermoState(temperature, 1.0)
            target = math.pi**2 / 15.0 * temperature**4
            cycle_route = 3.0 * temperature * cg.log_grand_partition_cycle_series(state)
            spectral_route = cg.spectral_energy_density_integral(state)
            assert rel(cycle_route, target) <= 1e-8
            assert rel(spectral_route, target) <= 1e-8
        assert rel(cg.mean_energy(ThermoState(1.0, 1.0)), 0.6579736267392905) <= 1e-8


def test_criterion_7_photon_density():
    with criterion(7, "photon density: closed form == cycle sum; coherence count"):
        state = ThermoState(1.0)
        closed = cg.photon_number_density(state)
        summed = cg.photon_number_density_cycle_sum(state)
        assert rel(summed, closed) <= 1e-10
        assert rel(closed, TWO_OVER_PI_SQUARED * cg.riemann_zeta(3.0)) <= 1e-12
        counts = [cg.coherence_volume_photon_count(ThermoState(t)) for t in (0.01, 1.0, 100.0)]
        for count in counts:
            assert rel(count, closed) <= 1e-10
        # the computed constant is 0.2436, "order unity" only loosely
        assert abs(counts[0] - 0.2435876564671461) <= 1e-10


def test_criterion_8_fluctuation_identity():
    with criterion(8, "band fluctuation: wave + particle == relative, exact"):
        rng = np.random.default_rng(SEED + 8)
        for _ in range(1000):
            t = float(rng.uniform(0.1, 10.0))
            nu = float(rng.uniform(0.02, 8.0))
            modes = float(rng.uniform(1.0, 1e6))
            band = cg.BandSpec.from_mode_count(nu, 0.08 * nu, modes)
            relative, wave, particle = cg.band_fluctuation(ThermoState(t), band)
            assert abs(particle + wave - relative) <= 1e-12 * relative
        wien = cg.BandSpec.from_mode_count(20.0 / (2.0 * math.pi), 0.1, 100.0)
        _, wave, particle = cg.band_fluctuation(ThermoState(1.0), wien)
        assert particle / wave > 1e3
        rayleigh = cg.BandSpec.from_mode_count(0.01 / (2.0 * math.pi), 1e-5, 100.0)
        _, wave, particle = cg.band_fluctuation(ThermoState(1.0), rayleigh)
        assert wave / particle > 90.0


def test_criterion_9_variance_ground_truth(mc_report):
    with criterion(9, "variance: 12 T^2 V sum f_s/s vs finite difference and MC"):
        state = ThermoState(1.0, 1.0)
        report = cg.energy_variance(state)
        assert rel(report.variance, 4.0 * math.pi**2 / 15.0) <= 1e-12
        for temperature in (0.5, 1.0, 2.0):
            st = ThermoState(temperature, 1.0)
            analytic = cg.energy_variance(st).variance
            stencil = cg.energy_variance_finite_difference(st)
            assert rel(analytic, stencil) <= 1e-5
        sampled, config = mc_report
        s = np.arange(1, config.s_max + 1, dtype=float)
        truncated = 12.0 * config.state.volume * TWO_OVER_PI_SQUARED * float(np.sum(s**-4.0))
        estimate = sampled.estimates["energy_variance"]
        assert abs(estimate["mean"] - truncated) <= 5.0 * estimate["se"]


def test_criterion_10_inverse_cube_photon_distribution(mc_report):
    with criterion(10, "photon histogram slope -3 +- 0.05; photon decay dominance"):
        sampled, _config = mc_report
        for s in range(1, 9):
            assert sampled.histogram[s] >= 1000
        slope = cg.histogram_loglog_slope(sampled.histogram)
        assert abs(slope + 3.0) <= 0.05
        rows = cg.decay_comparison(32)
        assert np.all(rows[1:, 1] < rows[1:, 2])


def test_criterion_11_sampler_determinism():
    with criterion(11, "identical seed -> bit-identical sampler JSON, twice"):
        state = ThermoState(1.0, 100.0)
        config = cg.SampleConfig(seed=424242, replicas=20, s_max=30, state=state)
        first = cg.estimate_observables(config).to_json()
        second = cg.estimate_observables(config).to_json()
        assert first == second
        assert first.startswith('{"estimates"')
