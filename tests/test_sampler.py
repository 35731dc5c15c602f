import json
import math

import numpy as np
import pytest
import scipy.stats

from cyclegas.core import DomainError, ThermoState
from cyclegas.cycle_weights import TWO_OVER_PI_SQUARED
from cyclegas.sampler import (
    SampleConfig,
    cycle_mean_counts,
    estimate_observables,
    histogram_loglog_slope,
    sample_cycle_configuration,
    sample_cycle_energy,
    stream,
    _cycle_energies,
)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestDeterminism:
    def test_identical_seed_gives_bit_identical_report(self):
        config = SampleConfig(seed=37, replicas=10, s_max=20, state=ThermoState(1.0, 50.0))
        first = estimate_observables(config).to_json()
        second = estimate_observables(config).to_json()
        assert first == second

    def test_different_seed_differs(self):
        state = ThermoState(1.0, 50.0)
        a = estimate_observables(SampleConfig(seed=1, replicas=5, s_max=10, state=state))
        b = estimate_observables(SampleConfig(seed=2, replicas=5, s_max=10, state=state))
        assert a.to_json() != b.to_json()

    def test_streams_are_replica_and_size_specific(self):
        assert stream(0, 0, 1).random() != stream(0, 0, 2).random()
        assert stream(0, 0, 1).random() != stream(0, 1, 1).random()
        assert stream(0, 3, 5).random() == stream(0, 3, 5).random()

    def test_replica_order_independence(self):
        # replica draws depend only on (seed, replica, s), not on history
        config = SampleConfig(seed=11, replicas=3, s_max=8, state=ThermoState(1.0, 30.0))
        direct = [sample_cycle_configuration(config, replica=r).multiplicities for r in (0, 1, 2)]
        reversed_order = {r: sample_cycle_configuration(config, replica=r).multiplicities for r in (2, 1, 0)}
        for r in (0, 1, 2):
            assert direct[r] == reversed_order[r]


class TestCycleConfiguration:
    def test_distribution_satisfies_constraint(self):
        config = SampleConfig(seed=5, replicas=1, s_max=30, state=ThermoState(1.0, 200.0))
        dist = sample_cycle_configuration(config)
        assert sum(s * xi for s, xi in dist.multiplicities.items()) == dist.n_total
        assert dist.n_total > 0

    def test_negligible_volume_gives_empty_system(self):
        config = SampleConfig(seed=5, replicas=1, s_max=50, state=ThermoState(1.0, 1e-300))
        dist = sample_cycle_configuration(config)
        assert dist.multiplicities == {} and dist.n_total == 0

    def test_poisson_mean_of_single_cycles(self):
        state = ThermoState(1.0, 10.0)
        config = SampleConfig(seed=7, replicas=1, s_max=4, state=state)
        lam = state.volume * TWO_OVER_PI_SQUARED
        draws = np.array(
            [sample_cycle_configuration(config, replica=r).multiplicities.get(1, 0) for r in range(800)]
        )
        se = math.sqrt(lam / draws.size)
        assert abs(draws.mean() - lam) <= 5.0 * se

    def test_mean_counts_follow_inverse_fourth_power(self):
        config = SampleConfig(seed=0, replicas=1, s_max=10, state=ThermoState(1.0, 3.0))
        lam = cycle_mean_counts(config)
        assert rel(lam[0], 3.0 * TWO_OVER_PI_SQUARED) <= 1e-15
        for s in range(1, 11):
            assert rel(lam[s - 1] * s**4, lam[0]) <= 1e-13


class TestCycleEnergy:
    def test_scalar_and_vector_paths_share_the_stream(self):
        state = ThermoState(2.0)
        scalar = [sample_cycle_energy(3, state, stream(9, 0, 3)) for _ in range(1)]
        vector = _cycle_energies(1, state, stream(9, 0, 3))
        assert scalar[0] == vector[0]

    def test_gamma_moments(self):
        state = ThermoState(1.0)
        energies = _cycle_energies(200000, state, stream(123, 0, 1))
        # Gamma(3, beta): mean 3T, variance 3T^2
        assert abs(energies.mean() - 3.0) <= 5.0 * energies.std(ddof=1) / math.sqrt(energies.size)
        var = energies.var(ddof=1)
        se_var = var * math.sqrt(2.0 / (energies.size - 1)) * 2.0  # generous
        assert abs(var - 3.0) <= 5.0 * se_var

    def test_mean_energy_per_photon(self):
        state = ThermoState(1.0)
        energies = _cycle_energies(100000, state, stream(5, 0, 5))
        per_photon = energies / 5.0
        se = per_photon.std(ddof=1) / math.sqrt(per_photon.size)
        assert abs(per_photon.mean() - 3.0 / 5.0) <= 5.0 * se

    def test_s_independence_of_cycle_energy_mean(self):
        state = ThermoState(1.0)
        for s in (1, 2, 4, 8):
            energies = _cycle_energies(100000, state, stream(31, 0, s))
            se = energies.std(ddof=1) / math.sqrt(energies.size)
            assert abs(energies.mean() - 3.0) <= 5.0 * se

    def test_positive_and_seedable(self):
        value = sample_cycle_energy(1, ThermoState(0.5), stream(0, 0, 1))
        assert value > 0.0
        assert value == sample_cycle_energy(1, ThermoState(0.5), stream(0, 0, 1))

    def test_cycle_size_validation(self):
        with pytest.raises(DomainError):
            sample_cycle_energy(0, ThermoState(1.0), stream(0, 0, 1))


@pytest.fixture(scope="module")
def report():
    state = ThermoState(1.0, 1000.0)
    return estimate_observables(SampleConfig(seed=99, replicas=150, s_max=50, state=state)), state


class TestEstimates:

    def test_total_energy_brackets_analytic(self, report):
        rep, state = report
        target = state.volume * math.pi**2 / 15.0
        est = rep.estimates["total_energy"]
        assert abs(est["mean"] - target) <= 5.0 * est["se"]

    def test_photon_number_brackets_analytic(self, report):
        rep, state = report
        lam = cycle_mean_counts(SampleConfig(seed=0, replicas=1, s_max=50, state=state))
        target = float(np.sum(lam * np.arange(1, 51)))
        est = rep.estimates["photon_number"]
        assert abs(est["mean"] - target) <= 5.0 * est["se"]

    def test_energy_variance_brackets_analytic(self, report):
        rep, state = report
        target = 12.0 * state.volume * TWO_OVER_PI_SQUARED * float(
            np.sum(1.0 / np.arange(1, 51, dtype=float) ** 4)
        )
        est = rep.estimates["energy_variance"]
        assert abs(est["mean"] - target) <= 5.0 * est["se"]

    def test_histogram_chi_square_against_expected_cycles(self, report):
        rep, state = report
        replicas = rep.n_replicas
        lam = cycle_mean_counts(SampleConfig(seed=0, replicas=1, s_max=50, state=state))
        chi2 = 0.0
        bins = 0
        for s in range(1, 9):
            observed_cycles = rep.histogram.get(s, 0) / s
            expected = replicas * lam[s - 1]
            chi2 += (observed_cycles - expected) ** 2 / expected
            bins += 1
        assert scipy.stats.chi2.sf(chi2, bins) > 0.01

    def test_histogram_ratio_follows_cube_law(self, report):
        rep, _state = report
        ratio = rep.histogram[2] / rep.histogram[1]
        assert abs(ratio - 0.125) < 0.02

    def test_truncation_note(self, report):
        rep, state = report
        expected = state.volume * TWO_OVER_PI_SQUARED * (1.0 / (3.0 * 51.0**3) + 1.0 / (3.0 * 50.0**3)) / 2.0
        assert rel(rep.config["truncated_tail"], expected) <= 1e-12

    def test_json_schema(self, report):
        rep, _state = report
        parsed = json.loads(rep.to_json())
        assert set(parsed.keys()) == {"estimates", "histogram", "config"}
        for name in ("total_energy", "photon_number", "energy_variance"):
            assert set(parsed["estimates"][name].keys()) == {"mean", "se"}
        assert all(isinstance(v, int) for v in parsed["histogram"].values())
        assert parsed["config"]["seed"] == 99

    def test_histogram_csv(self, report):
        rep, _state = report
        lines = rep.histogram_csv().strip().split("\n")
        assert lines[0] == "s,photon_count"
        first = lines[1].split(",")
        assert int(first[0]) == 1 and int(first[1]) == rep.histogram[1]


class TestSlopeFit:
    def test_exact_cube_law_histogram(self):
        histogram = {s: int(round(1e9 / s**3)) for s in range(1, 9)}
        assert abs(histogram_loglog_slope(histogram) + 3.0) < 1e-3

    def test_needs_two_bins(self):
        with pytest.raises(DomainError):
            histogram_loglog_slope({1: 100})


class TestConfigValidation:
    def test_bounds(self):
        state = ThermoState(1.0)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, replicas=0, s_max=5, state=state)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, replicas=1, s_max=0, state=state)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_philox_key_range(self, seed):
        # the key holds seed mod 2**64, so -1 and 2**64 - 1 would share a stream
        SampleConfig(seed=2**64 - 1, replicas=1, s_max=5, state=ThermoState(1.0))
        with pytest.raises(DomainError):
            SampleConfig(seed=seed, replicas=1, s_max=5, state=ThermoState(1.0))

    def test_photon_fugacity_must_be_one(self):
        # the cycle means V f_s / s carry no z**s, so any other fugacity would be ignored
        with pytest.raises(DomainError):
            SampleConfig(seed=0, replicas=1, s_max=5, state=ThermoState(1.0, 1.0, 0.5))
