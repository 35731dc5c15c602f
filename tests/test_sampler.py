import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from cyclegas.core import DomainError, SizeError, ThermoState
from cyclegas.cycle_weights import TWO_OVER_PI_SQUARED, _photon_cycle_means
from cyclegas.sampler import (
    SAMPLE_SIZE_LIMIT,
    SampleConfig,
    estimate_observables,
    histogram_loglog_slope,
    sample_cycle_configuration,
    stream,
    _draw,
    _rekey,
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

    def test_streams_are_replica_and_seed_specific(self):
        # (seed, replica) are the two key words: every pair owns its own stream
        keys = list(itertools.product((0, 1, 2**64 - 1), (0, 1, 2, 2**32 - 1)))
        first = {key: stream(*key).bit_generator.random_raw(4).tolist() for key in keys}
        assert len({tuple(words) for words in first.values()}) == len(keys)
        for key in keys:
            assert stream(*key).bit_generator.random_raw(4).tolist() == first[key]
        # a seed past 64 bits would alias the key of another (seed, replica)
        for key in ((2**64, 0), (-1, 0), (0, -1), (0, 2**64)):
            with pytest.raises(DomainError):
                stream(*key)

    @pytest.mark.parametrize("seed", [0, 77, 2**64 - 1])
    def test_rekey_restarts_a_fresh_philox_stream(self, seed):
        # a re-keyed generator replays Philox(key=seed | replica << 64) from its
        # first word, also after draws that left its buffer part-used
        used = stream(seed, 0)
        for replica in (0, 1, 199):
            expected = np.random.Philox(key=seed | replica << 64).random_raw(8).tolist()
            assert stream(seed, replica).bit_generator.random_raw(8).tolist() == expected
            used.gamma(3 * used.poisson(np.full(10, 2.5)).sum() + 1.0, 1.3)
            assert used.bit_generator.state["buffer_pos"] < 4
            _rekey(used.bit_generator, seed, replica)
            assert used.bit_generator.random_raw(8).tolist() == expected

    def test_one_philox_per_call(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        estimate_observables(SampleConfig(seed=3, replicas=200, s_max=10, state=ThermoState(1.0, 50.0)))
        assert len(built) == 1

    def test_replica_draw_follows_the_stream_contract(self):
        # in the replica's stream: the Poisson vector in one call, then one Gamma(3K, T) energy
        config = SampleConfig(seed=77, replicas=8, s_max=15, state=ThermoState(1.2, 40.0))
        lam = _photon_cycle_means(config.state, config.s_max)
        rng = stream(77, 5)
        xi = rng.poisson(lam)
        energy = rng.gamma(3 * xi.sum(), 1.2)
        drawn_xi, drawn_energy = _draw(stream(config.seed, 5), lam, config.state.temperature)
        assert drawn_xi.tolist() == xi.tolist() and drawn_energy == energy

    def test_configurations_reproduce_the_report(self):
        # replica r of the report draws exactly the configuration sample_cycle_configuration returns
        config = SampleConfig(seed=2024, replicas=40, s_max=12, state=ThermoState(1.0, 300.0))
        report = estimate_observables(config)
        histogram = {}
        totals = []
        for replica in range(config.replicas):
            xi = sample_cycle_configuration(config, replica)
            for s, n in xi.items():
                histogram[s] = histogram.get(s, 0) + s * n
            totals.append(sum(s * n for s, n in xi.items()))
        assert histogram == report.histogram
        assert sum(totals) / config.replicas == report.estimates["photon_number"]["mean"]

    def test_numpy_integer_fields(self):
        state = ThermoState(1.0, 50.0)
        plain = SampleConfig(seed=2**64 - 1, replicas=3, s_max=10, state=state)
        from_numpy = SampleConfig(seed=np.uint64(2**64 - 1), replicas=np.int64(3), s_max=np.int32(10), state=state)
        assert estimate_observables(from_numpy).to_json() == estimate_observables(plain).to_json()

    def test_replica_order_independence(self):
        # replica draws depend only on (seed, replica), not on history
        config = SampleConfig(seed=11, replicas=3, s_max=8, state=ThermoState(1.0, 30.0))
        direct = [sample_cycle_configuration(config, replica=r) for r in (0, 1, 2)]
        reversed_order = {r: sample_cycle_configuration(config, replica=r) for r in (2, 1, 0)}
        for r in (0, 1, 2):
            assert direct[r] == reversed_order[r]


class TestCycleConfiguration:
    def test_distribution_satisfies_constraint(self):
        config = SampleConfig(seed=5, replicas=1, s_max=30, state=ThermoState(1.0, 200.0))
        xi = sample_cycle_configuration(config)
        assert all(s >= 1 and n >= 1 for s, n in xi.items())
        assert sum(s * n for s, n in xi.items()) > 0

    def test_negligible_volume_gives_empty_system(self):
        config = SampleConfig(seed=5, replicas=1, s_max=50, state=ThermoState(1.0, 1e-300))
        assert sample_cycle_configuration(config) == {}

    def test_poisson_mean_of_single_cycles(self):
        state = ThermoState(1.0, 10.0)
        config = SampleConfig(seed=7, replicas=1, s_max=4, state=state)
        lam = state.volume * TWO_OVER_PI_SQUARED
        draws = np.array(
            [sample_cycle_configuration(config, replica=r).get(1, 0) for r in range(800)]
        )
        se = math.sqrt(lam / draws.size)
        assert abs(draws.mean() - lam) <= 5.0 * se

    def test_mean_counts_follow_inverse_fourth_power(self):
        config = SampleConfig(seed=0, replicas=1, s_max=10, state=ThermoState(1.0, 3.0))
        lam = _photon_cycle_means(config.state, config.s_max)
        assert rel(lam[0], 3.0 * TWO_OVER_PI_SQUARED) <= 1e-15
        for s in range(1, 11):
            assert rel(lam[s - 1] * s**4, lam[0]) <= 1e-13


@pytest.fixture(scope="module")
def replica_draws():
    # about 2.2 cycles per replica, so about one replica in nine draws none
    config = SampleConfig(seed=2718, replicas=6000, s_max=20, state=ThermoState(1.3, 4.55))
    lam = _photon_cycle_means(config.state, config.s_max)
    draws = [_draw(stream(config.seed, r), lam, config.state.temperature) for r in range(config.replicas)]
    counts = np.array([xi.sum() for xi, _energy in draws])
    energies = np.array([energy for _xi, energy in draws])
    return config.state.temperature, counts, energies


class TestCycleEnergy:
    def test_energy_given_cycle_count_is_gamma(self, replica_draws):
        # K cycles of Gamma(3, beta) energy sum to Gamma(3K, beta): the
        # probability transform of E given K must be uniform
        temperature, counts, energies = replica_draws
        drawn = counts > 0
        assert drawn.sum() >= 5000
        u = scipy.stats.gamma.cdf(energies[drawn] / temperature, 3 * counts[drawn])
        assert scipy.stats.kstest(u, "uniform").pvalue > 0.01

    def test_energy_is_positive_exactly_when_cycles_exist(self, replica_draws):
        _temperature, counts, energies = replica_draws
        assert (counts == 0).any() and (counts > 0).any()
        assert np.all(energies[counts > 0] > 0.0)
        assert np.all(energies[counts == 0] == 0.0)

    def test_huge_volume_in_constant_memory(self):
        # one Poisson vector and one energy per replica: nothing scales with V
        config = SampleConfig(seed=4093, replicas=200, s_max=50, state=ThermoState(1.0, 1e9))
        tracemalloc.start()
        try:
            report = estimate_observables(config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        lam = _photon_cycle_means(config.state, config.s_max)
        target = 3.0 * config.state.temperature * float(np.sum(lam))
        est = report.estimates["total_energy"]
        assert abs(est["mean"] - target) <= 5.0 * est["se"]

    def test_memory_grows_with_replicas_plus_s_max_not_their_product(self):
        # a replicas x s_max block of counts would take 80 MB here
        config = SampleConfig(seed=8, replicas=1000, s_max=10**4, state=ThermoState(1.0, 1e3))
        tracemalloc.start()
        try:
            estimate_observables(config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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
        lam = _photon_cycle_means(state, 50)
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

    @pytest.mark.parametrize("volume", [5.0, 500.0])
    def test_variance_error_bar_matches_its_spread(self, volume):
        # se of var_e, averaged over independent estimates, is the spread of
        # var_e; at V = 5, about one cycle per replica, the kurtosis term of
        # se is as large as the Gaussian one, at V = 500 it is 1%
        state = ThermoState(1.0, volume)
        estimates = [
            estimate_observables(SampleConfig(seed=seed, replicas=30, s_max=20, state=state)).estimates
            for seed in range(600)
        ]
        var = np.array([e["energy_variance"]["mean"] for e in estimates])
        se = np.array([e["energy_variance"]["se"] for e in estimates])
        spread = var.std(ddof=1)
        # relative standard error of a sample standard deviation
        tolerance = 5.0 * math.sqrt((scipy.stats.kurtosis(var) + 2.0) / (4.0 * var.size))
        assert abs(se.mean() / spread - 1.0) <= tolerance

    def test_histogram_chi_square_against_expected_cycles(self, report):
        rep, state = report
        replicas = rep.config["replicas"]
        lam = _photon_cycle_means(state, 50)
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

    @pytest.mark.parametrize(
        "field, value", [("seed", 1.5), ("seed", True), ("replicas", 2.5), ("replicas", 2.0), ("s_max", True)]
    )
    def test_integer_fields_reject_other_types(self, field, value):
        fields = {"seed": 0, "replicas": 2, "s_max": 5, "state": ThermoState(1.0)}
        fields[field] = value
        with pytest.raises(DomainError):
            SampleConfig(**fields)

    def test_size_limit(self):
        # at the limit numpy's Poisson still accepts lambda_1 and the int64
        # photon totals over all replicas do not wrap
        config = SampleConfig(seed=3, replicas=2, s_max=4, state=ThermoState(1.0, SAMPLE_SIZE_LIMIT / 2))
        report = estimate_observables(config)
        lam = _photon_cycle_means(config.state, config.s_max)
        expected = config.replicas * float(np.sum(lam * np.arange(1, 5)))
        assert len(report.histogram) == 4
        assert rel(sum(report.histogram.values()), expected) <= 1e-6
        assert rel(report.estimates["photon_number"]["mean"], expected / config.replicas) <= 1e-6

    @pytest.mark.parametrize(
        "replicas, state",
        [
            (2, ThermoState(1.0, float(np.nextafter(SAMPLE_SIZE_LIMIT / 2, np.inf)))),
            (1, ThermoState(1.0, 1e20)),
            (1, ThermoState(1e200, 1.0)),
        ],
    )
    def test_past_the_size_limit(self, replicas, state):
        with pytest.raises(SizeError):
            SampleConfig(seed=3, replicas=replicas, s_max=4, state=state)

    def test_photon_fugacity_must_be_one(self):
        # the cycle means V f_s / s carry no z**s, so any other fugacity would be ignored
        with pytest.raises(DomainError):
            SampleConfig(seed=0, replicas=1, s_max=5, state=ThermoState(1.0, 1.0, 0.5))
