import math

import numpy as np
import pytest

from cyclegas.core import ConvergenceError, DomainError, SizeError, ThermoState
from cyclegas.cycle_weights import photon_cycle_weight
from cyclegas.oracle import (
    ModeSpectrum,
    canonical_by_occupation,
    canonical_by_permutations,
    grand_partition_cycle,
    grand_partition_product,
    load_spectrum,
)
from cyclegas.partition import canonical_partition_table, grand_partition_from_canonical


def rel(a, b):
    return abs(a - b) / abs(b)


class TestGrandPartitionProduct:
    def test_two_mode_example(self):
        spectrum = ModeSpectrum.from_modes([1.0, 2.0])
        value = grand_partition_product(spectrum, 0.5, 1.0)
        by_hand = 1.0 / ((1.0 - 0.5 * math.exp(-1.0)) * (1.0 - 0.5 * math.exp(-2.0)))
        assert rel(value, by_hand) <= 1e-15
        assert rel(value, 1.3143378137036512) <= 1e-14

    def test_vacuum(self):
        spectrum = ModeSpectrum.from_modes([0.4, 1.1, 3.0])
        assert grand_partition_product(spectrum, 0.0, 1.0) == 1.0

    def test_frozen_mode_at_large_beta(self):
        spectrum = ModeSpectrum.from_modes([1.0])
        assert rel(grand_partition_product(spectrum, 0.5, 1e3), 1.0) <= 1e-15

    def test_divergence_guard(self):
        spectrum = ModeSpectrum.from_modes([0.0, 1.0])
        with pytest.raises(DomainError):
            grand_partition_product(spectrum, 1.0, 1.0)


class TestGrandPartitionCycle:
    def test_matches_product(self):
        spectrum = ModeSpectrum.from_modes([1.0, 2.0])
        cycle = grand_partition_cycle(spectrum, 0.5, 1.0)
        product = grand_partition_product(spectrum, 0.5, 1.0)
        assert rel(cycle, product) <= 1e-10

    def test_single_mode_log_series(self):
        # one mode: the cycle sum is the Mercator series of -ln(1 - q)
        q = 0.5 * math.exp(-1.0)
        oracle = math.exp(sum(q**s / s for s in range(1, 31)))
        value = grand_partition_cycle(ModeSpectrum.from_modes([1.0]), 0.5, 1.0)
        assert rel(value, oracle) <= 1e-10
        assert rel(value, 1.2253996735605641) <= 1e-10

    def test_vacuum(self):
        assert grand_partition_cycle(ModeSpectrum.from_modes([1.0]), 0.0, 1.0) == 1.0

    def test_margin_guard(self):
        spectrum = ModeSpectrum.from_modes([0.01])
        with pytest.raises(ConvergenceError):
            grand_partition_cycle(spectrum, 0.999, 0.1)


class TestCanonicalByOccupation:
    def test_two_mode_hand_sum(self):
        spectrum = ModeSpectrum.from_modes([0.0, 1.0])
        value = canonical_by_occupation(spectrum, 2, 1.0)
        assert rel(value, 1.0 + math.exp(-1.0) + math.exp(-2.0)) <= 1e-15

    def test_n_zero(self):
        spectrum = ModeSpectrum.from_modes([0.7])
        assert canonical_by_occupation(spectrum, 0, 2.0) == 1.0

    def test_single_mode(self):
        spectrum = ModeSpectrum.from_modes([1.0])
        assert rel(canonical_by_occupation(spectrum, 3, 1.0), math.exp(-3.0)) <= 1e-15

    def test_enumeration_bound(self):
        spectrum = ModeSpectrum.from_modes(np.linspace(0.1, 3.0, 40))
        with pytest.raises(SizeError):
            canonical_by_occupation(spectrum, 40, 1.0)

    def test_thousands_of_modes(self):
        # one recursion level per mode would pass Python's recursion limit here
        spectrum = ModeSpectrum.from_modes(np.linspace(0.1, 1.0, 1500), np.full(1500, 2))
        recursion = canonical_partition_table(spectrum.cycle_sums(1.0, 2), 2)[2]
        assert rel(canonical_by_occupation(spectrum, 2, 1.0), recursion) <= 1e-12


class TestCanonicalByPermutations:
    def test_two_mode_cycle_type_sum(self):
        spectrum = ModeSpectrum.from_modes([0.0, 1.0])
        c1 = 1.0 + math.exp(-1.0)
        c2 = 1.0 + math.exp(-2.0)
        value = canonical_by_permutations(spectrum, 2, 1.0)
        assert rel(value, 0.5 * c1**2 + 0.5 * c2) <= 1e-15
        assert rel(value, canonical_by_occupation(spectrum, 2, 1.0)) <= 1e-12

    def test_three_particles_vs_occupation(self):
        spectrum = ModeSpectrum.from_modes([0.0, 1.0])
        assert rel(
            canonical_by_permutations(spectrum, 3, 1.0),
            canonical_by_occupation(spectrum, 3, 1.0),
        ) <= 1e-12

    def test_single_particle_is_c1(self):
        spectrum = ModeSpectrum.from_modes([0.3, 0.9], [2, 1])
        expected = 2.0 * math.exp(-0.3) + math.exp(-0.9)
        assert rel(canonical_by_permutations(spectrum, 1, 1.0), expected) <= 1e-15

    def test_size_limit(self):
        spectrum = ModeSpectrum.from_modes([1.0])
        with pytest.raises(SizeError):
            canonical_by_permutations(spectrum, 26, 1.0)


class TestTripleAgreement:
    def test_fifty_random_spectra(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_modes = int(rng.integers(1, 7))
            spectrum = ModeSpectrum.from_modes(
                rng.uniform(0.05, 3.0, size=n_modes), rng.integers(1, 4, size=n_modes)
            )
            n = int(rng.integers(0, 9))
            for beta in (0.5, 1.0, 2.0):
                occupation = canonical_by_occupation(spectrum, n, beta)
                permutation = canonical_by_permutations(spectrum, n, beta)
                recursion = canonical_partition_table(spectrum.cycle_sums(beta, max(n, 1)), n)[n]
                assert rel(permutation, occupation) <= 1e-12
                assert rel(recursion, occupation) <= 1e-12


class TestGrandCanonicalBridge:
    def test_occupation_route_matches_product(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            n_modes = int(rng.integers(1, 4))
            spectrum = ModeSpectrum.from_modes(rng.uniform(0.5, 2.0, size=n_modes))
            beta = 1.0
            z = 0.5 * math.exp(beta * float(spectrum.energies[0]))
            z = min(z, 0.8)
            # sum_N z^N Z_N with Z_N by direct occupation enumeration
            total = 0.0
            for n in range(0, 40):
                term = z**n * canonical_by_occupation(spectrum, n, beta)
                total += term
                if n > 5 and term < 1e-16 * total:
                    break
            product = grand_partition_product(spectrum, z, beta)
            assert rel(total, product) <= 1e-10

    def test_recursion_route_matches_product(self):
        spectrum = ModeSpectrum.from_modes([0.4, 1.3, 2.2], [1, 2, 1])
        beta = 0.8
        sums = spectrum.cycle_sums(beta, 120)
        lhs = grand_partition_from_canonical(sums, 0.6)
        rhs = grand_partition_product(spectrum, 0.6, beta)
        assert rel(lhs, rhs) <= 1e-10


class TestDegeneracyConsistency:
    def test_degenerate_mode_equals_repeated_modes(self):
        doubled = ModeSpectrum.from_modes([0.5, 1.5], [2, 1])
        repeated = ModeSpectrum.from_modes([0.5, 0.5, 1.5])
        assert grand_partition_product(doubled, 0.4, 1.0) == grand_partition_product(repeated, 0.4, 1.0)
        assert grand_partition_cycle(doubled, 0.4, 1.0) == grand_partition_cycle(repeated, 0.4, 1.0)
        for n in range(0, 5):
            assert canonical_by_occupation(doubled, n, 1.0) == canonical_by_occupation(repeated, n, 1.0)
            assert canonical_by_permutations(doubled, n, 1.0) == canonical_by_permutations(repeated, n, 1.0)


class TestSpectrumFile:
    def test_load_with_comments_and_defaults(self, tmp_path):
        path = tmp_path / "modes.txt"
        path.write_text(
            "# toy spectrum\n"
            "1.5 2   # doubly degenerate\n"
            "\n"
            "0.5\n"
            "2.5 1\n"
        )
        spectrum = load_spectrum(path)
        np.testing.assert_array_equal(spectrum.energies, [0.5, 1.5, 2.5])
        np.testing.assert_array_equal(spectrum.degeneracies, [1, 2, 1])

    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2 3\n")
        with pytest.raises(ValueError):
            load_spectrum(path)
        path.write_text("not-a-number\n")
        with pytest.raises(ValueError):
            load_spectrum(path)
        path.write_text("# only comments\n")
        with pytest.raises(ValueError):
            load_spectrum(path)


class TestModeSpectrumValidation:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ModeSpectrum(energies=np.array([2.0, 1.0]), degeneracies=np.array([1, 1]))
        with pytest.raises(DomainError):
            ModeSpectrum(energies=np.array([-1.0]), degeneracies=np.array([1]))
        with pytest.raises(DomainError):
            ModeSpectrum(energies=np.array([1.0]), degeneracies=np.array([0]))
        with pytest.raises(DomainError):
            ModeSpectrum(energies=np.array([]), degeneracies=np.array([]))

    def test_from_modes_sorts(self):
        spectrum = ModeSpectrum.from_modes([2.0, 1.0], [3, 4])
        np.testing.assert_array_equal(spectrum.energies, [1.0, 2.0])
        np.testing.assert_array_equal(spectrum.degeneracies, [4, 3])


class TestContinuumBridge:
    def test_dense_photon_spectrum_approximates_cycle_weights(self):
        # shell-discretized photon box: e_k = k dp, g_k = round(V e_k^2 dp / pi^2)
        # (two helicities included); its cycle sums approach V f_s for fine dp
        volume = 1e6
        dp = 0.005
        k = np.arange(1, int(40.0 / dp) + 1)
        energies = k * dp
        degeneracies = np.rint(volume * energies**2 * dp / math.pi**2).astype(int)
        keep = degeneracies >= 1
        spectrum = ModeSpectrum.from_modes(energies[keep], degeneracies[keep])
        state = ThermoState(1.0)
        sums = spectrum.cycle_sums(1.0, 3)
        for s in (1, 2, 3):
            continuum = volume * photon_cycle_weight(state, s)
            assert rel(sums[s], continuum) <= 0.01
