import contextlib
import io
import math

import mpmath
import numpy as np
import pytest

from cyclegas import cli
from cyclegas.core import ConvergenceError, DomainError, SizeError, ThermoState
from cyclegas.oracle import ModeSpectrum
from cyclegas.partition import (
    CYCLE_SERIES_S_MAX,
    GRAND_SUM_REL_CUTOFF,
    CycleSumSequence,
    bose_number_density_cycle,
    bose_number_density_integral,
    canonical_partition_enumerated,
    canonical_partition_table,
    cycle_types,
    grand_partition_from_canonical,
    log_grand_partition_cycle_series,
    log_grand_partition_integral,
    log_grand_partition_product_form,
    tail_bracket,
)

T1V1 = ThermoState(1.0, 1.0)
F1 = 2.0 / math.pi**2


def rel(a, b):
    return abs(a - b) / abs(b)


def exact_recursion(values, n_max):
    """Z_0..Z_{n_max} of Z_n = (1/n) sum_k C_k Z_{n-k} on the given doubles, in 30-digit mpmath."""
    with mpmath.workdps(30):
        c = [mpmath.mpf(float(x)) for x in values[:n_max]]
        z = [mpmath.mpf(1)]
        for n in range(1, n_max + 1):
            z.append(mpmath.fsum(c[k] * z[n - 1 - k] for k in range(n)) / n)
    return z


class TestLogPartitionRoutes:
    def test_integral_route_value(self):
        assert rel(log_grand_partition_integral(T1V1), math.pi**2 / 45.0) <= 1e-12

    def test_temperature_and_volume_scaling(self):
        base = log_grand_partition_integral(T1V1)
        assert rel(log_grand_partition_integral(ThermoState(2.0, 1.0)), 8.0 * base) <= 1e-14
        assert rel(log_grand_partition_integral(ThermoState(1.0, 3.0)), 3.0 * base) <= 1e-14

    def test_extensivity_is_exact(self):
        for v in (2.0, 7.0, 10.0):
            assert log_grand_partition_integral(ThermoState(1.3, v)) == v * log_grand_partition_integral(ThermoState(1.3, 1.0))

    def test_photon_fugacity_guard(self):
        with pytest.raises(DomainError):
            log_grand_partition_integral(ThermoState(1.0, 1.0, 0.5))
        with pytest.raises(DomainError):
            log_grand_partition_cycle_series(ThermoState(1.0, 1.0, 0.5))

    def test_default_cutoff_is_the_first_with_a_narrow_bracket(self):
        def width(s_max):
            lo, hi = tail_bracket(s_max, 4.0)
            return hi - lo

        assert width(CYCLE_SERIES_S_MAX) <= 1e-12 < width(CYCLE_SERIES_S_MAX // 2)
        assert CYCLE_SERIES_S_MAX in [64 * 2**k for k in range(10)]

    # the raw partial sums of the series are the product form's running logs
    def test_series_single_term(self):
        assert log_grand_partition_product_form(T1V1, 1)[0] == F1

    def test_series_two_terms(self):
        value = log_grand_partition_product_form(T1V1, 2)[1]
        assert rel(value, F1 + F1 / 16.0) <= 1e-15
        assert rel(value, 0.21530751523996777) <= 1e-15

    @pytest.mark.parametrize("temperature", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("volume", [1.0, 10.0])
    def test_three_way_agreement(self, temperature, volume):
        state = ThermoState(temperature, volume)
        integral = log_grand_partition_integral(state)
        series = log_grand_partition_cycle_series(state)
        assert rel(series, integral) <= 1e-10
        product_logs = log_grand_partition_product_form(state, 400)
        lo, hi = tail_bracket(400, 4.0)
        prefactor = state.volume * F1 * temperature**3
        product_log = product_logs[-1] + prefactor * 0.5 * (lo + hi)
        assert rel(product_log, integral) <= 1e-10


class TestProductForm:
    def test_first_factor_is_exp_f1(self):
        products = np.exp(log_grand_partition_product_form(T1V1, 3))
        assert rel(products[0], math.exp(F1)) <= 1e-13
        assert rel(products[0], 1.2246344205889663) <= 1e-13

    def test_two_factor_product(self):
        products = np.exp(log_grand_partition_product_form(T1V1, 2))
        assert rel(products[1], math.exp(F1 + F1 / 16.0)) <= 1e-13

    def test_monotone_increasing_toward_z(self):
        products = np.exp(log_grand_partition_product_form(T1V1, 200))
        assert np.all(np.diff(products) > 0.0)
        z = math.exp(log_grand_partition_integral(T1V1))
        assert np.all(products < z)
        # late factors approach 1: the product has converged
        assert products[-1] / products[-2] - 1.0 < 1e-9

    def test_tail_bracket_certifies_truncation(self):
        products = np.exp(log_grand_partition_product_form(T1V1, 50))
        log_z = log_grand_partition_integral(T1V1)
        deficit = log_z - math.log(products[-1])
        lo, hi = tail_bracket(50, 4.0)
        assert F1 * lo <= deficit <= F1 * hi

    def test_log_form_stays_finite_at_huge_volume(self):
        logs = log_grand_partition_product_form(ThermoState(1.0, 1e30), 50)
        expected = 1e30 * F1 * sum(float(s) ** -4 for s in range(1, 51))
        assert np.all(np.isfinite(logs))
        assert rel(logs[-1], expected) <= 1e-12

    @pytest.mark.parametrize("lam", [1e-3, 0.1, 1.0, 10.0, 100.0, 700.0, 701.0, 1e3, 1e4])
    def test_factor_is_the_exponential_series(self, lam):
        # factor 1 is exp(lambda_1) with lambda_1 = V f_1: sum_xi lambda**xi / xi!
        # must equal exp(lambda); past exp's range the Poisson weights
        # lambda**xi e**-lambda / xi! must carry mass 1 instead
        lam = log_grand_partition_product_form(ThermoState(1.0, lam / F1), 1)[0]
        if lam <= 700.0:
            term = factor = 1.0
            k = 1
            while term > 1e-14 * factor:
                term *= lam / k
                factor += term
                k += 1
            assert rel(factor, math.exp(lam)) <= 1e-12
        else:
            half_width = int(12.0 * math.sqrt(lam)) + 1
            mass = sum(
                math.exp(xi * math.log(lam) - lam - math.lgamma(xi + 1.0))
                for xi in range(max(int(lam) - half_width, 0), int(lam) + half_width)
            )
            assert abs(mass - 1.0) <= 1e-9


class TestCanonicalRecursion:
    def test_hand_enumerated_example(self):
        sums = CycleSumSequence(values=np.array([2.0, 0.5]))
        assert canonical_partition_table(sums, 2)[2] == 2.25

    def test_base_cases(self):
        sums = CycleSumSequence(values=np.array([3.7]))
        assert canonical_partition_table(sums, 0)[0] == 1.0
        assert canonical_partition_table(sums, 1)[1] == 3.7

    def test_table_prefix_property(self):
        rng = np.random.default_rng(11)
        sums = CycleSumSequence(values=rng.uniform(0.1, 2.0, size=10))
        table = canonical_partition_table(sums, 10)
        assert table[0] == 1.0
        for n in range(11):
            assert table[n] == canonical_partition_table(sums, n)[n]

    def test_needs_enough_cycle_sums(self):
        sums = CycleSumSequence(values=np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            canonical_partition_table(sums, 3)

    def test_trap_table_within_2e_15_of_exact_recursion(self):
        # the same double C_s, recursed in 30 digits
        levels = np.arange(60.0)
        spectrum = ModeSpectrum.from_modes(levels, ((levels + 1) * (levels + 2) / 2).astype(int))
        sums = spectrum.cycle_sums(2.0, 400)
        exact = exact_recursion(sums.values, 400)
        table = canonical_partition_table(sums, 400)
        assert max(rel(mpmath.mpf(z), want) for z, want in zip(table, exact)) <= 2e-15

    def test_photon_table_finite_up_to_the_last_z_n_that_fits(self):
        # at V = 1e4, Z_221 = 5.5e307 fits while 221 Z_221 does not
        sums = CycleSumSequence.from_photon_gas(ThermoState(1.0, 1e4), 222)
        exact = exact_recursion(sums.values, 221)
        table = canonical_partition_table(sums, 221)
        for n in (220, 221):
            assert rel(mpmath.mpf(table[n]), exact[n]) <= 1e-13
        with pytest.raises(SizeError):
            canonical_partition_table(sums, 222)

    def test_rescaled_values_equal_the_plain_dot_product(self):
        # photon n Z_n passes 2**900 at n = 184; the rescale by 2**-600 is exact
        sums = CycleSumSequence.from_photon_gas(ThermoState(1.0, 1e4), 219)
        c = sums.values
        reversed_z = np.empty(c.size + 1)
        reversed_z[c.size] = 1.0
        for n in range(1, c.size + 1):
            reversed_z[c.size - n] = float(np.dot(c[:n], reversed_z[c.size - n + 1 :])) / n
        assert np.array_equal(canonical_partition_table(sums, 219), reversed_z[::-1])

    def test_cli_table_past_double_range_is_a_size_error(self, tmp_path):
        # one level at energy 0 with g = 3000: Z_N = binom(2999 + N, N) overflows at N = 188
        spectrum_file = tmp_path / "one_level.txt"
        spectrum_file.write_text("0.0 3000\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["partition", "--spectrum-file", str(spectrum_file), "--n-max", "400", "--temperature", "1"])
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("ERROR 2:")


class TestCanonicalEnumeration:
    def test_unit_sums_give_unit_partition(self):
        # with every C_s = 1 the canonical sum telescopes to 1 for any N
        sums = CycleSumSequence(values=np.ones(6))
        for n in range(7):
            total, _ = canonical_partition_enumerated(sums, n)
            assert rel(total, 1.0) <= 1e-14

    def test_breakdown_of_hand_example(self):
        sums = CycleSumSequence(values=np.array([2.0, 0.5]))
        total, weights = canonical_partition_enumerated(sums, 2)
        assert total == 2.25
        by_type = dict(zip(cycle_types(2), weights))
        assert by_type[((1, 2),)] == 2.0
        assert by_type[((2, 1),)] == 0.25

    def test_single_particle(self):
        sums = CycleSumSequence(values=np.array([5.0]))
        total, weights = canonical_partition_enumerated(sums, 1)
        assert total == 5.0
        assert weights == (5.0,)
        assert cycle_types(1) == (((1, 1),),)

    def test_weights_line_up_with_cycle_types(self):
        rng = np.random.default_rng(11)
        sums = CycleSumSequence(values=rng.uniform(0.05, 3.0, size=12))
        c = sums.values.tolist()
        for n in (0, 1, 5, 12):
            total, weights = canonical_partition_enumerated(sums, n)
            assert isinstance(weights, tuple) and len(weights) == len(cycle_types(n))
            running = 0.0
            for ctype, weight in zip(cycle_types(n), weights):
                expected = 1.0
                for s, xi in ctype:
                    expected *= c[s - 1] ** xi / (math.factorial(xi) * float(s) ** xi)
                assert weight == expected
                running += weight
            assert total == running

    def test_matches_recursion_for_random_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            sums = CycleSumSequence(values=rng.uniform(0.05, 3.0, size=25))
            for n in (5, 12, 25):
                total, _ = canonical_partition_enumerated(sums, n)
                assert rel(total, canonical_partition_table(sums, n)[n]) <= 1e-12

    def test_size_limit(self):
        sums = CycleSumSequence(values=np.ones(30))
        with pytest.raises(SizeError):
            canonical_partition_enumerated(sums, 26)

    def test_cycle_type_counts(self):
        # partitions of 3 correspond to S_3 cycle types: 1 + 3 + 2 permutations
        assert len(cycle_types(3)) == 3
        assert len(cycle_types(25)) == 1958


class TestCycleSumSequence:
    def test_photon_gas_sums(self):
        sums = CycleSumSequence.from_photon_gas(ThermoState(1.0, 2.0), 6)
        assert rel(sums[1], 2.0 * F1) <= 1e-15
        for s in range(1, 7):
            assert rel(sums[s] * s**3, sums[1]) <= 1e-14

    def test_spectrum_sums_with_degeneracy(self):
        sums = ModeSpectrum.from_modes([1.0, 2.0], [2, 1]).cycle_sums(1.0, 3)
        for s in range(1, 4):
            expected = 2.0 * math.exp(-s) + math.exp(-2.0 * s)
            assert rel(sums[s], expected) <= 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            CycleSumSequence(values=np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            CycleSumSequence(values=np.array([]))
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError):
                CycleSumSequence(values=np.array([bad, 1.0]))


class TestGrandCanonicalConsistency:
    @pytest.mark.parametrize("z", [0.2, 0.5, 0.9])
    def test_grand_sum_matches_cycle_exponential(self, z):
        # z = 0.9 at beta = 0.5 needs ~150 canonical terms before the grand
        # sum settles below the 1e-16 cutoff
        rng = np.random.default_rng(19)
        energies = np.sort(rng.uniform(0.3, 2.5, size=4))
        for beta in (0.5, 1.0):
            sums = ModeSpectrum.from_modes(energies).cycle_sums(beta, 250)
            lhs = grand_partition_from_canonical(sums, z)
            rhs = math.exp(sum(z**s * sums[s] / s for s in range(1, 251)))
            assert rel(lhs, rhs) <= 1e-10

    def test_grand_sum_reads_the_table_values_bit_for_bit(self):
        sums = ModeSpectrum.from_modes(np.arange(6.0), [1, 3, 6, 10, 15, 21]).cycle_sums(0.5, 400)
        table = canonical_partition_table(sums, 400)
        z = 0.7
        total, z_power = 1.0, 1.0
        for n in range(1, 401):
            z_power *= z
            term = z_power * table[n]
            total += term
            if n >= 8 and term < GRAND_SUM_REL_CUTOFF * total:
                break
        assert n < 400
        assert grand_partition_from_canonical(sums, z) == total

    def test_unconverged_raises(self):
        sums = ModeSpectrum.from_modes([0.05]).cycle_sums(0.1, 12)
        with pytest.raises(ConvergenceError):
            grand_partition_from_canonical(sums, 0.9)


class TestBoseNumberDensity:
    def test_vacuum(self):
        state = ThermoState(1.0, fugacity=0.0)
        assert bose_number_density_cycle(state, 2.0 * math.pi) == 0.0
        assert bose_number_density_integral(state, 2.0 * math.pi) == 0.0

    def test_half_fugacity_reference(self):
        state = ThermoState(1.0, fugacity=0.5)
        value = bose_number_density_cycle(state, 2.0 * math.pi)
        assert rel(value, 0.6248370208199139) <= 1e-12

    def test_saturated_fugacity_is_zeta_three_halves(self):
        state = ThermoState(1.0, fugacity=1.0)
        value = bose_number_density_cycle(state, 2.0 * math.pi)
        assert rel(value, 2.612375348685488) <= 1e-12

    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9, 1.0])
    def test_cycle_sum_matches_momentum_integral(self, z):
        state = ThermoState(0.8, fugacity=z)
        cycle = bose_number_density_cycle(state, 3.1)
        integral = bose_number_density_integral(state, 3.1)
        assert rel(cycle, integral) <= 1e-8

    def test_near_saturation_against_mpmath(self):
        # z = 1 - 1e-6 is where the direct polylog series used to give up
        from bench import refs

        state = ThermoState(1.2, fugacity=1.0 - 1e-6)
        want = float(refs.bose_density(1.2, 2.0 * math.pi, 1.0 - 1e-6))  # 30 digits, rounded once
        assert rel(bose_number_density_cycle(state, 2.0 * math.pi), want) <= 1e-14

    def test_mass_validation(self):
        with pytest.raises(DomainError):
            bose_number_density_cycle(ThermoState(1.0), -1.0)


class TestTailBracket:
    def test_brackets_true_tail(self):
        true_tail = sum(1.0 / s**4 for s in range(51, 200000))
        lo, hi = tail_bracket(50, 4.0)
        assert lo < true_tail < hi

    def test_power_validation(self):
        with pytest.raises(DomainError):
            tail_bracket(10, 1.0)
