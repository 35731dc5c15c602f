import math

import numpy as np
import pytest

from cyclegas.core import DomainError, ThermoState
from cyclegas.cycle_weights import (
    decay_comparison,
    matter_cycle_weight,
    matter_cycle_weight_by_quadrature,
    photon_cycle_weight,
    photon_cycle_weight_by_quadrature,
)

T1 = ThermoState(temperature=1.0)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestPhotonWeight:
    def test_unit_temperature(self):
        assert photon_cycle_weight(T1, 1) == 2.0 / math.pi**2
        assert rel(photon_cycle_weight(T1, 1), 0.20264236728467555) <= 1e-15

    def test_inverse_cube_scaling(self):
        f1 = photon_cycle_weight(T1, 1)
        assert photon_cycle_weight(T1, 2) == f1 / 8.0
        for s in range(1, 30):
            assert rel(photon_cycle_weight(T1, s) * s**3, f1) <= 1e-15

    def test_cubic_temperature_scaling(self):
        f1 = photon_cycle_weight(T1, 1)
        assert photon_cycle_weight(ThermoState(2.0), 1) == 8.0 * f1
        assert rel(photon_cycle_weight(ThermoState(2.0), 1), 1.6211389382774044) <= 1e-15

    def test_monotone_in_s(self):
        values = [photon_cycle_weight(T1, s) for s in range(1, 20)]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_bad_cycle_size(self):
        with pytest.raises(DomainError):
            photon_cycle_weight(T1, 0)
        with pytest.raises(DomainError):
            photon_cycle_weight(T1, 1.5)


class TestMatterWeight:
    # mass = 2*pi at T = 1 puts the prefactor (m T / 2 pi)^(3/2) at exactly 1
    def test_normalization_point(self):
        assert matter_cycle_weight(T1, 2.0 * math.pi, 1) == 1.0

    def test_three_halves_scaling(self):
        assert rel(matter_cycle_weight(T1, 2.0 * math.pi, 2), 2.0**-1.5) <= 1e-15
        assert matter_cycle_weight(T1, 2.0 * math.pi, 4) == 0.125

    def test_bad_mass(self):
        with pytest.raises(DomainError):
            matter_cycle_weight(T1, -1.0, 1)


class TestQuadratureOracle:
    def test_photon_reference_point(self):
        value = photon_cycle_weight_by_quadrature(T1, 1)
        assert rel(value, 2.0 / math.pi**2) <= 1e-9

    def test_massive_reference_point(self):
        value = matter_cycle_weight_by_quadrature(T1, 2.0 * math.pi, 1)
        assert rel(value, 1.0) <= 1e-9

    def test_photon_s10(self):
        value = photon_cycle_weight_by_quadrature(T1, 10)
        assert rel(value, 2.0 / math.pi**2 / 1000.0) <= 1e-9

    @pytest.mark.parametrize("temperature", [0.1, 1.0, 10.0])
    def test_oracle_equivalence_grid(self, temperature):
        state = ThermoState(temperature)
        for s in range(1, 21):
            closed = photon_cycle_weight(state, s)
            numeric = photon_cycle_weight_by_quadrature(state, s)
            assert rel(numeric, closed) <= 1e-8
            closed = matter_cycle_weight(state, 3.7, s)
            numeric = matter_cycle_weight_by_quadrature(state, 3.7, s)
            assert rel(numeric, closed) <= 1e-8


class TestDecayComparison:
    def test_power_law_rows(self):
        rows = decay_comparison(8)
        assert rows.shape == (8, 3)
        np.testing.assert_allclose(rows[1], [2.0, 0.125, 2.0**-1.5], rtol=1e-14)
        np.testing.assert_allclose(rows[3], [4.0, 0.015625, 0.125], rtol=1e-14)
        np.testing.assert_allclose(rows[7], [8.0, 8.0**-3.0, 8.0**-1.5], rtol=1e-14)

    def test_photon_column_decays_faster(self):
        rows = decay_comparison(64)
        assert np.all(rows[1:, 1] < rows[1:, 2])
        assert rows[0, 1] == rows[0, 2] == 1.0

    def test_log_log_slopes(self):
        rows = decay_comparison(64)
        log_s = np.log(rows[:, 0])
        assert abs(np.polyfit(log_s, np.log(rows[:, 1]), 1)[0] + 3.0) <= 1e-9
        assert abs(np.polyfit(log_s, np.log(rows[:, 2]), 1)[0] + 1.5) <= 1e-9

    def test_s_max_validation(self):
        with pytest.raises(DomainError):
            decay_comparison(1)
