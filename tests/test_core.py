import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from cyclegas import core
from cyclegas.core import (
    ConvergenceError,
    DomainError,
    SizeError,
    ThermoState,
    UnitsPolicy,
    bose_integral,
    bose_quadrature,
    polylog,
    riemann_zeta,
)
from cyclegas.cycle_weights import matter_cycle_weight_by_quadrature, photon_cycle_weight_by_quadrature
from cyclegas.partition import bose_number_density_integral


def rel(a, b):
    return abs(a - b) / abs(b)


class TestRiemannZeta:
    def test_closed_forms(self):
        assert rel(riemann_zeta(2.0), math.pi**2 / 6.0) <= 1e-12
        assert rel(riemann_zeta(4.0), math.pi**4 / 90.0) <= 1e-12

    def test_zeta3_against_partial_sum_oracle(self):
        # independent oracle: 10^6-term partial sum closed with the midpoint
        # integral of x^-3 beyond the truncation
        s = np.arange(1.0, 1e6 + 1.0)
        oracle = float(np.sum(s**-3.0)) + 0.5 * (1e6 + 0.5) ** -2.0
        assert rel(riemann_zeta(3.0), oracle) <= 1e-12
        assert rel(riemann_zeta(3.0), 1.2020569031595943) <= 1e-12

    @pytest.mark.parametrize("r", [1.1, 1.5, 2.0, 2.5, 3.0, 4.5, 6.0, 9.0, 15.0])
    def test_against_scipy_reference(self, r):
        assert rel(riemann_zeta(r), float(scipy.special.zeta(r))) <= 1e-12

    # from next to the pole, where zeta(1 + 2e-9) ~ 5e8, to where zeta - 1 is below an ulp
    @pytest.mark.parametrize(
        "r",
        [1.0 + 2e-9, 1.0 + 1e-6, 1.001, 1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0,
         6.0, 7.5, 9.0, 12.0, 15.0, 20.0, 30.0, 50.0, 100.0, 1e3, 1e6],
    )
    def test_against_mpmath(self, r):
        with mpmath.workdps(40):
            assert rel(riemann_zeta(r), mpmath.zeta(r)) <= 1e-15

    @pytest.mark.parametrize("r", [1.0, 0.5, -2.0, 1.0 + 1e-10])
    def test_domain(self, r):
        with pytest.raises(DomainError):
            riemann_zeta(r)


class TestPolylog:
    def test_empty_sum(self):
        assert polylog(1.5, 0.0) == 0.0

    def test_z_one_is_zeta(self):
        assert rel(polylog(4.0, 1.0), riemann_zeta(4.0)) <= 1e-14
        for r in (2.0, 3.0, 4.0, 5.0):
            assert rel(polylog(r, 1.0), riemann_zeta(r)) <= 1e-12

    def test_direct_summation_oracle(self):
        # 200 explicit terms; the remainder is below 0.5^200
        oracle = sum(0.5**s / s**1.5 for s in range(1, 201))
        value = polylog(1.5, 0.5)
        assert rel(value, oracle) <= 1e-10
        assert rel(value, 0.6248370208199139) <= 1e-12

    def test_near_one_fugacity(self):
        oracle = sum(0.99**s / s**2.5 for s in range(1, 20000))
        assert rel(polylog(2.5, 0.99), oracle) <= 1e-10

    # alpha = -ln z on both sides of core.POLYLOG_SEAM = 1, and up to z = 1 - 1e-15
    SEAM_FUGACITIES = [
        1e-3, 0.2, math.exp(-1.01), math.exp(-0.99), 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-10, 1 - 1e-15,
    ]

    # the last six orders sit near an integer, where Gamma(1 - r) and zeta(r - k) have poles
    @pytest.mark.parametrize(
        "r", [-1.5, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 1 + 1e-12, 2 - 1e-9, 2 + 1e-10, 3 + 1e-14, 2.25, 0.9]
    )
    def test_against_mpmath_across_the_seam(self, r):
        with mpmath.workdps(40):
            for z in self.SEAM_FUGACITIES:
                assert rel(polylog(r, z), mpmath.polylog(r, mpmath.mpf(z))) <= 1e-14, z

    @pytest.mark.parametrize("z", [1e-300, 0.3, math.exp(-0.99), 0.5, 0.9, 1 - 1e-8, 1 - 1e-15])
    def test_order_one_is_minus_log1p(self, z):
        assert rel(polylog(1.0, z), -math.log1p(-z)) <= 1e-15

    def test_series_cache_stays_bounded(self):
        for r in np.linspace(1.1, 9.9, 40):
            polylog(float(r), 0.95)
        info = core._robinson.cache_info()
        assert info.currsize <= info.maxsize == 8

    def test_domain(self):
        with pytest.raises(DomainError):
            polylog(1.5, 1.2)
        with pytest.raises(DomainError):
            polylog(1.5, -0.1)
        with pytest.raises(DomainError):
            polylog(1.0, 1.0)
        with pytest.raises(DomainError):
            polylog(1.0 + 1e-10, 1.0)
        with pytest.raises(DomainError):
            polylog(0.5, 1.0)


class TestZetaContinuation:
    """core._zeta, the zeta function below s = 1 that Robinson's series reads."""

    # at ten terms the pole term of the closing is ~9 at s = 0.1: 2 ulps of it
    @pytest.mark.parametrize("s", [0.5, 0.1, -0.5, -1.5, -10.5, 0.999, 2.5])
    def test_against_mpmath(self, s):
        with mpmath.workdps(40):
            assert rel(core._zeta(s), mpmath.zeta(s)) <= 2e-15

    def test_zero_and_trivial_zero(self):
        assert core._zeta(0.0) == -0.5
        # zeta(-2) = 0; the reflection's sine of -pi rounds to 1.2e-16
        assert abs(core._zeta(-2.0)) <= 1e-17

    def test_midpoint_divisors_from_bernoulli_numbers(self):
        for j, divisor in enumerate(core._MIDPOINT_EM, 1):
            numerator, denominator = mpmath.bernfrac(2 * j)
            exact = math.factorial(2 * j) / ((1 - Fraction(2, 4**j)) * Fraction(numerator, denominator))
            assert divisor == float(exact)

    def test_euler_gamma(self):
        assert core._EULER_GAMMA == float(mpmath.euler)


class TestBoseIntegral:
    def test_values(self):
        assert rel(bose_integral(3), math.pi**4 / 15.0) <= 1e-12
        assert rel(bose_integral(1), math.pi**2 / 6.0) <= 1e-12
        assert rel(bose_integral(2), 2.0 * riemann_zeta(3.0)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 100, 150])
    def test_quadrature_matches_closed_form(self, n):
        # the executable zeta identity: both routes agree to 1e-10
        closed = math.factorial(n) * riemann_zeta(n + 1.0)
        assert rel(bose_quadrature(n), closed) <= 1e-10
        assert bose_integral(n) == closed

    def test_domain(self):
        with pytest.raises(DomainError):
            bose_integral(0)
        with pytest.raises(DomainError):
            bose_integral(2.5)

    def test_quadrature_past_double_range_raises(self):
        # 171! zeta(172) overflows a double; the rule's sum must not pass as inf
        with pytest.raises(ConvergenceError, match=re.escape("bose_quadrature(171)")):
            bose_quadrature(171)

    def test_orders_past_double_range_raise(self):
        # 170! zeta(171) = 7.3e306 is the last order inside double range
        assert math.isfinite(bose_integral(170))
        with pytest.raises(SizeError):
            bose_integral(171)
        # the integrand's peak e^(n log n - n) itself overflows from n = 172
        with pytest.raises(SizeError):
            bose_quadrature(172)

    @pytest.mark.parametrize("n", [0, 2.5, True])
    def test_quadrature_domain(self, n):
        # the order must be an integer >= 1; a bool is not taken for n = 1
        with pytest.raises(DomainError):
            bose_quadrature(n)


# Each oracle behind the one quadrature gate: the quantity its ConvergenceError
# names, the call, and the largest accepted error relative to the value.
QUADRATURE_GATES = {
    "bose_quadrature(3)": (lambda: bose_quadrature(3), 1e-10),
    "exponential moment 2.0": (lambda: photon_cycle_weight_by_quadrature(ThermoState(1.0), 1), 1e-9),
    "the Bose density at z = 0.5": (
        lambda: bose_number_density_integral(ThermoState(1.0, fugacity=0.5), 2.0 * math.pi), 1e-9
    ),
}


class TestQuadratureGate:
    @pytest.mark.parametrize("what", QUADRATURE_GATES)
    def test_error_estimate_past_the_gate_raises(self, what, monkeypatch):
        call, accept = QUADRATURE_GATES[what]
        real_rule = core._exp_sinh

        def rule_reporting(factor):
            def rule(integrand, rtol):
                value, _estimate = real_rule(integrand, rtol)
                return value, factor * accept * abs(value)

            return rule

        monkeypatch.setattr(core, "_exp_sinh", rule_reporting(0.5))
        call()
        for factor in (1.5, math.nan):
            monkeypatch.setattr(core, "_exp_sinh", rule_reporting(factor))
            with pytest.raises(ConvergenceError, match=re.escape(what)):
                call()


# The ten integrands the oracles hand to the rule: the call that reaches it and
# the exact integral over [0, inf), as an mpmath expression.
ORACLE_INTEGRANDS = {
    **{
        f"x^{n}/(e^x - 1)": (
            lambda n=n: bose_quadrature(n),
            lambda n=n: mpmath.factorial(n) * mpmath.zeta(n + 1),
        )
        for n in (1, 2, 3, 4)
    },
    "u^2 e^-u": (
        lambda: photon_cycle_weight_by_quadrature(ThermoState(1.0), 1),
        lambda: mpmath.gamma(3),
    ),
    "u^0.5 e^-u": (
        lambda: matter_cycle_weight_by_quadrature(ThermoState(1.0), 1.0, 1),
        lambda: mpmath.gamma(1.5),
    ),
    **{
        # sum_s z^s int u^2 e^{-s u^2} du = sqrt(pi)/4 * g_{3/2}(z)
        f"Bose density at z = {z}": (
            lambda z=z: bose_number_density_integral(ThermoState(1.0, fugacity=z), 1.0),
            lambda z=z: mpmath.sqrt(mpmath.pi) / 4 * mpmath.polylog(1.5, z),
        )
        for z in (0.1, 0.5, 0.9, 1.0)
    },
}


def oracle_integrand(name, monkeypatch):
    """The one integrand that ORACLE_INTEGRANDS[name]'s call hands to the rule."""
    seen = []
    real_rule = core._exp_sinh

    def rule(integrand, rtol):
        seen.append(integrand)
        return real_rule(integrand, rtol)

    monkeypatch.setattr(core, "_exp_sinh", rule)
    ORACLE_INTEGRANDS[name][0]()
    monkeypatch.undo()
    (integrand,) = seen
    return integrand


class TestExpSinhRule:
    @pytest.mark.parametrize("name", ORACLE_INTEGRANDS)
    def test_against_scipy_and_mpmath(self, name, monkeypatch):
        # third-party routes: scipy's QUADPACK on [0, inf) and 40-digit closed forms
        integrand = oracle_integrand(name, monkeypatch)
        value = core._quad(integrand, 1e-10, name)
        reference, _abserr = scipy.integrate.quad(
            integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200
        )
        with mpmath.workdps(40):
            exact = float(ORACLE_INTEGRANDS[name][1]())
        assert rel(value, reference) <= 1e-14
        assert rel(value, exact) <= 1e-14

    @pytest.mark.parametrize("name", ORACLE_INTEGRANDS)
    def test_integrand_finite_at_both_ends_of_the_nodes(self, name, monkeypatch):
        integrand = oracle_integrand(name, monkeypatch)
        for t in (-core.QUAD_T_MAX, core.QUAD_T_MAX):
            y = integrand(math.exp(0.5 * math.pi * math.sinh(t)))
            assert isinstance(y, float) and math.isfinite(y), (t, y)


class TestThermoState:
    def test_beta_is_exact_reciprocal(self):
        state = ThermoState(temperature=3.0)
        assert state.beta == 1.0 / 3.0

    def test_defaults(self):
        state = ThermoState(temperature=2.0)
        assert state.volume == 1.0 and state.fugacity == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"temperature": 1.0, "volume": 0.0},
            {"temperature": 1.0, "volume": -2.0},
            {"temperature": 1.0, "fugacity": -0.1},
            {"temperature": 1.0, "fugacity": 1.1},
            {"temperature": math.inf},
            {"temperature": 1.0, "volume": math.inf},
            {"temperature": math.nan},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(DomainError):
            ThermoState(**kwargs)


class TestUnitsPolicy:
    def test_natural_mode_is_identity(self):
        units = UnitsPolicy(mode="natural")
        assert units.temperature_from_si(3.5) == 3.5
        assert units.volume_from_si(2.0) == 2.0
        assert units.frequency_from_si(7.0) == 7.0
        assert units.length_unit_m == 1.0

    def test_si_round_trip(self):
        units = UnitsPolicy(mode="si")
        rng = np.random.default_rng(1)
        for _ in range(20):
            t_kelvin = float(rng.uniform(1.0, 1e4))
            v_m3 = float(rng.uniform(1e-9, 1e3))
            z = float(rng.uniform(0.0, 1.0))
            state = units.state_from_si(t_kelvin, v_m3, z)
            t_back, v_back, z_back = units.state_to_si(state)
            assert rel(t_back, t_kelvin) <= 1e-12
            assert rel(v_back, v_m3) <= 1e-12
            assert z_back == z

    def test_frequency_round_trip(self):
        units = UnitsPolicy(mode="si")
        nu = 5.4e14
        assert rel(units.frequency_to_si(units.frequency_from_si(nu)), nu) <= 1e-12

    def test_dimensionless_ratio_is_mode_independent(self):
        # h*nu / k*T must come out identical through either conversion path
        t_kelvin, nu_hz = 300.0, 3.2e13
        units = UnitsPolicy(mode="si")
        x_si = 6.62607015e-34 * nu_hz / (1.380649e-23 * t_kelvin)
        t = units.temperature_from_si(t_kelvin)
        nu = units.frequency_from_si(nu_hz)
        assert rel(2.0 * math.pi * nu / t, x_si) <= 1e-12

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            UnitsPolicy(mode="imperial")
