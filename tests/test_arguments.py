"""Every argument is read or refused.

A CLI flag either changes the output or makes the command exit 2, and a
library call given an argument it cannot honour raises instead of returning
a value computed without it.
"""

import argparse
import contextlib
import functools
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclegas as cg
from cyclegas import cli
from cyclegas.core import ConvergenceError, DomainError, SizeError

MODES = str(Path(__file__).parent / "data" / "cli_golden" / "modes.txt")

# A valid value other than the default for every flag that takes a number or a path.
FLAG_VALUES = {
    "--temperature": "2.5",
    "--volume": "3.5",
    "--s-max": "4",
    "--mass": "3",
    "--spectrum-file": MODES,
    "--n-max": "3",
    "--x-min": "0.5",
    "--x-max": "10",
    "--points": "7",
    "--nu": "0.3",
    "--delta-nu": "0.01",
    "--seed": "7",
    "--replicas": "9",
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def default_run(command):
    return run([command])


def subcommand_flags():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action)
        for command, sub in subs.choices.items()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


def test_settable_flag_count():
    assert len(subcommand_flags()) == 44


@pytest.mark.parametrize(
    "command, action",
    subcommand_flags(),
    ids=[f"{command} {action.option_strings[0]}" for command, action in subcommand_flags()],
)
def test_every_flag_is_read_or_refused(command, action, tmp_path):
    flag = action.option_strings[0]
    if action.choices:
        value = next(c for c in action.choices if c != action.default)
    elif flag == "--output":
        value = str(tmp_path / "out.txt")
    else:
        value = FLAG_VALUES[flag]
    code, out, err = run([command, flag, value])
    if code == 2:
        assert out == "" and err.startswith("ERROR 2:")
        return
    assert code == 0, err
    assert out != default_run(command)[1]


T1 = cg.ThermoState(1.0, 2.0)
HALF = cg.ThermoState(1.0, 1.0, 0.5)
SUMS = cg.ModeSpectrum.from_modes([0.0, 1.0], [1, 2]).cycle_sums(1.0, 5)
SPECTRUM = cg.ModeSpectrum.from_modes([0.0, 1.0])
BAND = cg.BandSpec.from_mode_count(0.5, 0.025, 100.0)

REFUSED_CALLS = {
    "product form s_max 2.5": lambda: cg.log_grand_partition_product_form(T1, 2.5),
    "table N True": lambda: cg.canonical_partition_table(SUMS, True),
    "photon weight s True": lambda: cg.photon_cycle_weight(T1, True),
    "bose_integral True": lambda: cg.bose_integral(True),
    "table N 3.0": lambda: cg.canonical_partition_table(SUMS, 3.0),
    "occupation N 2.0": lambda: cg.canonical_by_occupation(SPECTRUM, 2.0, 1.0),
    "decay s_max 4.0": lambda: cg.decay_comparison(4.0),
    "cycle_types -1": lambda: cg.cycle_types(-1),
    "cycle_types True after np.int64(1)": lambda: (cg.cycle_types(np.int64(1)), cg.cycle_types(True)),
    "tail_bracket s_max 2.5": lambda: cg.tail_bracket(2.5, 4.0),
    "photon weight z 0.5": lambda: cg.photon_cycle_weight(HALF, 1),
    "planck density z 0.5": lambda: cg.planck_spectral_density(HALF, 0.3),
    "band fluctuation z 0.5": lambda: cg.band_fluctuation(HALF, BAND),
    "photon cycle sums z 0.5": lambda: cg.CycleSumSequence.from_photon_gas(HALF, 5),
    "spectral integral z 0.5": lambda: cg.spectral_energy_density_integral(HALF),
    "grand cycle form z -0.5": lambda: cg.grand_partition_cycle(SPECTRUM, -0.5, 1.0),
    "grand mode product z -0.5": lambda: cg.grand_partition_product(SPECTRUM, -0.5, 1.0),
    "grand mode product z nan": lambda: cg.grand_partition_product(SPECTRUM, math.nan, 1.0),
    "photon quadrature z 0.5": lambda: cg.photon_cycle_weight_by_quadrature(HALF, 1),
    "matter quadrature mass 0": lambda: cg.matter_cycle_weight_by_quadrature(T1, 0.0, 1),
    "spectrum energy nan": lambda: cg.ModeSpectrum.from_modes([0.5, math.nan]),
    "spectrum energy inf": lambda: cg.ModeSpectrum.from_modes([0.5, math.inf]),
    "cycle sums beta -1": lambda: SPECTRUM.cycle_sums(-1.0, 3),
    "cycle sums beta 0": lambda: SPECTRUM.cycle_sums(0.0, 3),
    "grand mode product beta 0": lambda: cg.grand_partition_product(SPECTRUM, 0.5, 0.0),
    "grand mode product beta nan": lambda: cg.grand_partition_product(SPECTRUM, 0.5, math.nan),
    "grand cycle form beta 0": lambda: cg.grand_partition_cycle(SPECTRUM, 0.5, 0.0),
    "occupation beta -1000": lambda: cg.canonical_by_occupation(SPECTRUM, 3, -1000.0),
    "occupation beta inf": lambda: cg.canonical_by_occupation(SPECTRUM, 2, math.inf),
    "zeta r inf": lambda: cg.riemann_zeta(math.inf),
    "tail_bracket power nan": lambda: cg.tail_bracket(5, math.nan),
    "polylog r inf": lambda: cg.polylog(math.inf, 0.5),
    "polylog r nan": lambda: cg.polylog(math.nan, 0.5),
    "polylog r -inf": lambda: cg.polylog(-math.inf, 0.5),
}


@pytest.mark.parametrize("call", REFUSED_CALLS.values(), ids=REFUSED_CALLS.keys())
def test_library_refuses(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--volume", "7", "--fugacity", "0.5"],
        ["weights", "--mass", "3"],
        ["spectrum", "--volume", "9", "--fugacity", "0.3"],
        ["density", "--volume", "9"],
        ["partition", "--s-max", "2", "--n-max", "5"],
        ["partition", "--spectrum-file", MODES, "--n-max", "3", "--s-max", "7", "--volume", "4"],
        ["fluctuations", "--nu", "500", "--delta-nu", "1"],  # h nu / kT = 3142
    ],
    ids=lambda argv: " ".join("F" if arg == MODES else arg for arg in argv),
)
def test_cli_refuses(argv):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("ERROR 2:")


HOT = cg.ThermoState(1e150)  # T^3 overflows double precision
HUGE = cg.ThermoState(1e3, 1e300)  # V T^3 overflows double precision

OVERFLOWING_CALLS = {
    "photon density, T 1e150": lambda: cg.photon_number_density(HOT),
    "mean energy, T 1e150": lambda: cg.mean_energy(HOT),
    "photon weight, T 1e150": lambda: cg.photon_cycle_weight(HOT, 1),
    "mean energy, V T^3 1e309": lambda: cg.mean_energy(HUGE),
    "energy variance, V T^3 1e309": lambda: cg.energy_variance(HUGE),
    "cycle series, V T^3 1e309": lambda: cg.log_grand_partition_cycle_series(HUGE),
    "product form, V T^3 1e309": lambda: cg.log_grand_partition_product_form(HUGE, 5),
    # log Z is finite (2.2e305), but 3 T log Z is not
    "mean energy, 3 T log Z 7e308": lambda: cg.mean_energy(cg.ThermoState(1e3, 1e297)),
    "energy variance, 3 T log Z 7e308": lambda: cg.energy_variance(cg.ThermoState(1e3, 1e297)),
    # the mean energy is finite (6.6e306), the variance is not
    "energy variance, 12 T^2 log Z 3e310": lambda: cg.energy_variance(cg.ThermoState(1e3, 1e295)),
    # 4 / (3 log Z) overflows, or log Z underflows to 0
    "energy variance, log Z 2e-310": lambda: cg.energy_variance(cg.ThermoState(1e-3, 1e-300)),
    "energy variance, log Z 0": lambda: cg.energy_variance(cg.ThermoState(1e-3, 1e-320)),
    # the occupation underflows to 0 past h nu / kT ~ 745; <E>^2 does before it
    "band fluctuation, h nu / kT 1257": lambda: cg.band_fluctuation(
        cg.ThermoState(1.0), cg.BandSpec(nu=200.0, delta_nu=1.0, volume=1.0)
    ),
    "band fluctuation, <E>^2 underflows": lambda: cg.band_fluctuation(
        cg.ThermoState(1.0), cg.BandSpec(nu=100.0, delta_nu=1.0, volume=1.0)
    ),
    # <E> = 3e158 is finite, <E>^2 is not
    "band fluctuation, <E>^2 overflows": lambda: cg.band_fluctuation(
        cg.ThermoState(1.0), cg.BandSpec(nu=1.0, delta_nu=0.1, volume=1e160)
    ),
    # nu^2 = 1e320 raises OverflowError inside float arithmetic
    "band mode count, nu^2 1e320": lambda: cg.BandSpec(nu=1e160, delta_nu=1e158, volume=1.0).mode_count(),
    "band from mode count, nu^2 1e320": lambda: cg.BandSpec.from_mode_count(1e160, 1e158, 10.0),
    "band fluctuation, nu^2 1e320": lambda: cg.band_fluctuation(
        cg.ThermoState(1e160), cg.BandSpec(nu=1e160, delta_nu=1e158, volume=1.0)
    ),
    "Planck density, nu^3 1e309": lambda: cg.planck_spectral_density(cg.ThermoState(1e103), 1e103),
    # h nu / kT = 6e-320 is subnormal and its occupation overflows; u(nu) is 2.5e-39
    "Planck density, h nu / kT 6e-320": lambda: cg.planck_spectral_density(
        cg.ThermoState(1e200), 1e-120
    ),
    # h nu / kT underflows to 0, where the occupation 1 / (e^x - 1) is infinite
    "Planck density, h nu / kT 0": lambda: cg.planck_spectral_density(cg.ThermoState(1e200), 1e-200),
    "band fluctuation, h nu / kT 0": lambda: cg.band_fluctuation(
        cg.ThermoState(1.35e264), cg.BandSpec.from_mode_count(1.32e-66, 1.32e-67, 100.0)
    ),
    # products that overflow before a validated object could see them
    "photon cycle sums, V T^3 1e309": lambda: cg.CycleSumSequence.from_photon_gas(HUGE, 3),
    "band from mode count, 8 pi nu^2 dnu 2.5e450": lambda: cg.BandSpec.from_mode_count(1e150, 1e149, 10.0),
    # (m T / 2 pi)^(3/2) raises OverflowError, or m T is already inf
    "matter weight, m T 1e300": lambda: cg.matter_cycle_weight(HOT, 1e150, 1),
    "matter weight, m T 1e400": lambda: cg.matter_cycle_weight(cg.ThermoState(1e200), 1e200, 1),
    "Bose density cycle sum, m T 1e300": lambda: cg.bose_number_density_cycle(
        cg.ThermoState(1e150, 1.0, 0.0), 1e150
    ),
    "Bose density cycle sum, m T 1e400": lambda: cg.bose_number_density_cycle(
        cg.ThermoState(1e200, 1.0, 0.0), 1e200
    ),
    "Bose density integral, m T 1e400": lambda: cg.bose_number_density_integral(
        cg.ThermoState(1e200, 1.0, 0.5), 1e200
    ),
    "photon weight by quadrature, T 1e150": lambda: cg.photon_cycle_weight_by_quadrature(HOT, 1),
    "matter weight by quadrature, m T 1e400": lambda: cg.matter_cycle_weight_by_quadrature(
        cg.ThermoState(1e200), 1e200, 1
    ),
    "spectral integral, T^4 1e320": lambda: cg.spectral_energy_density_integral(cg.ThermoState(1e80)),
    # log Z is finite (2.2e304); its difference quotients are not
    "mean energy by difference, V T^3 1e305": lambda: cg.mean_energy_finite_difference(
        cg.ThermoState(1e100, 1e5)
    ),
    "variance by difference, V T^3 1e305": lambda: cg.energy_variance_finite_difference(
        cg.ThermoState(1e100, 1e5)
    ),
    "enumerated Z_25, C_s 1e300": lambda: cg.canonical_partition_enumerated(
        cg.CycleSumSequence(values=np.full(25, 1e300)), 25
    ),
    # 10^5 factors 1 / (1 - 0.9) = 10
    "grand mode product, 10^100000": lambda: cg.grand_partition_product(
        cg.ModeSpectrum.from_modes([0.0], [100000]), 0.9, 1.0
    ),
    "grand cycle form, 10^100000": lambda: cg.grand_partition_cycle(
        cg.ModeSpectrum.from_modes([0.0], [100000]), 0.9, 1.0
    ),
    "polylog r -1000": lambda: cg.polylog(-1000.0, 0.5),
    # (hbar c)^-3 = 3.2e76 per m^3
    "SI number density, 1e277 x 3.2e76": lambda: cg.UnitsPolicy("si").number_density_to_si(1e277),
}


@pytest.mark.parametrize("call", OVERFLOWING_CALLS.values(), ids=OVERFLOWING_CALLS.keys())
def test_overflow_is_a_size_error(call):
    with pytest.raises(SizeError):
        call()


def test_sizes_just_inside_the_range_stay_finite():
    state = cg.ThermoState(1e3, 1e290)
    assert math.isfinite(cg.mean_energy(state))
    assert math.isfinite(cg.log_grand_partition_cycle_series(state))


def test_relative_fluctuation_past_the_square_of_the_mean():
    # mean**2 overflows at this state; variance / mean**2 = 4 / (3 log Z) does not
    state = cg.ThermoState(1.0, 1e160)
    report = cg.energy_variance(state)
    assert report.relative_fluctuation == 4.0 / (3.0 * cg.log_grand_partition_integral(state))
    ratio = report.variance / report.mean_energy / report.mean_energy
    assert abs(report.relative_fluctuation - ratio) <= 1e-15 * ratio


def gated_calls(t, v, z, nu, mass):
    """One call of each function whose result can leave double range; matter ones at fugacity z."""
    photon = cg.ThermoState(t, v)
    matter = cg.ThermoState(t, v, z)
    band = cg.BandSpec(nu, 0.05 * nu, v)
    return {
        "photon weight": lambda: cg.photon_cycle_weight(photon, 1),
        "log Z integral": lambda: cg.log_grand_partition_integral(photon),
        "log Z cycle series": lambda: cg.log_grand_partition_cycle_series(photon),
        "log Z product form": lambda: cg.log_grand_partition_product_form(photon, 5),
        "mean energy": lambda: cg.mean_energy(photon),
        "mean energy by difference": lambda: cg.mean_energy_finite_difference(photon),
        "energy variance": lambda: cg.energy_variance(photon, 5),
        "variance by difference": lambda: cg.energy_variance_finite_difference(photon),
        "photon density": lambda: cg.photon_number_density(photon),
        "photon density cycle sum": lambda: cg.photon_number_density_cycle_sum(photon),
        "spectral integral": lambda: cg.spectral_energy_density_integral(photon),
        "Planck density": lambda: cg.planck_spectral_density(photon, nu),
        "band mode count": lambda: band.mode_count(),
        "band fluctuation": lambda: cg.band_fluctuation(photon, band),
        "band from mode count": lambda: cg.BandSpec.from_mode_count(nu, 0.05 * nu, v).volume,
        "photon weight by quadrature": lambda: cg.photon_cycle_weight_by_quadrature(photon, 1),
        "matter weight": lambda: cg.matter_cycle_weight(matter, mass, 1),
        "matter weight by quadrature": lambda: cg.matter_cycle_weight_by_quadrature(matter, mass, 1),
        "Bose density cycle sum": lambda: cg.bose_number_density_cycle(matter, mass),
        "Bose density integral": lambda: cg.bose_number_density_integral(matter, mass),
    }


def float_fields(value):
    if isinstance(value, cg.FluctuationReport):
        return [value.mean_energy, value.variance, value.relative_fluctuation,
                *value.per_cycle_contribution.values()]
    return value


MAGNITUDE = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(t=MAGNITUDE, v=MAGNITUDE, z=st.floats(0.0, 1.0), nu=MAGNITUDE, mass=MAGNITUDE)
def test_gated_results_are_finite_or_refused(t, v, z, nu, mass):
    for name, call in gated_calls(t, v, z, nu, mass).items():
        try:
            value = call()
        except (DomainError, SizeError, ConvergenceError):
            continue
        assert np.all(np.isfinite(np.asarray(float_fields(value), dtype=float))), name
