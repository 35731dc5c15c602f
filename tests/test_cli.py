import json
import math
import sys
import warnings

import numpy as np
import pytest

from cyclegas import cli, core, partition
from cyclegas._output import dumps
from cyclegas.core import HBAR_SI, KB_SI, C_SI, ThermoState
from cyclegas.observables import photon_number_density


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeightsCommand:
    def test_photon_table(self, capsys):
        code, out, _ = run(capsys, ["weights", "--temperature", "1", "--s-max", "5"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,f_s"
        assert len(lines) == 6
        s, f = lines[1].split(",")
        assert s == "1" and abs(float(f) - 2.0 / math.pi**2) < 1e-9
        s, f = lines[2].split(",")
        assert abs(float(f) - 2.0 / math.pi**2 / 8.0) < 1e-9

    def test_massive_requires_mass(self, capsys):
        code, _, err = run(capsys, ["weights", "--dispersion", "massive"])
        assert code == 2
        assert err.startswith("ERROR 2:")

    def test_massive_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["weights", "--dispersion", "massive", "--mass", str(2.0 * math.pi), "--s-max", "2"],
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert abs(float(rows[0].split(",")[1]) - 1.0) < 1e-9
        assert abs(float(rows[1].split(",")[1]) - 2.0**-1.5) < 1e-9

    @pytest.mark.parametrize(
        "flags",
        [
            ["--dispersion", "massive", "--mass", "1e200", "--temperature", "1e200"],  # m T = inf
            ["--dispersion", "massive", "--mass", "1e150", "--temperature", "1e150"],  # ** 1.5 raises
            ["--units", "si", "--temperature", "1e101"],  # f_s fits, f_s / (hbar c)^3 does not
        ],
        ids=["m T inf", "m T 1e300", "SI f_s"],
    )
    def test_weights_past_double_range_are_size_errors(self, capsys, flags):
        code, out, err = run(capsys, ["weights", *flags])
        assert code == 2 and out == ""
        assert err.startswith("ERROR 2:")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["weights", "--s-max", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["s", "f_s"]
        assert len(payload["rows"]) == 2


class TestPartitionCommand:
    def test_continuum_trace(self, capsys):
        code, out, _ = run(capsys, ["partition", "--s-max", "10"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,f_s,log_z_partial,log_z_integral"
        last = lines[-1].split(",")
        assert abs(float(last[3]) - math.pi**2 / 45.0) < 1e-8
        # the partial-product column increases toward the integral value
        partials = [float(line.split(",")[2]) for line in lines[1:]]
        assert partials == sorted(partials)
        assert partials[-1] < math.pi**2 / 45.0

    def test_discrete_z_table(self, capsys, tmp_path):
        spectrum = tmp_path / "modes.txt"
        spectrum.write_text("# two modes\n0.0\n1.0\n")
        code, out, _ = run(
            capsys,
            ["partition", "--spectrum-file", str(spectrum), "--n-max", "2", "--temperature", "1"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,Z_N"
        assert float(lines[1].split(",")[1]) == 1.0
        expected_z2 = 1.0 + math.exp(-1.0) + math.exp(-2.0)
        assert abs(float(lines[3].split(",")[1]) - expected_z2) < 1e-8

    def test_missing_n_max(self, capsys, tmp_path):
        spectrum = tmp_path / "modes.txt"
        spectrum.write_text("1.0\n")
        code, _, err = run(capsys, ["partition", "--spectrum-file", str(spectrum)])
        assert code == 2 and "n-max" in err

    @pytest.mark.parametrize("energy", ["nan", "inf"])
    def test_non_finite_energy(self, capsys, tmp_path, energy):
        spectrum = tmp_path / "modes.txt"
        spectrum.write_text(f"0.5\n{energy}\n")
        code, out, err = run(capsys, ["partition", "--spectrum-file", str(spectrum), "--n-max", "2"])
        assert code == 2 and out == ""
        assert "mode energies must be finite" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["partition", "--spectrum-file", "/nonexistent", "--n-max", "2"])
        assert code == 2


class TestSpectrumCommand:
    def test_columns_and_dimensionless_planck(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--points", "4", "--x-min", "1", "--x-max", "4"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "nu,u_nu,x,planck_x"
        for line in lines[1:]:
            nu, u_nu, x, planck_x = map(float, line.split(","))
            assert abs(planck_x - x**3 / (math.exp(x) - 1.0)) < 1e-7
            assert abs(nu - x / (2.0 * math.pi)) < 1e-9

    def test_wien_tail_past_exp_overflow(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--points", "3", "--x-max", "800"])
        assert code == 0
        last = out.strip().split("\n")[-1]
        assert [float(v) for v in last.split(",")[1:]] == [0.0, 800.0, 0.0]

    def test_grid_is_numpys_linspace(self):
        rng = np.random.default_rng(22)
        # the first two have a step below the smallest subnormal, where numpy rescales
        cases = [(5e-324, 1e-323, 4), (1e-322, 2e-322, 100)]
        for _ in range(2000):
            x_min = float(10.0 ** rng.uniform(-3.0, 2.0))
            cases.append((x_min, x_min + float(10.0 ** rng.uniform(-6.0, 3.0)), int(rng.integers(2, 301))))
        for x_min, x_max, points in cases:
            grid = [x.hex() for x in cli._linspace(x_min, x_max, points)]
            assert grid == [x.hex() for x in np.linspace(x_min, x_max, points).tolist()]

    def test_grid_validation(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--x-min", "5", "--x-max", "1"])
        assert code == 2

    def test_planck_density_past_double_range_is_an_error_not_a_warning(self, capsys):
        # nu^3 overflows at T = kB * 1e280; it must raise SizeError, not warn and give inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["spectrum", "--units", "si", "--temperature", "1e280"])
        assert code == 2 and out == ""
        assert err.startswith("ERROR 2:")


class TestDensityCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["density", "--temperature", "1"])
        assert code == 0
        payload = json.loads(out)
        expected = photon_number_density(ThermoState(1.0))
        assert abs(payload["photon_number_density"] - expected) < 1e-9
        assert abs(payload["coherence_volume_count"] - expected) < 1e-9

    def test_photon_fugacity_rejected(self, capsys):
        code, _, err = run(capsys, ["density", "--fugacity", "0.5"])
        assert code == 2
        assert err.startswith("ERROR 2:")

    def test_units_agree_after_conversion(self, capsys):
        t_kelvin = 300.0
        code, out_si, _ = run(capsys, ["density", "--units", "si", "--temperature", str(t_kelvin)])
        assert code == 0
        t_internal = KB_SI * t_kelvin
        code, out_nat, _ = run(capsys, ["density", "--temperature", repr(t_internal)])
        assert code == 0
        n_si = json.loads(out_si)["photon_number_density"]
        n_nat = json.loads(out_nat)["photon_number_density"]
        assert abs(n_si - n_nat / (HBAR_SI * C_SI) ** 3) <= 1e-9 * abs(n_si)
        # coherence-volume count is dimensionless, identical in both modes
        assert abs(
            json.loads(out_si)["coherence_volume_count"]
            - json.loads(out_nat)["coherence_volume_count"]
        ) <= 1e-9


class TestFluctuationsCommand:
    def test_report_payload(self, capsys):
        code, out, _ = run(capsys, ["fluctuations", "--s-max", "5"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["variance"] - 4.0 * math.pi**2 / 15.0) < 1e-8
        assert abs(payload["per_cycle_contribution"]["1"] - 12.0 * 2.0 / math.pi**2) < 1e-8

    def test_band_section(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "fluctuations",
                "--volume", repr(12.5 * math.pi**2),
                "--nu", repr(1.0 / math.pi),
                "--delta-nu", repr(0.1 / math.pi),
            ],
        )
        assert code == 0
        band = json.loads(out)["band"]
        assert abs(band["mode_count"] - 10.0) < 1e-9
        assert abs(band["wave_term"] - 0.1) < 1e-12
        total = band["wave_term"] + band["particle_term"]
        assert abs(band["relative_fluctuation"] - total) < 1e-9

    def test_band_flags_must_pair(self, capsys):
        code, _, err = run(capsys, ["fluctuations", "--nu", "1.0"])
        assert code == 2


class TestSampleCommand:
    def test_byte_stable_output(self, capsys):
        argv = ["sample", "--seed", "12", "--replicas", "5", "--s-max", "10", "--volume", "50"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["config"]["seed"] == 12

    def test_csv_histogram(self, capsys):
        code, out, _ = run(
            capsys,
            ["sample", "--seed", "1", "--replicas", "3", "--s-max", "5", "--volume", "50", "--format", "csv"],
        )
        assert code == 0
        assert out.startswith("s,photon_count\n")

    def test_si_config_is_echoed_in_si(self, capsys):
        argv = ["sample", "--units", "si", "--temperature", "300", "--volume", "1e-18", "--replicas", "3"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["temperature"], config["volume"]) == (300, 1e-18)

    @pytest.mark.parametrize("flags", [["--fugacity", "0.5"], ["--seed", "-1"]])
    def test_rejected_config_is_a_usage_error(self, capsys, flags):
        code, out, err = run(capsys, ["sample", "--replicas", "2", "--s-max", "5", *flags])
        assert code == 2 and out == ""
        assert err.startswith("ERROR 2:")


class TestVerifyCommand:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.startswith("PASS") for line in lines)
        assert lines[-1].startswith("PASS  overall")

    def test_zeta_check_catches_a_perturbed_zeta(self, capsys, monkeypatch):
        name = "zeta equals Bose quadrature / (r-1)!"
        _, out, _ = run(capsys, ["verify"])
        assert any(line.startswith(f"PASS  {name}") for line in out.splitlines())
        original = core.riemann_zeta
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "cyclegas"]:
            if getattr(module, "riemann_zeta", None) is original:
                monkeypatch.setattr(module, "riemann_zeta", lambda r: original(r) * (1.0 + 1e-9))
        code, out, err = run(capsys, ["verify"])
        assert code == 1 and err.startswith("ERROR 1:")
        assert any(line.startswith(f"FAIL  {name}") for line in out.splitlines())

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        # the NaN arrives after the first z of the Bose check, where max() would drop it
        name = "Bose density: cycle sum vs momentum integral"
        original = partition.bose_number_density_integral
        monkeypatch.setattr(
            partition,
            "bose_number_density_integral",
            lambda state, mass: math.nan if state.fugacity > 0.1 else original(state, mass),
        )
        code, out, err = run(capsys, ["verify"])
        assert code == 1 and err.startswith("ERROR 1:")
        assert any(line.startswith(f"FAIL  {name}") for line in out.splitlines())
        assert out.splitlines()[-1].startswith("FAIL  overall")


class TestOutputHandling:
    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "out" / "weights.csv"
        code, out, _ = run(capsys, ["weights", "--s-max", "2", "--output", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("s,f_s\n")

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, _, _ = run(capsys, ["density", "--output", "report.json"])
        assert code == 0
        assert (tmp_path / "report.json").exists()

    def test_numpy_scalars_print_as_python_numbers(self):
        values = [np.int64(-7), np.uint64(2**64 - 1), np.float32(0.1), np.float64(1 / 3),
                  np.float64(2.5e-300), np.float32(3e38), 5, 1e100, True]
        assert dumps({"a": values}) == (
            '{"a":[-7,18446744073709551615,0.100000001,0.333333333,2.5e-300,3.00000001e+38,5,1e+100,true]}'
        )
        for value in (np.bool_(True), np.complex128(1.0), None):
            with pytest.raises(TypeError):
                dumps(value)

    def test_nine_significant_digits(self, capsys):
        code, out, _ = run(capsys, ["weights", "--s-max", "1"])
        value = out.strip().split("\n")[1].split(",")[1]
        assert value == "0.202642367"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli.main(["density", "--nope"]) == 2
        capsys.readouterr()

    def test_bad_domain_value(self, capsys):
        code, _, err = run(capsys, ["density", "--temperature", "-4"])
        assert code == 2
        assert err.startswith("ERROR 2:")
