"""Byte-for-byte replay of a fixed corpus of CLI commands.

The corpus holds one fixed instance of each command form the benchmark's
cold-CLI workload runs, plus the command examples from the README.  `verify`
is left out: its list of checks is part of what changes when a check is
replaced, and tests/test_cli.py covers it.

The expected outputs in tests/data/cli_golden/ are re-recorded only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from cyclegas import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

CORPUS = {
    # the cold-CLI workload's command forms
    "weights": ["weights", "--temperature", "1.7", "--s-max", "20"],
    "weights_massive_json": [
        "weights", "--dispersion", "massive", "--mass", "9.42477796", "--temperature", "0.6",
        "--s-max", "12", "--format", "json",
    ],
    "partition": ["partition", "--temperature", "2.3", "--volume", "37.5", "--s-max", "40"],
    "partition_spectrum_json": [
        "partition", "--spectrum-file", "trap6.txt", "--n-max", "12", "--temperature", "0.8",
        "--format", "json",
    ],
    "spectrum_json": [
        "spectrum", "--x-min", "0.3", "--x-max", "12.5", "--points", "120", "--temperature", "1.4",
        "--format", "json",
    ],
    "fluctuations_band": [
        "fluctuations", "--temperature", "1.2", "--volume", "3183.1", "--nu", "0.5",
        "--delta-nu", "0.025",
    ],
    "density_si": ["density", "--units", "si", "--temperature", "5778"],
    "sample": [
        "sample", "--seed", "2718281828", "--replicas", "200", "--s-max", "50",
        "--temperature", "1.05", "--volume", "8638.376",
    ],
    "density_csv": ["density", "--temperature", "0.45", "--format", "csv"],
    "spectrum_si": [
        "spectrum", "--x-min", "0.2", "--x-max", "18", "--points", "250", "--units", "si",
        "--temperature", "3000",
    ],
    "fluctuations_csv": [
        "fluctuations", "--temperature", "2.5", "--volume", "12", "--s-max", "33", "--format", "csv",
    ],
    # the README's command examples
    "readme_weights": ["weights", "--temperature", "1", "--s-max", "5"],
    "readme_weights_massive": ["weights", "--dispersion", "massive", "--mass", "6.2832", "--s-max", "5"],
    "readme_partition": ["partition", "--s-max", "50"],
    "readme_partition_spectrum": ["partition", "--spectrum-file", "modes.txt", "--n-max", "12"],
    "readme_spectrum": ["spectrum", "--x-min", "0.1", "--x-max", "15", "--points", "300"],
    "readme_fluctuations": ["fluctuations", "--volume", "123.37", "--nu", "0.3183", "--delta-nu", "0.0318"],
    "readme_density": ["density", "--temperature", "1"],
    "readme_sample": ["sample", "--seed", "42", "--replicas", "200", "--s-max", "50", "--volume", "1e4"],
}


def run(name):
    # spectrum files sit next to the expected outputs
    argv = [str(GOLDEN / arg) if arg.endswith(".txt") else arg for arg in CORPUS[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stdout_matches_golden(name):
    code, out = run(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name in CORPUS:
        code, out = run(name)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
