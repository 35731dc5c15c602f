"""scipy is a test-only dependency: `import cyclegas` and every command,
`verify` included, run without it.  numpy loads only on the array paths:
`import cyclegas` and the scalar commands (weights, spectrum, density) run
without it.  Each check runs in a fresh interpreter, because this test
session has imported scipy and numpy already."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODES = ROOT / "tests" / "data" / "cli_golden" / "modes.txt"

# the public names of the package before its imports became lazy
PUBLIC_NAMES = [
    "BandSpec", "ConvergenceError", "CycleSumSequence", "DomainError", "FluctuationReport",
    "ModeSpectrum", "SampleConfig", "SampleReport", "SizeError", "ThermoState", "UnitsPolicy",
    "band_fluctuation", "bose_integral", "bose_number_density_cycle",
    "bose_number_density_integral", "bose_quadrature", "canonical_by_occupation",
    "canonical_by_permutations", "canonical_partition_enumerated", "canonical_partition_table",
    "coherence_volume_photon_count", "core", "cycle_types", "cycle_weights", "decay_comparison",
    "energy_variance", "energy_variance_finite_difference", "estimate_observables",
    "grand_partition_cycle", "grand_partition_from_canonical", "grand_partition_product",
    "histogram_loglog_slope", "load_spectrum", "log_grand_partition_cycle_series",
    "log_grand_partition_integral", "log_grand_partition_product_form", "matter_cycle_weight",
    "matter_cycle_weight_by_quadrature", "mean_energy", "mean_energy_finite_difference",
    "observables", "oracle", "partition", "photon_cycle_weight",
    "photon_cycle_weight_by_quadrature", "photon_number_density",
    "photon_number_density_cycle_sum", "planck_spectral_density", "polylog", "riemann_zeta",
    "sample_cycle_configuration", "sampler", "spectral_energy_density_integral", "tail_bracket",
    "wien_peak_x",
]


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def test_import_loads_no_scipy():
    result = run_python(
        "import sys, cyclegas\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_every_command_runs_without_scipy():
    commands = [
        ["weights", "--s-max", "3"],
        ["weights", "--dispersion", "massive", "--mass", "2", "--s-max", "3"],
        ["partition", "--s-max", "5"],
        ["partition", "--spectrum-file", str(MODES), "--n-max", "4"],
        ["spectrum", "--points", "5"],
        ["fluctuations", "--volume", "100", "--nu", "0.3", "--delta-nu", "0.03"],
        ["density"],
        ["sample", "--replicas", "3", "--s-max", "5", "--volume", "10"],
        ["verify"],
    ]
    result = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from cyclegas import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "PASS  overall"


def test_import_loads_no_numpy():
    result = run_python(
        "import sys, cyclegas\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_scalar_commands_run_without_numpy():
    commands = [
        ["weights"],
        ["weights", "--dispersion", "massive", "--mass", "2"],
        ["spectrum"],
        ["spectrum", "--units", "si"],
        ["density"],
        ["density", "--units", "si", "--format", "json"],
    ]
    result = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "from cyclegas import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    assert result.returncode == 0, result.stderr


def test_lazy_names_are_the_public_names():
    result = run_python(
        "import cyclegas\n"
        "star = {}\n"
        "exec('from cyclegas import *', star)\n"
        "print(sorted(n for n in star if n != '__builtins__'))\n"
        "print(sorted(n for n in dir(cyclegas) if not n.startswith('_')))\n"
        "print(cyclegas.ThermoState is cyclegas.core.ThermoState, 'ThermoState' in vars(cyclegas))\n"
    )
    assert result.returncode == 0, result.stderr
    star, listed, bound = result.stdout.splitlines()
    assert star == listed == str(PUBLIC_NAMES)
    assert bound == "True True"  # the first access binds the name in the package
