"""scipy is a test-only dependency: `import cyclegas` and every command,
`verify` included, run without it.  Each check runs in a fresh interpreter,
because this test session has imported scipy already."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODES = ROOT / "tests" / "data" / "cli_golden" / "modes.txt"


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
