"""Command-line surface: tables, spectra, reports, and the verify suite.

Commands emit CSV or JSON (9 significant digits, byte-stable for fixed
inputs and seed) to stdout or to --output; a relative --output path lands
in $CYCLEGAS_OUTPUT_DIR when that is set.  In --units si all inputs are SI
(kelvin, m^3, Hz, kg) and all outputs are SI (J, m^-3, J m^-3 Hz^-1);
conversion happens only at this boundary.

Exit codes: 0 success, 2 usage error (a flag the command does not read,
flags that do not go together, such as --mass without --dispersion
massive, or values whose result leaves double range), 1 computational
error (failed verification, quadrature failure).  Errors go to stderr
with the prefix "ERROR <code>:".
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import observables, oracle, partition, sampler
from ._output import dumps
from .core import (
    ConvergenceError,
    DomainError,
    SizeError,
    ThermoState,
    UnitsPolicy,
    bose_quadrature,
    riemann_zeta,
)
from .cycle_weights import matter_cycle_weight, photon_cycle_weight

OUTPUT_DIR_ENV = "CYCLEGAS_OUTPUT_DIR"


def _table_text(columns, rows, fmt) -> str:
    if fmt == "json":
        payload = {"columns": list(columns), "rows": [list(map(float, r)) for r in rows]}
        return dumps(payload) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(dumps(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _mapping_text(mapping, fmt) -> str:
    if fmt == "json":
        return dumps(mapping) + "\n"
    lines = ["quantity,value"] + [f"{key},{dumps(value)}" for key, value in mapping.items()]
    return "\n".join(lines) + "\n"


def _add_common(sub, default_format, volume):
    sub.add_argument("--temperature", type=float, default=1.0,
                     help="temperature (energy in natural units, kelvin in SI)")
    if volume:
        sub.add_argument("--volume", type=float,
                         help="volume ((length)^3 natural, m^3 in SI; default 1)")
    sub.add_argument("--units", choices=("natural", "si"), default="natural")
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--output", default="-", help="output file, '-' for stdout")


class _Parser(argparse.ArgumentParser):
    # route argparse usage errors through the "ERROR <code>:" convention
    def error(self, message):
        print(f"ERROR 2: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyclegas",
        description="Black-body and ideal Bose-gas thermodynamics from the cycle expansion",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("weights", help="per-volume cycle weights f_s")
    _add_common(sub, "csv", volume=False)
    sub.add_argument("--s-max", type=int, default=10)
    sub.add_argument("--dispersion", choices=("photon", "massive"), default="photon")
    sub.add_argument("--mass", type=float, help="mass (natural energy units, kg in SI)")

    sub = subs.add_parser("partition", help="log Z convergence trace or discrete Z_N table")
    _add_common(sub, "csv", volume=True)
    sub.add_argument("--s-max", type=int, help="largest cycle size of the trace (default 50)")
    sub.add_argument("--spectrum-file", help="discrete mode spectrum; switches to the Z_N table")
    sub.add_argument("--n-max", type=int, help="largest N for the Z_N table")

    sub = subs.add_parser("spectrum", help="Planck spectral density table")
    _add_common(sub, "csv", volume=False)
    sub.add_argument("--x-min", type=float, default=0.05, help="smallest h*nu/kT")
    sub.add_argument("--x-max", type=float, default=20.0, help="largest h*nu/kT")
    sub.add_argument("--points", type=int, default=200)

    sub = subs.add_parser("fluctuations", help="energy variance and its cycle decomposition")
    _add_common(sub, "json", volume=True)
    sub.add_argument("--s-max", type=int, default=50)
    sub.add_argument("--nu", type=float, help="band center frequency")
    sub.add_argument("--delta-nu", type=float, help="band width")

    sub = subs.add_parser("density", help="photon number density and coherence-volume count")
    _add_common(sub, "json", volume=False)

    sub = subs.add_parser("sample", help="Monte Carlo estimates with error bars")
    _add_common(sub, "json", volume=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--replicas", type=int, default=100)
    sub.add_argument("--s-max", type=int, default=50)

    sub = subs.add_parser("verify", help="run the full cross-validation suite")
    sub.add_argument("--seed", type=int, default=20260811)
    sub.add_argument("--output", default="-")

    return parser


def _state(args, units: UnitsPolicy) -> ThermoState:
    # commands without --volume give per-volume results at the default volume
    volume = getattr(args, "volume", None)
    return units.state_from_si(args.temperature, 1.0 if volume is None else volume)


def cmd_weights(args, units: UnitsPolicy) -> str:
    state = _state(args, units)
    if args.s_max < 1:
        raise DomainError("--s-max must be >= 1")
    if (args.dispersion == "massive") != (args.mass is not None):
        raise DomainError("--dispersion massive and --mass must be given together")
    if args.dispersion == "massive":
        weight = partial(matter_cycle_weight, state, units.mass_from_si(args.mass))
    else:
        weight = partial(photon_cycle_weight, state)
    rows = [(s, units.number_density_to_si(weight(s))) for s in range(1, args.s_max + 1)]
    return _table_text(("s", "f_s"), rows, args.format)


def cmd_partition(args, units: UnitsPolicy) -> str:
    state = _state(args, units)
    if args.spectrum_file:
        if args.n_max is None or args.s_max is not None or args.volume is not None:
            raise DomainError("--spectrum-file takes --n-max, and neither --s-max nor --volume")
        spectrum = oracle.load_spectrum(args.spectrum_file)
        sums = spectrum.cycle_sums(state.beta, max(args.n_max, 1))
        table = partition.canonical_partition_table(sums, args.n_max)
        rows = [(n, table[n]) for n in range(args.n_max + 1)]
        return _table_text(("N", "Z_N"), rows, args.format)
    if args.n_max is not None:
        raise DomainError("--n-max requires --spectrum-file")
    s_max = 50 if args.s_max is None else args.s_max
    log_z = partition.log_grand_partition_integral(state)
    partial_logs = partition.log_grand_partition_product_form(state, s_max)
    rows = []
    for s in range(1, s_max + 1):
        f_s = photon_cycle_weight(state, s)
        rows.append((s, units.number_density_to_si(f_s), partial_logs[s - 1], log_z))
    return _table_text(("s", "f_s", "log_z_partial", "log_z_integral"), rows, args.format)


def cmd_spectrum(args, units: UnitsPolicy) -> str:
    state = _state(args, units)
    if not (0 < args.x_min < args.x_max) or args.points < 2:
        raise DomainError("need 0 < --x-min < --x-max and --points >= 2")
    rows = []
    for x in np.linspace(args.x_min, args.x_max, args.points).tolist():  # floats: nu**3 raises
        nu = x * state.temperature / (2.0 * math.pi)
        u = observables.planck_spectral_density(state, nu)
        planck_x = x**3 * observables._planck_occupation(x)
        rows.append((units.frequency_to_si(nu), units.spectral_density_to_si(u), x, planck_x))
    return _table_text(("nu", "u_nu", "x", "planck_x"), rows, args.format)


def cmd_fluctuations(args, units: UnitsPolicy) -> str:
    state = _state(args, units)
    report = observables.energy_variance(state, s_max=args.s_max)
    # the internal energy unit is the joule, so energies pass through in SI
    payload = {
        "mean_energy": report.mean_energy,
        "variance": report.variance,
        "relative_fluctuation": report.relative_fluctuation,
        "per_cycle_contribution": {
            str(s): v for s, v in report.per_cycle_contribution.items()
        },
    }
    if (args.nu is None) != (args.delta_nu is None):
        raise DomainError("--nu and --delta-nu must be given together")
    if args.nu is not None:
        band = observables.BandSpec(
            nu=units.frequency_from_si(args.nu),
            delta_nu=units.frequency_from_si(args.delta_nu),
            volume=state.volume,
        )
        relative, wave, particle = observables.band_fluctuation(state, band)
        payload["band"] = {
            "relative_fluctuation": relative,
            "wave_term": wave,
            "particle_term": particle,
            "mode_count": band.mode_count(),
        }
    if args.format == "csv":
        rows = [(s, v) for s, v in report.per_cycle_contribution.items()]
        return _table_text(("s", "variance_contribution"), rows, "csv")
    return dumps(payload) + "\n"


def cmd_density(args, units: UnitsPolicy) -> str:
    state = _state(args, units)
    payload = {
        "photon_number_density": units.number_density_to_si(
            observables.photon_number_density(state)
        ),
        "coherence_volume_count": observables.coherence_volume_photon_count(state),
    }
    return _mapping_text(payload, args.format)


def cmd_sample(args, units: UnitsPolicy) -> str:
    state = _state(args, units)
    config = sampler.SampleConfig(
        seed=args.seed, replicas=args.replicas, s_max=args.s_max, state=state
    )
    report = sampler.estimate_observables(config)
    if args.format == "csv":
        return report.histogram_csv()
    # the report echoes its state in internal units; print it in the input's units
    temperature, volume, _fugacity = units.state_to_si(state)
    report.config.update(temperature=temperature, volume=volume)
    return report.to_json() + "\n"


def _verify_checks(seed: int):
    rng = np.random.default_rng(seed)
    checks = []

    # np.max, not max: max drops a NaN deviation unless it comes first
    dev = np.max([
        abs(riemann_zeta(r) - bose_quadrature(r - 1) / math.factorial(r - 1)) / riemann_zeta(r)
        for r in (2, 3, 4, 5)
    ])
    checks.append(("zeta equals Bose quadrature / (r-1)!", dev <= 1e-12, f"max rel dev {dev:.2e}"))

    dev = 0.0
    for t in (0.1, 1.0, 10.0):
        for v in (1.0, 10.0):
            state = ThermoState(t, v)
            a = partition.log_grand_partition_integral(state)
            b = partition.log_grand_partition_cycle_series(state)
            dev = np.max([dev, abs(a - b) / abs(a)])
    checks.append(("integral vs cycle-series log Z", dev <= 1e-10, f"max rel dev {dev:.2e}"))

    state = ThermoState(1.0, 1.0)
    products = np.exp(partition.log_grand_partition_product_form(state, 50))
    monotone = bool(np.all(np.diff(products) > 0.0))
    target = math.exp(partition.log_grand_partition_integral(state))
    final_gap = (target - products[-1]) / target
    ok = monotone and 0.0 < final_gap < 2e-6
    checks.append(
        ("product form monotone convergence", ok, f"relative gap at s=50: {final_gap:.2e}")
    )

    dev = 0.0
    for _ in range(5):
        values = rng.uniform(0.1, 2.0, size=12)
        sums = partition.CycleSumSequence(values=values)
        rec = partition.canonical_partition_table(sums, 12)[12]
        enum = partition.canonical_partition_enumerated(sums, 12)[0]
        dev = np.max([dev, abs(rec - enum) / abs(rec)])
    checks.append(("recursion vs enumeration Z_N", dev <= 1e-12, f"max rel dev {dev:.2e}"))

    dev = 0.0
    dev_grand = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 5))
        spectrum = oracle.ModeSpectrum.from_modes(
            np.sort(rng.uniform(0.2, 3.0, size=m)), rng.integers(1, 3, size=m)
        )
        n = int(rng.integers(1, 7))
        for beta in (0.5, 1.0, 2.0):
            occ = oracle.canonical_by_occupation(spectrum, n, beta)
            perm = oracle.canonical_by_permutations(spectrum, n, beta)
            rec = partition.canonical_partition_table(spectrum.cycle_sums(beta, n), n)[n]
            dev = np.max([dev, abs(occ - perm) / occ, abs(occ - rec) / occ])
            z = 0.89 * math.exp(beta * float(spectrum.energies[0]))
            prod = oracle.grand_partition_product(spectrum, z, beta)
            cyc = oracle.grand_partition_cycle(spectrum, z, beta)
            dev_grand = np.max([dev_grand, abs(prod - cyc) / prod])
    checks.append(("oracle triple agreement", dev <= 1e-12, f"max rel dev {dev:.2e}"))
    checks.append(("grand product vs cycle form", dev_grand <= 1e-10, f"max rel dev {dev_grand:.2e}"))

    dev = 0.0
    for z in (0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12, 1.0):
        state = ThermoState(1.37, 1.0, z)
        a = partition.bose_number_density_cycle(state, mass=2.0 * math.pi)
        b = partition.bose_number_density_integral(state, mass=2.0 * math.pi)
        dev = np.max([dev, abs(a - b) / b])
    checks.append(("Bose density: cycle sum vs momentum integral", dev <= 1e-8, f"max rel dev {dev:.2e}"))

    dev = 0.0
    for _ in range(200):
        t = float(rng.uniform(0.2, 5.0))
        nu = float(rng.uniform(0.05, 5.0))
        modes = float(rng.uniform(1.0, 1e4))
        band = observables.BandSpec.from_mode_count(nu, 0.05 * nu, modes)
        relative, wave, particle = observables.band_fluctuation(ThermoState(t), band)
        dev = np.max([dev, abs(particle + wave - relative) / relative])
    checks.append(("wave + particle = relative fluctuation", dev <= 1e-12, f"max rel dev {dev:.2e}"))

    state = ThermoState(1.0, 1.0)
    a = observables.mean_energy(state)
    b = observables.spectral_energy_density_integral(state) * state.volume
    dev = abs(a - b) / a
    checks.append(("mean energy: cycle route vs spectral integral", dev <= 1e-8, f"rel dev {dev:.2e}"))

    return checks


def cmd_verify(args) -> tuple[str, bool]:
    checks = _verify_checks(args.seed)
    width = max(len(name) for name, _ok, _detail in checks)
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}"
        for name, ok, detail in checks
    ]
    all_ok = all(ok for _name, ok, _detail in checks)
    lines.append(f"{'PASS' if all_ok else 'FAIL'}  overall")
    return "\n".join(lines) + "\n", all_ok


def _write_output(text: str, target: str) -> None:
    if target == "-":
        sys.stdout.write(text)
        return
    path = Path(target)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        if args.command == "verify":
            text, ok = cmd_verify(args)
            _write_output(text, args.output)
            if not ok:
                print("ERROR 1: verification failed", file=sys.stderr)
                return 1
            return 0
        units = UnitsPolicy(mode=args.units)
        handler = {
            "weights": cmd_weights,
            "partition": cmd_partition,
            "spectrum": cmd_spectrum,
            "fluctuations": cmd_fluctuations,
            "density": cmd_density,
            "sample": cmd_sample,
        }[args.command]
        text = handler(args, units)
        _write_output(text, args.output)
        return 0
    except (DomainError, SizeError, OSError, ValueError) as exc:
        print(f"ERROR 2: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, RuntimeError) as exc:
        print(f"ERROR 1: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
