"""Run one cyclegas benchmark workload and print its metrics.

    python3 bench/run.py --workload {cli-cold,sampler,canonical,analytic}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/ directory.  With --trace 0 the end-to-end metrics of BENCHMARK.json are
measured; with --trace 1 the same ops run untraced and then traced, their
outputs are compared, and the per-layer metrics are reported.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report.  Results and
traces are also written under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
SETUP_RUNS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "sampler", "canonical", "analytic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="generate the inputs, print 'ready' and exit (times set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads and inherited by every child:
    # the run is single-process with one client.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "cyclegas" / "__init__.py").is_file():
        print(f"bench: no cyclegas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import cyclegas

    if Path(cyclegas.__file__).resolve().parent != ROOT / "src" / "cyclegas":
        print(f"bench: imported cyclegas from {cyclegas.__file__}, not this checkout", file=sys.stderr)
        return 2
    from bench import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT_DIR)
    if args.setup_probe:
        next(iter(workload.schedule()))
        print("ready", flush=True)
        return 0
    run = traced_run if args.trace else untraced_run
    return run(workload, args)


def benchmark_metrics(kind: str) -> dict:
    """name -> unit of the metrics that BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def untraced_run(workload, args) -> int:
    from bench import harness

    env = harness.environment(ROOT, args.seed)
    probe = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    spawn_calibrator = harness.Calibrator(harness.FRESH_PROCESS)
    setup = harness.setup_times(probe, SETUP_RUNS, os.environ, ROOT, spawn_calibrator)
    calibrator = (
        spawn_calibrator if workload.calibration is harness.FRESH_PROCESS else harness.Calibrator(workload.calibration)
    )
    workload.warm_up()
    phase = harness.measure(workload.schedule(), workload.execute, workload.check, args.seconds, calibrator)
    peak_rss_mb = workload.peak_rss_mb()  # before the summary's per-op lists are built
    s = harness.summarize(phase)
    s.update(
        setup_s=statistics.median(t for _wall, t in setup),
        setup_s_wall=statistics.median(wall for wall, _t in setup),
        peak_rss_mb=peak_rss_mb,
    )
    failures = count_failures(phase.failures)
    probes = probe_defects(workload)

    units = benchmark_metrics("end_to_end")
    report = [
        f"cyclegas benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, untraced",
        f"environment {json.dumps(env)}",
        "metric          calibrated  wall",
        f"setup_s         {s['setup_s']:<11.6g} {s['setup_s_wall']:<11.6g} s    "
        f"median of {SETUP_RUNS} fresh processes",
        f"ops_per_s       {s['ops_per_s']:<11.6g} {s['ops_per_s_wall']:<11.6g} 1/s  "
        f"{s['attempted']} ops in {phase.busy:.3f} s busy",
        f"latency_p50_s   {s['latency_p50_s']:<11.6g} {s['latency_p50_s_wall']:<11.6g} s",
        f"latency_tail_s  {s['latency_tail_s']:<11.6g} {s['latency_tail_s_wall']:<11.6g} s    "
        f"p{s['tail_percentile']:.3f}, {s['tail_samples_beyond']} of {s['attempted']} samples beyond",
        f"error_rate      {s['error_rate']:.6g} ratio  {s['failed']} of {s['attempted']} ops failed",
        f"peak_rss_mb     {s['peak_rss_mb']:.6g} MiB",
        f"calibration kernel {calibrator.kernel.__name__}: median {statistics.median(calibrator.samples):.6g} s "
        f"over {len(calibrator.samples)} runs, reference {calibrator.reference_s:g} s",
    ] + failure_lines(failures) + probe_lines(probes)
    correct = not failures
    metrics = {name: {"value": s[name], "unit": unit} for name, unit in units.items()}
    record = {"environment": env, "summary": s, "setup_runs_s": setup, "metrics": metrics,
              "calibration_kernel_s": calibrator.samples, "failures": failures, "defect_probes": probes,
              "correct": correct}
    return finish(args, report, record, correct, s, metrics)


def traced_run(workload, args) -> int:
    """Untraced then traced passes over the same ops; per-layer metrics from the second."""
    from bench import harness, tracing

    env = harness.environment(ROOT, args.seed)
    half = args.seconds / 2.0
    calibrator = harness.Calibrator(workload.calibration)
    workload.warm_up()
    plain = harness.measure(workload.schedule(), workload.execute, workload.check, half, calibrator, record=True)
    probes = probe_defects(workload)
    tracer = tracing.Tracer()
    if args.workload == "cli-cold":
        execute = workload.execute_traced  # the launcher traces inside each process
    else:
        tracing.install(tracer)
        execute = workload.execute
    traced = harness.measure(
        plain.ops, lambda op: tracer.run_op(execute, op), workload.check, half, calibrator, record=True
    )
    n = len(traced.ops)
    cli_stages = merge_cli_traces(tracer, workload.trace_files[:n]) if args.workload == "cli-cold" else {}
    mismatched = [i for i, (a, b) in enumerate(zip(plain.outcomes, traced.outcomes)) if a != b]
    plain_rate = harness.summarize(plain, n)["ops_per_s"]
    traced_rate = harness.summarize(traced)["ops_per_s"]
    values = tracing.layer_metrics(tracer, n, cli_stages)
    values["trace.overhead_ops_per_s"] = plain_rate - traced_rate
    failures = count_failures(plain.failures + traced.failures)
    correct = not failures and not mismatched

    units = benchmark_metrics("per_layer")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    report = [
        f"cyclegas benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, traced",
        f"environment {json.dumps(env)}",
        f"untraced: {len(plain.ops)} ops at {plain_rate:.6g} 1/s over the first {n}; traced: {n} ops at "
        f"{traced_rate:.6g} 1/s (calibrated); tracing overhead {plain_rate - traced_rate:.6g} 1/s",
        f"traced outputs identical to untraced: {n - len(mismatched)} of {n}"
        + (f" (first mismatch at op {mismatched[0]})" if mismatched else ""),
    ] + [f"{name:48s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    report += failure_lines(failures) + probe_lines(probes)
    summary = {"attempted": n, "failed": len(traced.failures)}
    record = {"environment": env, "metrics": metrics, "mismatched_ops": mismatched, "failures": failures,
              "defect_probes": probes, "correct": correct, "untraced_ops": len(plain.ops),
              "untraced_busy_s": plain.busy, "traced_busy_s": traced.busy, "trace_file": trace_path.name}
    return finish(args, report, record, correct, summary, metrics)


def merge_cli_traces(tracer, paths) -> dict:
    """Fold the spans each traced CLI process wrote into `tracer`, one op each."""
    stages = {"process_start_s": [], "import_s": [], "main_s": []}
    for op_id, path in enumerate(paths):
        if not path.exists():  # the launcher died before writing; the op failed
            continue
        dump = json.loads(path.read_text(encoding="utf-8"))
        tracer.merge(dump["names"], dump["start"], dump["end"], dump["parent"], dump["counts"], op_id)
        for stage, values in stages.items():
            values.append(dump[stage])
        path.unlink()
    return stages


def count_failures(failures) -> dict:
    """Failed ops counted by the first line of their reason."""
    counts = {}
    for _index, _op, reason in failures:
        key = reason.splitlines()[0][:160]
        counts[key] = counts.get(key, 0) + 1
    return counts


def failure_lines(failures: dict) -> list:
    return [f"failed x{count}: {reason}" for reason, count in failures.items()]


def probe_defects(workload) -> list:
    """Each documented defect's probe, run once and untimed: [label, failure reason or None]."""
    from bench import harness

    return [[label, harness.attempt(workload.execute, workload.check, op)[1]]
            for label, op in workload.defect_probes()]


def probe_lines(probes) -> list:
    return [f"known defect probe, {label}: " + ("still fails: " + reason.splitlines()[0][:160] if reason else "passes")
            for label, reason in probes]


def finish(args, report, record, correct, summary, metrics) -> int:
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    for line in report:
        print(line)
    print(f"written {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
