"""Start one cyclegas CLI command with tracing, for the traced cli-cold run.

    python bench/launcher.py TRACE_JSON [cyclegas arguments ...]

Needs src/ and the checkout root on PYTHONPATH, and CGBENCH_SPAWN set to the
parent's time.monotonic() just before it started this process (the clock is
system-wide on Linux).  Writes to TRACE_JSON how long the process took to
start, to import cyclegas and to run cyclegas.cli.main, plus the spans of
every layer call.  Standard output and the exit code are the command's own.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402  (imported after the start time is taken)
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import cyclegas.cli

    imported = time.perf_counter()
    from bench import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    root = tracer.open(tracer.name_index("cli.main"))
    t1 = time.perf_counter()
    try:
        return cyclegas.cli.main(argv)
    finally:
        tracer.close(root)
        tracer.active = False
        dump = tracer.dump()
        dump.update(
            process_start_s=STARTED - float(os.environ["CGBENCH_SPAWN"]),
            import_s=imported - t0,
            main_s=time.perf_counter() - t1,
        )
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)


if __name__ == "__main__":
    sys.exit(main())
