"""Benchmark of the cyclegas package: workloads, timing harness and layer tracing."""
