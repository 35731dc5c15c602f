"""The benchmark's own checks pass on the program: every name and return
shape the in-process workloads call is pinned here.

Run with `python -m pytest` from the repository root, which puts the
`bench` package on sys.path.
"""

import itertools

import pytest

from bench import harness, workloads

# First ops of each schedule.  The sampler and canonical rounds open with
# their largest op, and 300 analytic ops cover each of the seven sweep kinds
# at several (T, V) points; the round's Bose ops come later.
FIRST_OPS = {"sampler": 10, "canonical": 10, "analytic": 300}


@pytest.mark.parametrize("name, count", FIRST_OPS.items())
def test_first_ops_pass_the_benchmark_check(name, count, tmp_path):
    workload = workloads.WORKLOADS[name](11, tmp_path, tmp_path)
    for op in itertools.islice(workload.schedule(), count):
        _value, reason, _latency = harness.attempt(workload.execute, workload.check, op)
        assert reason is None, f"{name} {op}: {reason}"
