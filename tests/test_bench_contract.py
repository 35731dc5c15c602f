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
# at several (T, V) points.  The round's Bose ops come later; the last test
# below runs them.
FIRST_OPS = {"sampler": 10, "canonical": 10, "analytic": 300}


@pytest.mark.parametrize("name, count", FIRST_OPS.items())
def test_first_ops_pass_the_benchmark_check(name, count, tmp_path):
    workload = workloads.WORKLOADS[name](11, tmp_path, tmp_path)
    for op in itertools.islice(workload.schedule(), count):
        _value, reason, _latency = harness.attempt(workload.execute, workload.check, op)
        assert reason is None, f"{name} {op}: {reason}"


def test_bose_ops_and_the_known_defect_probe_pass(tmp_path):
    # the round's Bose densities run at z = 1 - 10^-k for k = 1..5 and the probe at
    # z = 1 - 1e-6, where polylog's direct series used to give up
    workload = workloads.WORKLOADS["analytic"](11, tmp_path, tmp_path)
    bose = [op for op in workload.round if op.kind == "bose_number_density_cycle"]
    assert len(bose) == 5
    for op in [*bose, workload.bose_probe]:
        _value, reason, _latency = harness.attempt(workload.execute, workload.check, op)
        assert reason is None, f"{op}: {reason}"
