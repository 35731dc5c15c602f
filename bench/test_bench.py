"""Tests of the benchmark's own machinery: tail choice, failure counting,
self time, tracing wrappers, seeded input generation and defect probes."""

import itertools
import math

import numpy as np
import pytest

from bench import harness, run, tracing, workloads


def test_tail_is_eleventh_largest_with_ten_beyond():
    latencies = list(range(100, 0, -1))
    percentile, value, beyond = harness.tail(latencies)
    assert (percentile, value, beyond) == (90.0, 90, 10)
    assert sum(x > value for x in latencies) == 10


def test_tail_at_eleven_samples_is_the_minimum():
    percentile, value, beyond = harness.tail([5.0] * 10 + [1.0])
    assert value == 1.0 and beyond == 10
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_reports_shortfall_below_eleven_samples():
    percentile, value, beyond = harness.tail([3.0, 1.0, 2.0])
    assert (value, beyond) == (1.0, 2)
    assert percentile == pytest.approx(100.0 / 3)


def test_summary_states_tail_percentile_and_count():
    phase = harness.Phase()
    phase.latencies.extend(float(i) for i in range(1, 41))
    phase.scales.extend([0.5] * 40)
    summary = harness.summarize(phase)
    assert summary["tail_percentile"] == 75.0
    assert summary["tail_samples_beyond"] == 10
    assert (summary["latency_tail_s_wall"], summary["latency_p50_s_wall"]) == (30.0, 20.5)
    assert (summary["latency_tail_s"], summary["latency_p50_s"]) == (15.0, 10.25)
    assert summary["ops_per_s"] == pytest.approx(2 * 40 / sum(range(1, 41)))


def test_calibrator_scales_to_the_reference_kernel_time():
    calibrator = harness.Calibrator()
    assert len(calibrator.samples) == harness.CALIBRATION_WINDOW
    calibrator.samples = [0.002] * 20 + [0.004] * 9
    assert calibrator.scale() == pytest.approx(calibrator.reference_s / 0.004)


def test_raising_and_infinite_ops_each_count_once():
    def boom():
        raise RuntimeError("injected")

    ops = [lambda: 1.0, boom, lambda: math.inf, lambda: np.array([1.0, np.nan]), lambda: -1.0, lambda: 2.0]
    phase = harness.measure(
        ops, lambda op: op(), lambda op, value: "wrong sign" if value == -1.0 else None, 1e9, harness.Calibrator()
    )
    reasons = [(index, reason) for index, _op, reason in phase.failures]
    assert reasons == [(1, "RuntimeError: injected"), (2, "non-finite output"), (3, "non-finite output"),
                       (4, "wrong sign")]
    summary = harness.summarize(phase)
    assert (summary["attempted"], summary["failed"]) == (6, 4)
    assert summary["error_rate"] == pytest.approx(4 / 6)
    assert harness.summarize(phase, 2)["failed"] == 1


def test_measure_stops_at_time_budget_without_taking_extra_ops():
    ops = iter(range(100))
    phase = harness.measure(ops, lambda op: float(op), lambda op, v: None, 0.0, harness.Calibrator())
    assert len(phase.latencies) == 1
    assert next(ops) == 1


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_nest_and_aggregate_by_layer():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1.0

    wrapped_inner = tracing._wrap(tracer, "core.inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2.0

    wrapped_outer = tracing._wrap(tracer, "partition.outer", outer)
    assert wrapped_outer(1.0) == 4.0  # inactive: no spans
    assert len(tracer.start) == 0
    for x in (1.0, 2.0):
        assert tracer.run_op(wrapped_outer, x) == 2.0 * (x + 1.0)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["bench.op", "partition.outer", "core.inner"] * 2
    assert list(tracer.parent) == [-1, 0, 1, -1, 3, 4]
    assert list(tracer.op) == [0, 0, 0, 1, 1, 1]
    metrics = tracing.layer_metrics(tracer, 2, {})
    assert metrics["core.calls"] == 1.0 and metrics["partition.calls"] == 1.0
    own = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    assert np.all(own >= 0.0)
    assert metrics["core.self_s"] == pytest.approx((own[2] + own[5]) / 2)


def test_wrapper_counts_nonfinite_results_and_raises_as_layer_errors():
    tracer = tracing.Tracer()
    nonfinite = tracing._wrap(tracer, "partition.table", lambda: np.array([1.0, np.inf]))

    def fail():
        raise ValueError("x")

    raising = tracing._wrap(tracer, "partition.fail", fail)
    tracer.run_op(lambda _op: nonfinite(), None)
    with pytest.raises(ValueError):
        tracer.run_op(lambda _op: raising(), None)
    assert tracer.counts["partition.errors"] == 2
    assert not tracer._stack[1:]


def test_generator_proxy_keeps_the_random_stream():
    tracer = tracing.Tracer()
    direct = np.random.Generator(np.random.Philox(key=7))
    proxied = tracing.GeneratorProxy(np.random.Generator(np.random.Philox(key=7)), tracer)
    tracer.active = True
    a = [direct.poisson(3.5), direct.random(4).tolist(), direct.normal()]
    b = [proxied.poisson(3.5), proxied.random(4).tolist(), proxied.normal()]
    assert a == b
    assert tracer.counts["sampler.cycles_drawn"] == a[0]
    assert tracer.counts["sampler.uniforms"] == 4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]

    def first_ops(seed, count=200):
        schedule = cls(seed, tmp_path, tmp_path).schedule()
        return [next(schedule) for _ in range(count)]

    assert first_ops(11) == first_ops(11)
    assert first_ops(11) != first_ops(12)


def test_known_defects_are_probed_outside_the_timed_ops(tmp_path):
    canonical = workloads.Canonical(3, tmp_path, tmp_path)
    timed = list(itertools.islice(canonical.schedule(), 2 * len(workloads.CANONICAL_ROUND)))
    assert max(op.n for op in timed if op.system == "photon") < workloads.PHOTON_OVERFLOW_N
    assert [op.n for _label, op in canonical.defect_probes()] == [workloads.PHOTON_OVERFLOW_N]
    analytic = workloads.Analytic(3, tmp_path, tmp_path)
    (_label, probe), = analytic.defect_probes()
    assert probe.state.fugacity == 1.0 - 1e-6
    bose = [op.state.fugacity for op in analytic.round if op.kind == probe.kind]
    assert len(bose) == len(workloads.BOSE_EXPONENTS) and max(bose) < probe.state.fugacity


def test_defect_probe_reports_failure_reason_or_none():
    class Probed:
        def defect_probes(self):
            return [("raises", "boom"), ("finite", 1.0), ("overflows", math.inf)]

        def execute(self, op):
            if op == "boom":
                raise RuntimeError("injected")
            return op

        def check(self, op, value):
            return None

    assert run.probe_defects(Probed()) == [
        ["raises", "RuntimeError: injected"], ["finite", None], ["overflows", "non-finite output"]
    ]
