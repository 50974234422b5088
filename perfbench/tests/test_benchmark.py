"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from loop import (  # noqa: E402
    Calibrator, Samples, in_reference_units, percentile, run_closed_loop, tail,
)
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CLI_COMMANDS, GOLDEN, WORKLOADS, Cli, OpFailed, golden_name,
)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# ---- percentile rule ------------------------------------------------------


def test_tail_is_p90_from_100_values_and_the_maximum_below():
    assert tail(list(range(99))) == 98
    assert tail(list(range(100))) == 89


def test_tail_is_nearest_rank_p90_with_ten_beyond():
    values = list(range(100, 0, -1))
    value = tail(values)
    assert value == 90
    assert sum(v > value for v in values) == 10


def test_tail_of_short_run_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == 3.0


def test_percentile_nearest_rank():
    assert percentile([4, 1, 3, 2], 0.5) == 2
    assert percentile([4, 1, 3, 2], 0.75) == 3
    assert percentile([7], 0.99) == 7


# ---- self time from nested spans ------------------------------------------


def test_self_time_subtracts_nested_spans():
    # outer 0..10 holds a 2..5 child and a 6..9 child, which holds a 7..8 leaf
    tracer = Tracer(clock=FakeClock([0, 2, 5, 6, 7, 8, 9, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            tracer.wrap("leaf", lambda: None, record=False)()
    assert tracer.totals["outer"] == [1, 10, 4]
    assert tracer.totals["a"] == [1, 3, 3]
    assert tracer.totals["b"] == [1, 3, 2]
    assert tracer.totals["leaf"] == [1, 1, 1]
    spans = {s["name"]: s for s in tracer.spans_json()}
    assert "leaf" not in spans
    assert spans["a"]["parent"] == spans["b"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] is None


def test_self_coverage_leaves_out_time_outside_the_layers():
    # op 0..10 holds layer a 2..5; 2..5 is all the layers account for, and
    # the op's own 7 s, unwrapped work included, is a gap
    tracer = Tracer(clock=FakeClock([0, 2, 5, 10]))
    with tracer.span("op"):
        with tracer.span("a"):
            pass
    assert tracer.self_coverage(10) == 0.3
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5, 9, 10]))
    with tracer.span("op"):
        with tracer.span("recovery.variation_demo"):
            with tracer.span("a"):
                pass
    assert tracer.self_coverage(10) == 0.3


def test_wrapped_calls_accumulate_and_count():
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 7, 9]))
    inner = tracer.wrap("inner", lambda x: x + 1, record=False)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert tracer.totals["inner"] == [2, 5, 5]
    assert tracer.totals["outer"] == [1, 9, 4]


def test_install_patches_every_binding_and_uninstall_restores():
    import fgl.cli
    import fgl.lubin_tate
    import fgl.series

    orig_build = fgl.lubin_tate.build_action
    orig_mul = fgl.series.TruncatedSeries.__dict__["__mul__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert fgl.cli.build_action is fgl.lubin_tate.build_action
        assert fgl.cli.build_action is not orig_build
    finally:
        tracer.uninstall()
    assert fgl.cli.build_action is orig_build
    assert fgl.lubin_tate.build_action is orig_build
    assert fgl.series.TruncatedSeries.__dict__["__mul__"] is orig_mul


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    defined = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(defined)
    figures = Tracer().layer_metrics(1)
    for metric in spec["per_layer"]:
        if metric["name"].startswith("trace."):
            continue
        assert figures[metric["name"]][1] == metric["unit"], metric["name"]


# ---- reference units -----------------------------------------------------


def test_op_times_leave_out_the_calibrator_and_scale_by_nearby_samples():
    class FakeCalibrator:
        busy = 0.0

    calibrator = FakeCalibrator()

    def op(i):
        calibrator.busy += 0.5

    clock = FakeClock([0, 0, 2, 2, 6])  # ops run 0..2 and 2..6
    samples = run_closed_loop(op, 5, clock=clock, calibrator=calibrator)
    assert samples.times == [1.5, 3.5]
    assert samples.spans == [(0, 2), (2, 6)]
    # with REF_WINDOW = 0.5, op 0 sees the samples at 1 and 2.4, and op 1
    # those at 2.4, 5 and 6.4
    ref = [(1, 0.5), (2.4, 1.5), (5, 0.25), (6.4, 0.5), (9, 2.0)]
    assert in_reference_units(samples, ref) == [1.5, 7.0]


def test_op_with_no_sample_nearby_takes_the_nearest():
    samples = Samples(times=[2.0], spans=[(10, 12)])
    assert in_reference_units(samples, [(1, 4.0), (8, 0.5)]) == [4.0]


def test_calibrator_samples_from_its_timer():
    start = time.perf_counter()
    with Calibrator() as calibrator:
        samples = run_closed_loop(lambda i: sum(range(10**5)), 0.5,
                                  calibrator=calibrator)
    wall = time.perf_counter() - start
    assert len(calibrator.samples) > 2
    assert calibrator.busy == pytest.approx(sum(d for _, d in calibrator.samples))
    # op times and reference calls are disjoint parts of the wall time
    assert sum(samples.times) + calibrator.busy <= wall


# ---- fail_ratio -----------------------------------------------------------


def test_closed_loop_counts_a_failing_op():
    def op(i):
        if i == 2:
            raise OpFailed("made to fail")

    # each op reads the clock twice; the run ends once 5 s have passed
    clock = FakeClock([0] + [t for i in range(1, 7) for t in (i - 1, i)])
    samples = run_closed_loop(op, 5, clock=clock)
    assert samples.attempted == 5
    assert samples.failed == 1
    assert samples.fail_ratio == 0.2
    assert "made to fail" in samples.failures[0]


def test_cli_op_fails_when_an_output_differs(tmp_path):
    cli = Cli()
    cli.setup(0, tmp_path)
    cli.op(0)
    stdout, written = cli.golden[4]
    cli.golden[4] = (stdout + b"x", written)
    samples = run_closed_loop(cli.op, 0)
    assert (samples.attempted, samples.failed, samples.fail_ratio) == (1, 1, 1.0)
    assert "check" in samples.failures[0]


def test_closed_loop_prepares_outside_timing_and_keeps_min_ops():
    prepared = []
    samples = run_closed_loop(lambda i: None, 0, prepare=prepared.append, min_ops=2)
    assert prepared == [0, 1]
    assert samples.attempted == 2


def test_cli_golden_matches_readme_where_it_prints_output():
    readme = (ROOT / "README.md").read_text()
    shown = [golden_name(k, argv, "stdout")
             for k, (argv, _) in enumerate(CLI_COMMANDS) if k in (0, 1, 4, 6, 8, 10)]
    for name in shown:
        assert (GOLDEN / name).read_text() in readme, name
