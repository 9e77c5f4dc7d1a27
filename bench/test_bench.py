"""Tests of the benchmark's own arithmetic: span self times, inclusive
times, phi route-cell classification, and the metric names it reports
against BENCHMARK.json."""

import json
from pathlib import Path

import numpy as np
import pytest

import tracing

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _spans(rows):
    """rows of (layer, parent, t0, t1) -> the four span arrays."""
    layer, parent, t0, t1 = zip(*rows)
    return (np.array(layer), np.array(parent), np.array(t0, float), np.array(t1, float))


def test_self_time_subtracts_direct_children_only():
    # 0: A [0, 10]  1: B [1, 4] in A  2: C [2, 3] in B  3: B [5, 6] in A  4: A [20, 21]
    spans = _spans([(0, -1, 0, 10), (1, 0, 1, 4), (2, 1, 2, 3), (1, 0, 5, 6), (0, -1, 20, 21)])
    calls, self_t = tracing.aggregate(3, *spans)
    assert calls.tolist() == [2, 2, 1]
    # A: 10 - (3 + 1) + 1;  B: (3 - 1) + 1;  C: 1
    assert self_t.tolist() == pytest.approx([7.0, 3.0, 1.0])
    assert self_t.sum() == pytest.approx(11.0)  # top-level spans cover 11 s


def test_inclusive_time_counts_nested_same_layer_once():
    # A [0, 10] holds B [1, 9], which holds A again [2, 5]; a later A [20, 22]
    spans = _spans([(0, -1, 0, 10), (1, 0, 1, 9), (0, 1, 2, 5), (0, -1, 20, 22)])
    assert tracing.inclusive_time(0, *spans) == pytest.approx(12.0)
    assert tracing.inclusive_time(1, *spans) == pytest.approx(8.0)


def test_tracer_records_nested_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(1, lambda x: x + 1)
    outer = tracer.wrap(0, lambda x: inner(inner(x)))
    assert outer(1) == 3
    table = tracer.table()
    outer_name, inner_name = tracing.LAYERS[0].name, tracing.LAYERS[1].name
    assert table[f"{outer_name}.calls"] == 1 and table[f"{inner_name}.calls"] == 2
    # clock: outer 0..5, inner 1..2 and 3..4
    assert table[f"{inner_name}.self_s"] == pytest.approx(2.0)
    assert table[f"{outer_name}.self_s"] == pytest.approx(3.0)
    tracer.reset()
    assert tracer.table()[f"{outer_name}.calls"] == 0 and tracer.spans_before == 3


def test_route_cells_match_a_hand_counted_grid():
    from drwave.spherical import LAMBDA_HC_MIN, S_BESSEL_MAX, S_HC_MIN

    assert (S_BESSEL_MAX, S_HC_MIN, LAMBDA_HC_MIN) == (0.75, 2.0, 1.0)
    lams = [0.0, 0.5, 1.0, 3.0]
    s = [0.0, 0.5, 0.75, 1.0, 1.9, 2.0, 5.0]
    # Bessel: 3 columns (s <= 0.75) x 4 rows; HC: rows 1.0, 3.0 x columns
    # 2.0, 5.0; ODE: the other 28 - 12 - 4 cells
    got = tracing.route_cells(lams, s, S_BESSEL_MAX, S_HC_MIN, LAMBDA_HC_MIN)
    assert got == {"cells": 28, "cells_bessel": 12, "cells_hc": 4, "cells_ode": 12}


def test_reported_per_layer_metrics_are_the_declared_ones():
    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == tracing.metric_units()


def test_workloads_are_a_function_of_the_seed():
    import workloads

    for name in workloads.WORKLOADS:
        assert workloads.make(name, 3) == workloads.make(name, 3)
    osc = [workloads.make("oscillatory", seed).jobs for seed in (0, 1)]
    assert osc[0][0].argv != osc[1][0].argv


def test_csv_check_holds_columns_to_a_share_of_their_largest_magnitude():
    import outputs

    ref = "# config-hash: x\ns,re\n0,2.0\n1,-4.0\n"
    near = "# config-hash: y\ns,re\n0,2.000003\n1,-4.0\n"   # 3e-6 < 1e-6 * 4
    far = "# config-hash: y\ns,re\n0,2.00001\n1,-4.0\n"     # 1e-5 > 1e-6 * 4
    assert outputs._compare_csv("a.csv", near, ref) == []
    assert len(outputs._compare_csv("a.csv", far, ref)) == 1
