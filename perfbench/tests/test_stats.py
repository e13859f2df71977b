"""Tail-percentile choice and the benchmark's metric contract."""

import json

import pytest

from common import BENCH, percentile, tail
from ledger import PER_LAYER
from workloads import END_TO_END


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, beyond = tail(values)
    assert (value, beyond) == (90, 10)
    assert pct == pytest.approx(90.0)
    assert sum(v > value for v in values) == 10


def test_tail_percentile_rises_with_sample_count():
    value, pct, _ = tail(range(1, 1001))
    assert value == 990 and pct == pytest.approx(99.0)
    value, pct, _ = tail(range(1, 31))  # serve_pp: 30 nominal requests
    assert value == 20 and pct == pytest.approx(200 / 3)
    value, pct, _ = tail(range(1, 301))  # serve_rule: 300
    assert value == 290 and pct == pytest.approx(100 * 290 / 300)


def test_tail_ignores_input_order_and_handles_ties():
    values = [5.0] * 20 + [1.0] * 20
    assert tail(values)[0] == tail(sorted(values, reverse=True))[0] == 5.0


def test_tail_of_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail([7.0] * 10) == (7.0, 100.0, 0)
    value, pct, beyond = tail(range(11))
    assert (value, beyond) == (0, 10) and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail([])


def test_nearest_rank_percentile():
    assert percentile(range(1, 101), 99) == 99
    assert percentile([4.0], 50) == 4.0


def test_benchmark_json_matches_the_metrics_the_runs_emit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} == {
        "generate", "serve_pp", "serve_rule"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
