"""Tests of the benchmark harness itself (not of flowad).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import workloads
from stats import covered, self_time, tail


class TestTailPercentile:
    @pytest.mark.parametrize("n, label", [
        (5, "max"), (99, "max"), (100, "p90"), (999, "p90"),
        (1000, "p99"), (9999, "p99"), (10000, "p99.9"),
    ])
    def test_needs_ten_samples_beyond(self, n, label):
        assert tail(np.arange(n))[0] == label

    def test_value_is_that_percentile(self):
        values = np.arange(1000, dtype=float)
        assert tail(values) == ("p99", float(np.percentile(values, 99)))
        assert tail([3.0, 1.0, 2.0]) == ("max", 3.0)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        # children cover [1, 6] and [8, 10] of [0, 10]: 7 units
        children = [(1, 4), (3, 6), (8, 12)]
        assert covered(0, 10, children) == 7
        assert self_time(0, 10, children) == 3

    def test_nested_and_disjoint_children(self):
        assert self_time(0, 10, [(2, 8), (3, 4)]) == 4
        assert self_time(0, 10, [(0, 2), (5, 6)]) == 7
        assert self_time(0, 10, []) == 10

    def test_spans_self_time_uses_direct_children(self):
        doc = {"run_id": "r", "spans": [
            ["cli.main", 0, 100, -1, "r"],
            ["detection.push", 10, 60, 0, "r"],
            ["fastpath.l1_error", 20, 50, 1, "r"],
            ["io.stdin", 55, 70, 0, "r"],  # overlaps the push span
        ]}
        sp = layers.Spans([doc])
        assert sp.self_s("cli.main") == [pytest.approx(40e-9)]
        assert sp.self_s("detection.push") == [pytest.approx(20e-9)]
        assert sp.count("fastpath.l1_error", parent="detection.push") == 1


class _Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class _LateSession:
    """Stands in for `detect`: every pump takes at least `late` seconds, and
    each verdict is read the instant its window's last frame is written."""

    def __init__(self, clock, late):
        self.clock, self.late = clock, late
        self.sent, self.verdicts, self.written_at = 0, [], {}

    def queue(self, count):
        for i in range(self.sent, self.sent + count):
            self.written_at[i] = self.clock.now
            start = i - workloads.WINDOW + 1
            if start >= 0 and start % workloads.STRIDE == 0:
                line = json.dumps({"window_start": start}).encode()
                self.verdicts.append((self.clock.now, line))
        self.sent += count

    def pump(self, timeout):
        self.clock.now += timeout + self.late

    def wait_verdicts(self, count):
        assert len(self.verdicts) >= count


def test_latency_counts_from_the_due_time(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(workloads.time, "perf_counter", clock)
    session = _LateSession(clock, late=0.0037)
    session.queue(workloads.WINDOW)  # first window, written at spawn
    rate = 1000.0
    latencies, late = workloads._open_loop(session, 20 * workloads.STRIDE, rate)
    assert len(latencies) == 20
    assert max(late) == pytest.approx(3.7)
    t0 = 1000.0 + 0.005
    for k, lat in enumerate(latencies):
        last = workloads.WINDOW - 1 + (k + 1) * workloads.STRIDE
        due = t0 + (last - workloads.WINDOW) / rate
        # the verdict came back the instant the frame was written, so all
        # of its latency is the generator's lateness on that frame
        assert lat == pytest.approx((session.written_at[last] - due) * 1e3)
    assert max(latencies) > 1.0


class TestKernelOpCount:
    def test_hand_count_tiny_config(self):
        cfg = SimpleNamespace(n_signals=2, window_len=3, hidden_size=1, latent_size=1,
                              made_hidden=1, flow_layers=1, use_flow=True)
        normalize = 3 * 2 * 2            # 6 values: subtract, divide
        gemv = 2 * 2 * 4 + 2 * 1 * 4     # x(2) and h(1) into 4 gates, 2 flops/MAC
        gates = 2 * 4 + 3 * 3 + 1 + 3 + 2  # bias/sum adds, 3 sigmoids, tanh, c, h
        lstm = 3 * (gemv + gates)
        heads = 2 * (2 * 1 * 1 + 1)
        made = (2 * 1 * 1 + 1 + 1) + (2 * 1 * 1 + 1) + 2  # enc+bias+relu, dec+bias, z*a+mu
        decoder = (2 * 1 * 1 + 1 + 1) + (2 * 1 * 6 + 6)
        l1 = 6 * 3
        assert layers.kernel_flops(cfg) == normalize + lstm + heads + made + decoder + l1 == 208

    def test_default_sizes(self):
        cfg = SimpleNamespace(n_signals=12, window_len=150, hidden_size=24, latent_size=24,
                              made_hidden=48, flow_layers=3, use_flow=True)
        assert layers.kernel_flops(cfg) == 1_234_680
        no_flow = SimpleNamespace(**{**vars(cfg), "use_flow": False})
        assert layers.kernel_flops(cfg) - layers.kernel_flops(no_flow) == 3 * (
            4 * 24 * 48 + 2 * 48 + 3 * 24)

    def test_bytes_are_weights_plus_window(self):
        cfg = SimpleNamespace(n_signals=2, window_len=3, hidden_size=1, latent_size=1,
                              made_hidden=1, flow_layers=1, use_flow=True)
        weights = (3 * 4 + 4) + 2 * (1 + 1) + (1 + 1 + 1 + 1) + (1 + 1 + 6 + 6)
        assert layers.kernel_bytes(cfg) == weights * 4 + 6 * 8


def test_every_workload_reports_every_layer_metric():
    filled = layers.complete({"training.steps": 75})
    assert set(filled) == set(layers.PER_LAYER)
    assert filled["training.steps"]["value"] == 75.0
    assert filled["fastpath.calls"]["value"] == 0.0
    with pytest.raises(KeyError):
        layers.complete({"no.such_metric": 1})


def test_benchmark_json_declares_what_the_workloads_report():
    from pathlib import Path

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.PER_LAYER
    ctx = SimpleNamespace(max_rss_kb=1024)
    e2e = workloads._e2e(1.0, 2.0, 3.0, 4.0, ctx)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
