"""Per-layer metrics derived from the spans the launcher records, and the
scoring kernel's operation count.

Every workload reports every metric in PER_LAYER; a layer the workload
bypasses reads 0, which is itself the claim (for example, `train` makes
no `fastpath` calls).
"""

from __future__ import annotations

from collections import defaultdict

from stats import median, self_time, tail

# name -> (unit, better)
PER_LAYER = {
    # stream
    "cli.self_us_per_frame": ("us", "lower"),
    "cli.frames": ("count", "higher"),
    "cli.import_ms": ("ms", "lower"),
    "detection.push_self_us_per_frame": ("us", "lower"),
    "detection.verdicts": ("count", "higher"),
    "detection.warm_up_ms": ("ms", "lower"),
    "fastpath.l1_error_us_p50": ("us", "lower"),
    "fastpath.l1_error_us_p99": ("us", "lower"),
    "fastpath.normalize_us_p50": ("us", "lower"),
    "fastpath.calls": ("count", "higher"),
    "fastpath.gflops_per_s": ("GFLOP/s", "higher"),
    "checkpoint.load_ms": ("ms", "lower"),
    "loadgen.late_ms_p99": ("ms", "lower"),
    # offline
    "data.load_records_s": ("s", "lower"),
    "data.rows_per_s": ("rows/s", "higher"),
    "data.sliding_windows_ms": ("ms", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "evaluation.score_passes": ("1", "lower"),
    "detection.calibrate_self_ms": ("ms", "lower"),
    "evaluation.score_records_self_ms": ("ms", "lower"),
    "evaluation.per_type_auroc_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    # train
    "training.steps": ("count", "higher"),
    "training.windows_per_step": ("count", "higher"),
    "model.forward_ms_per_step": ("ms", "lower"),
    "losses.ms_per_step": ("ms", "lower"),
    "autodiff.backward_ms_per_step": ("ms", "lower"),
    "optim.adamw_ms_per_step": ("ms", "lower"),
    "training.self_ms_per_step": ("ms", "lower"),
    # all
    "tracing.overhead_pct": ("%", "lower"),
}


def kernel_flops(cfg) -> int:
    """Floating-point operations of one `ScoringRuntime.l1_error` call.

    With N signals, T frames, H LSTM units, D latent units, K flow layers
    of M hidden units (K = 0 without the flow), counting a multiply-add
    as 2 and each exp, tanh, divide or compare as 1:

      normalize   2*T*N                      (subtract mean, divide by std)
      LSTM        T * (2*(N+H)*4H + 8H + 15H)
                  two GEMVs into 4H gates, two bias/sum adds per gate, and
                  per unit 3 sigmoids (3 each), tanh(u), c = f*c + i*u (3),
                  h = o*tanh(c) (2)
      heads       2 * (2*H*D + D)            (mu and logvar; zero eps adds none)
      MADE        K * (4*D*M + 2*M + 3*D)    (two GEMVs, biases, relu,
                                              z = z*alpha + mu)
      decoder     2*D*H + 2*H + 2*H*T*N + T*N
      L1          3*T*N                      (subtract, abs, accumulate)

    At the default sizes (N=12, T=150, H=D=24, K=3, M=48) this is
    1,234,680, about 1.2 MFLOP per window.
    """
    N, T = cfg.n_signals, cfg.window_len
    H, D, M = cfg.hidden_size, cfg.latent_size, cfg.made_hidden
    K = cfg.flow_layers if cfg.use_flow else 0
    normalize = 2 * T * N
    lstm = T * (2 * (N + H) * 4 * H + 8 * H + 15 * H)
    heads = 2 * (2 * H * D + D)
    made = K * (4 * D * M + 2 * M + 3 * D)
    decoder = 2 * D * H + 2 * H + 2 * H * T * N + T * N
    l1 = 3 * T * N
    return normalize + lstm + heads + made + decoder + l1


def kernel_bytes(cfg, itemsize: int = 4) -> int:
    """Bytes one call reads: the cast weights (float32 by default; the
    flow masks are folded in) plus the raw float64 window."""
    N, T = cfg.n_signals, cfg.window_len
    H, D, M = cfg.hidden_size, cfg.latent_size, cfg.made_hidden
    K = cfg.flow_layers if cfg.use_flow else 0
    weights = (
        (N + H) * 4 * H + 4 * H  # LSTM
        + 2 * (H * D + D)  # heads
        + K * (D * M + M + M * D + D)  # MADE
        + D * H + H + H * T * N + T * N  # decoder
    )
    return weights * itemsize + T * N * 8


class Spans:
    """Spans of one or more traced processes, indexed by name."""

    def __init__(self, docs):
        self.spans = []  # (name, start_ns, end_ns, parent, run_id)
        for doc in docs:
            offset = len(self.spans)
            for name, start, end, parent, run_id in doc["spans"]:
                self.spans.append(
                    (name, start, end, parent + offset if parent >= 0 else -1, run_id)
                )
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, (name, _s, _e, parent, _r) in enumerate(self.spans):
            self.by_name[name].append(i)
            if parent >= 0:
                self.children[parent].append(i)

    def _select(self, name, run_filter=None):
        ids = self.by_name.get(name, [])
        if run_filter is not None:
            ids = [i for i in ids if run_filter(self.spans[i][4])]
        return ids

    def count(self, name, run_filter=None, parent=None) -> int:
        ids = self._select(name, run_filter)
        if parent is not None:
            ids = [i for i in ids if self.spans[i][3] >= 0
                   and self.spans[self.spans[i][3]][0] == parent]
        return len(ids)

    def durations_s(self, name, run_filter=None) -> list[float]:
        return [(self.spans[i][2] - self.spans[i][1]) * 1e-9
                for i in self._select(name, run_filter)]

    def self_s(self, name, run_filter=None) -> list[float]:
        out = []
        for i in self._select(name, run_filter):
            _n, start, end, _p, _r = self.spans[i]
            kids = [(self.spans[c][1], self.spans[c][2]) for c in self.children[i]]
            out.append(self_time(start, end, kids) * 1e-9)
        return out


def _med(values, scale=1.0) -> float:
    return median(values) * scale if values else 0.0


def _tail(values, scale=1.0) -> float:
    return tail(values)[1] * scale if values else 0.0


def _kernel_metrics(sp: Spans, cfg) -> dict:
    l1 = sp.durations_s("fastpath.l1_error")
    calls = len(l1)
    return {
        "fastpath.l1_error_us_p50": _med(l1, 1e6),
        "fastpath.l1_error_us_p99": _tail(l1, 1e6),
        "fastpath.normalize_us_p50": _med(sp.durations_s("fastpath.normalize"), 1e6),
        "fastpath.calls": calls,
        "fastpath.gflops_per_s": calls * kernel_flops(cfg) / sum(l1) / 1e9 if calls else 0.0,
    }


def stream_layers(sp: Spans, cfg, late_ms_p99: float) -> dict:
    """Stream counts and sums cover every traced `detect` process."""
    frames = sp.count("detection.push")
    out = {
        "cli.frames": frames,
        "cli.self_us_per_frame": sum(sp.self_s("cli.main")) * 1e6 / frames,
        "cli.import_ms": _med(sp.durations_s("cli.import"), 1e3),
        "detection.push_self_us_per_frame": sum(sp.self_s("detection.push")) * 1e6 / frames,
        "detection.verdicts": sp.count("fastpath.l1_error", parent="detection.push"),
        "detection.warm_up_ms": _med(sp.durations_s("fastpath.warm_up"), 1e3),
        "checkpoint.load_ms": _med(sp.durations_s("checkpoint.load"), 1e3),
        "loadgen.late_ms_p99": late_ms_p99,
    }
    out.update(_kernel_metrics(sp, cfg))
    return out


def offline_layers(sp: Spans, cfg, jobs: int, rows: int, test_windows: int) -> dict:
    """Totals are per (calibrate, eval) pair; per-call figures are medians."""
    is_eval = lambda run_id: run_id.endswith("eval")
    load_s = sp.durations_s("data.load_records")
    evals = sp.count("cli.main", run_filter=is_eval)
    out = {
        "data.load_records_s": sum(load_s) / jobs,
        "data.rows_per_s": rows * jobs / sum(load_s),
        "data.sliding_windows_ms": sum(sp.durations_s("data.sliding_windows")) * 1e3 / jobs,
        "checkpoint.load_ms": _med(sp.durations_s("checkpoint.load"), 1e3),
        "checkpoint.save_ms": _med(sp.durations_s("checkpoint.save"), 1e3),
        "evaluation.score_passes": sp.count("fastpath.l1_error", run_filter=is_eval)
        / (test_windows * evals),
        "detection.calibrate_self_ms": _med(sp.self_s("detection.calibrate"), 1e3),
        "evaluation.score_records_self_ms": sum(sp.self_s("evaluation.score_records"))
        * 1e3 / jobs,
        "evaluation.per_type_auroc_ms": _med(sp.durations_s("evaluation.per_type_auroc"), 1e3),
        "cli.self_s": sum(sp.self_s("cli.main")) / jobs,
    }
    out.update(_kernel_metrics(sp, cfg))
    out["fastpath.calls"] = out["fastpath.calls"] / jobs
    return out


def train_layers(sp: Spans, jobs: int, windows_per_epoch: int, epochs: int) -> dict:
    """Per-step figures divide each layer's total by the optimizer steps
    (two AdamW calls, generator and discriminator, make one step)."""
    steps = sp.count("optim.adamw_step") // 2
    losses = sp.durations_s("losses.loss_generator") + sp.durations_s("losses.loss_discriminator")
    per_step = lambda seconds: sum(seconds) * 1e3 / steps
    return {
        "data.load_records_s": sum(sp.durations_s("data.load_records")) / jobs,
        "checkpoint.save_ms": _med(sp.durations_s("checkpoint.save"), 1e3),
        "training.steps": steps / jobs,
        "training.windows_per_step": windows_per_epoch * epochs * jobs / steps,
        "model.forward_ms_per_step": per_step(sp.durations_s("model.generator_forward")),
        "losses.ms_per_step": per_step(losses),
        "autodiff.backward_ms_per_step": per_step(sp.self_s("autodiff.value_and_grad")),
        "optim.adamw_ms_per_step": per_step(sp.durations_s("optim.adamw_step")),
        "training.self_ms_per_step": per_step(sp.self_s("training.train")),
    }


def complete(partial: dict) -> dict:
    """Every PER_LAYER metric, 0 where the workload bypasses the layer."""
    unknown = set(partial) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared layer metrics: {sorted(unknown)}")
    return {name: {"value": float(partial.get(name, 0.0)), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()}
