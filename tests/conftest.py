import tracemalloc

import numpy as np
import pytest

from flowad.autodiff import lstm_gates, lstm_step
from flowad.data import WindowingConfig, sliding_windows
from flowad.detection import calibrate
from flowad.fastpath import ScoringRuntime
from flowad.model import ModelConfig
from flowad.synth import SynthConfig, synth_generate
from flowad.training import TrainConfig, train


@pytest.fixture(scope="session")
def toy_cfg():
    # small enough for finite differences, large enough to exercise
    # every parameter group
    return ModelConfig(
        n_signals=3, window_len=8, hidden_size=5, latent_size=6,
        flow_layers=2, made_hidden=7, disc_widths=(6,),
    )


@pytest.fixture(scope="session")
def trained_small():
    """One real but small training run shared by scoring-level tests."""
    windowing = WindowingConfig(window_len=100, stride=40)
    model_cfg = ModelConfig(n_signals=6, window_len=100)
    synth = SynthConfig(num_normal=40, num_anomalous=0, n_frames=220,
                        n_signals=6, seed=11)
    records = synth_generate(synth)
    tcfg = TrainConfig(epochs=6, seed=3)
    result = train(records, model_cfg, tcfg, windowing)
    runtime = ScoringRuntime(model_cfg, result.generator, result.norm_stats)
    windows = [w.values for r in records for w in sliding_windows(r, windowing)]
    calib = calibrate(runtime, windows)
    test_records = synth_generate(
        SynthConfig(num_normal=12, num_anomalous=12, n_frames=220,
                    n_signals=6, seed=12)
    )
    return {
        "windowing": windowing,
        "model_cfg": model_cfg,
        "train_cfg": tcfg,
        "train_records": records,
        "test_records": test_records,
        "result": result,
        "runtime": runtime,
        "calib": calib,
    }


def rng_for(test_seed: int) -> np.random.Generator:
    return np.random.default_rng(test_seed)


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of one call fn(*args), in bytes: the most it
    held at once beyond what was allocated before the call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lstm_states(acts: np.ndarray, w_h: np.ndarray):
    """Every step's LSTM states over time-major pre-activations acts
    (T, ..., 4H), from one `lstm_step` per step. The i/f/o columns of acts
    and of the recurrent weight w_h come halved (`halve_gates`); acts is
    overwritten with the gate activations. The middle axes decide the
    products: (T, B, 4H) makes one gemm per step, and (T, B, 1, 4H) one
    gemv per row. Returns (hs, cs, tcs) of acts' dtype: hs and cs are
    (T+1, ..., H) from the zero state, and tcs (T, ..., H) is tanh(cs[1:]).
    """
    T, H = acts.shape[0], acts.shape[-1] // 4
    hs = np.zeros((T + 1,) + acts.shape[1:-1] + (H,), dtype=acts.dtype)
    cs = np.zeros_like(hs)
    tcs = np.empty_like(hs[1:])
    half = np.array(0.5, dtype=acts.dtype)
    for t, a in enumerate(acts):
        lstm_step(a, *lstm_gates(a), hs[t], cs[t], hs[t + 1], cs[t + 1], tcs[t], w_h, half)
    return hs, cs, tcs
