"""Detection tests: calibration statistics, anomaly scoring, strict
classification, FPR-derived thresholds, the scoring kernel, and the
streaming detector."""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lstm_states, traced_peak
from flowad import fastpath
from flowad.data import NormStats, WindowingConfig, sliding_windows, window_count
from flowad.detection import (
    CalibrationStats,
    DetectSection,
    StreamDetector,
    calibrate,
    classify,
    score_from_l1,
    threshold_for_fpr,
)
from flowad.errors import InputError
from flowad.model import ModelConfig, build_flow_masks, generator_forward, init_generator


class _StubRuntime:
    """Replays a fixed sequence of L1 errors; enough of the runtime
    surface for calibrate(), which scores windows in blocks."""

    def __init__(self, values):
        self._values = list(values)
        self._i = 0

    def l1_errors(self, windows, eps=None):
        out = [self._values[(self._i + b) % len(self._values)] for b in range(len(windows))]
        self._i += len(windows)
        return np.array(out, dtype=np.float64)


class TestCalibrationStats:
    def test_sigma_floor_enforced(self):
        with pytest.raises(InputError, match="sigma"):
            CalibrationStats(mu=1.0, sigma=0.0)

    def test_sigma_at_floor_is_valid(self):
        stats = CalibrationStats(mu=1.0, sigma=1e-8)
        assert stats.sigma == 1e-8

    def test_unknown_eps_mode_rejected(self):
        with pytest.raises(InputError, match="eps_mode"):
            CalibrationStats(mu=0.0, sigma=1.0, eps_mode="maybe")

    def test_dict_round_trip(self):
        stats = CalibrationStats(
            mu=3.5, sigma=1.25, eps_mode="sample", n_windows=10,
            scores_sorted=np.array([-1.0, 0.0, 2.0]),
        )
        clone = CalibrationStats.from_dict(stats.to_dict())
        assert clone.mu == stats.mu and clone.sigma == stats.sigma
        assert clone.eps_mode == "sample" and clone.n_windows == 10
        np.testing.assert_array_equal(clone.scores_sorted, stats.scores_sorted)

    def test_dict_round_trip_without_scores(self):
        clone = CalibrationStats.from_dict(CalibrationStats(mu=0.0, sigma=2.0).to_dict())
        assert clone.scores_sorted is None

    @pytest.mark.parametrize(
        "doc",
        [{"sigma": 1.0}, {"mu": 0.0}, {"mu": "zero", "sigma": 1.0},
         {"mu": 0.0, "sigma": [1.0]}, {"mu": 0.0, "sigma": 1.0, "scores_sorted": ["a"]},
         {"mu": float("nan"), "sigma": 1.0}, [0.0, 1.0], None],
        ids=["no-mu", "no-sigma", "text-mu", "list-sigma", "text-scores", "nan-mu",
             "list", "null"],
    )
    def test_malformed_dict_is_input_error(self, doc):
        with pytest.raises(InputError, match="calibration stats|finite"):
            CalibrationStats.from_dict(doc)


class TestCalibrate:
    def test_population_moments_hand_case(self):
        # L1 errors {2, 4, 6}: mu = 4, population sigma = sqrt(8/3).
        stub = _StubRuntime([2.0, 4.0, 6.0])
        windows = [np.zeros((1, 1))] * 3
        stats = calibrate(stub, windows)
        assert stats.mu == pytest.approx(4.0)
        assert stats.sigma == pytest.approx(np.sqrt(8.0 / 3.0), rel=1e-15)
        assert stats.n_windows == 3
        assert stats.eps_mode == "zero"

    def test_retained_scores_are_standardized_and_sorted(self):
        stub = _StubRuntime([2.0, 6.0, 4.0])
        stats = calibrate(stub, [np.zeros((1, 1))] * 3)
        expected = np.sort((np.array([2.0, 6.0, 4.0]) - stats.mu) / stats.sigma)
        np.testing.assert_allclose(stats.scores_sorted, expected, rtol=0, atol=0)

    def test_identical_windows_hit_sigma_floor(self):
        stub = _StubRuntime([5.0, 5.0, 5.0, 5.0])
        stats = calibrate(stub, [np.zeros((1, 1))] * 4)
        assert stats.sigma == 1e-8

    def test_needs_two_windows(self):
        with pytest.raises(InputError, match=">= 2 windows"):
            calibrate(_StubRuntime([1.0]), [np.zeros((1, 1))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_error_names_the_window(self, bad):
        with pytest.raises(InputError, match="calibration window 2 .*non-finite L1"):
            calibrate(_StubRuntime([1.0, 2.0, bad, 3.0]), [np.zeros((1, 1))] * 4)

    def test_real_runtime_matches_manual_recomputation(self, trained_small):
        runtime = trained_small["runtime"]
        windowing = trained_small["windowing"]
        windows = []
        for rec in trained_small["train_records"][:6]:
            windows.extend(w.values for w in sliding_windows(rec, windowing))
        stats = calibrate(runtime, windows)
        errors = np.array([runtime.l1_error(w) for w in windows])
        assert stats.mu == errors.mean()
        assert stats.sigma == max(errors.std(), 1e-8)

    @pytest.mark.parametrize("eps_mode", ["zero", "sample"])
    def test_block_scoring_equals_per_window_path(self, trained_small, eps_mode):
        # 150 windows: four full blocks and a partial one, fed as a generator.
        runtime = trained_small["runtime"]
        windows = _train_windows(trained_small)[:150]
        stats = calibrate(runtime, (w.values for w in windows), eps_mode=eps_mode, eps_seed=9)
        rng = np.random.default_rng(9)
        d = runtime.config.latent_size
        errors = np.array([
            runtime.l1_error(w.values, rng.standard_normal(d) if eps_mode == "sample" else None)
            for w in windows
        ])
        mu, sigma = errors.mean(), max(errors.std(), 1e-8)
        assert stats.n_windows == 150
        assert (stats.mu, stats.sigma) == (mu, sigma)
        assert stats.scores_sorted.tobytes() == np.sort((errors - mu) / sigma).tobytes()


# float64 differs from the model only in summation order; float32 rounds
# every parameter and activation.
_KERNEL_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


def _train_windows(trained_small):
    windowing = trained_small["windowing"]
    return [w for r in trained_small["train_records"] for w in sliding_windows(r, windowing)]


def _kernel_windows(trained_small):
    windowing = trained_small["windowing"]
    recs = trained_small["test_records"]
    return [sliding_windows(r, windowing)[1].values for r in (recs[0], recs[-1])]


def _scalar_forward_l1(x, w_x, w_h, b_g, mu_w, mu_b, lv_w, lv_b,
                       flow, alpha_e, zero,
                       d1_w, d1_b, d2_w, d2_b, eps):
    """L1 between the normalized window x (T, N) and its reconstruction,
    one unit at a time: the interpreted reference for `fastpath._forward_l1`,
    which takes the same arguments. As there, the i/f/o columns of w_x,
    w_h and b_g come halved, so the sigmoid gates double them back; the
    biases come shaped (1, 1, K), and are read flat."""
    b_g, mu_b, lv_b, d1_b, d2_b = (b.ravel() for b in (b_g, mu_b, lv_b, d1_b, d2_b))
    flow = [(enc_w, enc_b.ravel(), dec_w, dec_b.ravel()) for enc_w, enc_b, dec_w, dec_b in flow]
    T, n = x.shape
    H = b_g.shape[0] // 4
    h = np.zeros(H, dtype=x.dtype)
    c = np.zeros(H, dtype=x.dtype)
    for t in range(T):
        g = b_g + np.dot(x[t], w_x) + np.dot(h, w_h)
        g[: 3 * H] *= 2.0
        for a in range(H):
            # Stable sigmoid: never exponentiate a positive argument.
            v = g[a]
            if v >= 0.0:
                i_g = 1.0 / (1.0 + math.exp(-v))
            else:
                ev = math.exp(v)
                i_g = ev / (1.0 + ev)
            v = g[H + a]
            if v >= 0.0:
                f_g = 1.0 / (1.0 + math.exp(-v))
            else:
                ev = math.exp(v)
                f_g = ev / (1.0 + ev)
            v = g[2 * H + a]
            if v >= 0.0:
                o_g = 1.0 / (1.0 + math.exp(-v))
            else:
                ev = math.exp(v)
                o_g = ev / (1.0 + ev)
            u_g = math.tanh(g[3 * H + a])
            c[a] = f_g * c[a] + i_g * u_g
            h[a] = o_g * math.tanh(c[a])
    z = mu_b + np.dot(h, mu_w)
    lv = lv_b + np.dot(h, lv_w)
    for d in range(z.shape[0]):
        if eps[d] != 0.0:
            z[d] = z[d] + math.exp(0.5 * lv[d]) * eps[d]
    for enc_w, enc_b, dec_w, dec_b in flow:
        hid = np.dot(z, enc_w) + enc_b
        for u in range(hid.shape[0]):
            if hid[u] < 0.0:
                hid[u] = 0.0
        mu_k = np.dot(hid, dec_w) + dec_b
        z = z * alpha_e + mu_k
    d1 = np.dot(z, d1_w) + d1_b
    for u in range(d1.shape[0]):
        if d1[u] < 0.0:
            d1[u] = 0.0
    flat = np.dot(d1, d2_w) + d2_b
    total = 0.0
    idx = 0
    for t in range(T):
        for j in range(n):
            total += abs(flat[idx] - x[t, j])
            idx += 1
    return total


def _out_of_place_tail_l1(h, x, mu_w, mu_b, lv_w, lv_b, flow, alpha_e, zero,
                          d1_w, d1_b, d2_w, d2_b, eps):
    """`fastpath._tail_l1` with every op making a new array, eps always an
    array, and the errors cast to float64 before they are summed: the
    reference for the in-place tail, which must give the same bits."""
    lead = x.shape[:-2]
    z = np.matmul(h, mu_w) + mu_b
    eps = eps.reshape(lead + (1, -1))
    nz = eps != 0.0
    if nz.any():
        lv = np.matmul(h, lv_w) + lv_b
        z[nz] += np.exp(0.5 * lv[nz]) * eps[nz]
    for enc_w, enc_b, dec_w, dec_b in flow:
        hid = np.maximum(np.matmul(z, enc_w) + enc_b, 0.0)
        z = z * alpha_e + (np.matmul(hid, dec_w) + dec_b)
    d1 = np.maximum(np.matmul(z, d1_w) + d1_b, 0.0)
    flat = np.matmul(d1, d2_w) + d2_b
    return np.abs(flat - x.reshape(flat.shape)).astype(np.float64).sum(axis=-1).reshape(lead)


class TestScoringKernel:
    """`ScoringRuntime.l1_error` must compute the L1 error of the model
    it was built from."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("use_flow", [True, False])
    @pytest.mark.parametrize("with_eps", [False, True])
    def test_l1_error_matches_generator_forward(self, trained_small, dtype, use_flow, with_eps):
        cfg = dataclasses.replace(trained_small["model_cfg"], use_flow=use_flow)
        params = trained_small["result"].generator
        norm = trained_small["result"].norm_stats
        runtime = fastpath.ScoringRuntime(cfg, params, norm, dtype=dtype)
        eps = np.random.default_rng(4).standard_normal(cfg.latent_size) if with_eps else None
        for w in _kernel_windows(trained_small):
            xn = (w - norm.mean) / norm.std
            recon = generator_forward(xn[None], params, build_flow_masks(cfg), cfg, eps=eps)
            want = np.abs(np.asarray(recon.reconstruction)[0] - xn).sum()
            assert runtime.l1_error(w, eps) == pytest.approx(want, rel=_KERNEL_RTOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_kernel_matches_scalar_loop(self, trained_small, dtype):
        # The kernel gets the windows as one (B, T, N) batch; the scalar
        # loop scores them one at a time.
        result = trained_small["result"]
        runtime = fastpath.ScoringRuntime(trained_small["model_cfg"], result.generator,
                                          result.norm_stats, dtype=dtype)
        xs = runtime.normalize(np.stack(_kernel_windows(trained_small)))
        d = runtime.config.latent_size
        eps = np.random.default_rng(5).standard_normal((len(xs), d)).astype(dtype)
        for e in (np.zeros_like(eps), eps):
            got = fastpath._forward_l1(xs, *runtime._weights, e)
            want = [_scalar_forward_l1(x, *runtime._weights, eb) for x, eb in zip(xs, e)]
            assert got.shape == (len(xs),)
            np.testing.assert_allclose(got, want, rtol=_KERNEL_RTOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("use_flow", [True, False])
    @pytest.mark.parametrize("with_eps", [False, True])
    def test_l1_errors_rows_do_not_depend_on_batch_size(self, trained_small, dtype, use_flow,
                                                        with_eps):
        cfg = dataclasses.replace(trained_small["model_cfg"], use_flow=use_flow)
        result = trained_small["result"]
        runtime = fastpath.ScoringRuntime(cfg, result.generator, result.norm_stats,
                                          dtype=dtype)
        windows = np.stack([w.values for w in _train_windows(trained_small)[:64]])
        eps = (np.random.default_rng(6).standard_normal((64, cfg.latent_size))
               if with_eps else None)
        want = np.array([runtime.l1_error(w, None if eps is None else eps[i])
                         for i, w in enumerate(windows)])
        for B in (1, 7, 64):
            got = np.concatenate([
                runtime.l1_errors(windows[i : i + B], None if eps is None else eps[i : i + B])
                for i in range(0, 64, B)
            ])
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), f"B={B}"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("eps_mode", ["zero", "sample"])
    @pytest.mark.parametrize("model", ["trained_small", "default_size_alpha"])
    def test_l1_errors_keep_the_bits_of_the_out_of_place_tail_at_every_b(
            self, trained_small, dtype, eps_mode, model):
        # Stream blocks complete 1 to about 10 windows and batch scoring
        # takes 32 per call, so B = 1..33 covers every B the code uses. The
        # default-size model has alpha_e != 1, so the flow's scaling counts.
        rng = np.random.default_rng(8)
        if model == "trained_small":
            cfg, result = trained_small["model_cfg"], trained_small["result"]
            arrays, norm = result.generator, result.norm_stats
            windows = np.stack([w.values for w in _train_windows(trained_small)[:33]])
        else:
            cfg = ModelConfig(n_signals=12, window_len=150, alpha_const=0.5)
            arrays = init_generator(cfg, rng)
            norm = NormStats(mean=rng.standard_normal(12), std=rng.uniform(0.5, 2.0, 12))
            windows = norm.mean + norm.std * rng.standard_normal((33, 150, 12))
        runtime = fastpath.ScoringRuntime(cfg, arrays, norm, dtype=dtype)
        eps = np.zeros((33, cfg.latent_size))
        if eps_mode == "sample":
            eps = rng.standard_normal((33, cfg.latent_size))
        w_x, w_h, b_g, *tail = runtime._weights
        for B in range(1, 34):
            xn = runtime.normalize(windows[:B])
            xp = fastpath._project(xn, w_x, b_g)
            h = lstm_states(np.moveaxis(xp, -3, 0), w_h)[0][-1]
            want = _out_of_place_tail_l1(h, xn, *tail, eps[:B].astype(dtype))
            got = runtime.l1_errors(windows[:B], eps[:B])
            assert got.tobytes() == want.tobytes(), f"B={B}"
            if eps_mode == "zero":  # None skips the eps mask, with the same bits
                assert runtime.l1_errors(windows[:B]).tobytes() == want.tobytes(), f"B={B}"

    def test_scoring_a_batch_keeps_no_per_step_history(self):
        # Normalizing makes a float64 and a float32 copy of the windows; beyond them a
        # call holds only O(B * 4H) states, which do not grow with T: no
        # (B, T, 4H) projection of every frame (1.8 MB here) and no
        # (T+1)-long h, c or tanh(c) history.
        cfg = ModelConfig(n_signals=12, window_len=150)
        rng = np.random.default_rng(4)
        norm = NormStats(mean=np.zeros(12), std=np.ones(12))
        runtime = fastpath.ScoringRuntime(cfg, init_generator(cfg, rng), norm)
        windows = rng.standard_normal((32, 150, 12))
        runtime.l1_errors(windows)
        assert traced_peak(runtime.l1_errors, windows) < 2 * windows.nbytes + 128 * 1024

    def test_normalizing_a_batch_makes_one_float64_copy(self):
        # Subtracting the mean and dividing by the std share one float64
        # (B, T, N) array; the float32 result is the only other copy.
        cfg = ModelConfig(n_signals=12, window_len=150)
        rng = np.random.default_rng(5)
        norm = NormStats(mean=rng.standard_normal(12), std=rng.uniform(0.5, 2.0, 12))
        runtime = fastpath.ScoringRuntime(cfg, init_generator(cfg, rng), norm)
        windows = rng.standard_normal((32, 150, 12))
        x = runtime.normalize(windows)
        assert x.dtype == np.float32 and x.flags.c_contiguous
        assert x.tobytes() == ((windows - norm.mean) / norm.std).astype(np.float32).tobytes()
        assert traced_peak(runtime.normalize, windows) < 1.5 * windows.nbytes + 16 * 1024

    def test_l1_errors_rejects_bad_shapes(self, trained_small):
        runtime = trained_small["runtime"]
        with pytest.raises(InputError, match="window batch shape"):
            runtime.l1_errors(np.zeros((100, 6)))
        with pytest.raises(InputError, match="eps shape"):
            runtime.l1_errors(np.zeros((2, 100, 6)), np.zeros((3, runtime.config.latent_size)))


class TestScoringAndClassify:
    def test_score_hand_case(self):
        stats = CalibrationStats(mu=10.0, sigma=4.0)
        assert score_from_l1(4.0, stats) == pytest.approx(-1.5)

    def test_score_at_mean_is_zero(self):
        stats = CalibrationStats(mu=7.0, sigma=2.0)
        assert score_from_l1(7.0, stats) == 0.0

    def test_score_two_sigma_above(self):
        stats = CalibrationStats(mu=7.0, sigma=2.0)
        assert score_from_l1(11.0, stats) == pytest.approx(2.0)

    def test_score_monotone_in_l1(self):
        stats = CalibrationStats(mu=3.0, sigma=0.5)
        scores = [score_from_l1(v, stats) for v in np.linspace(0, 10, 50)]
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_classify_strict_boundary(self):
        assert classify(2.1, 2.0) is True
        assert classify(2.0, 2.0) is False
        assert classify(-1.0, 0.0) is False
        assert classify(float("nan"), 0.0) is True


class TestThresholdForFpr:
    def test_quantile_on_uniform_grid(self):
        scores = np.linspace(0.0, 1.0, 101)
        calib = CalibrationStats(mu=0.0, sigma=1.0, scores_sorted=scores)
        assert threshold_for_fpr(calib, 0.05) == pytest.approx(0.95)

    def test_empirical_fpr_bounded(self):
        rng = np.random.default_rng(4)
        scores = np.sort(rng.standard_normal(500))
        calib = CalibrationStats(mu=0.0, sigma=1.0, scores_sorted=scores)
        for target in (0.01, 0.05, 0.2):
            theta = threshold_for_fpr(calib, target)
            observed = float(np.mean(scores > theta))
            assert observed <= target + 1e-12

    @pytest.mark.parametrize("fpr", [0.0, 1.0, -0.1, 1.5])
    def test_target_range_enforced(self, fpr):
        calib = CalibrationStats(mu=0.0, sigma=1.0, scores_sorted=np.arange(5.0))
        with pytest.raises(InputError, match="FPR"):
            threshold_for_fpr(calib, fpr)

    def test_requires_retained_scores(self):
        with pytest.raises(InputError, match="retained"):
            threshold_for_fpr(CalibrationStats(mu=0.0, sigma=1.0), 0.05)


class TestDetectSection:
    CALIB = CalibrationStats(mu=0.0, sigma=1.0, scores_sorted=np.linspace(0.0, 1.0, 101))

    def test_threshold_is_taken_as_given(self):
        assert DetectSection(threshold=2).theta(self.CALIB) == 2.0

    def test_target_fpr_takes_the_calibration_quantile(self):
        assert DetectSection(target_fpr=0.05).theta(self.CALIB) == threshold_for_fpr(
            self.CALIB, 0.05)


def _one_frame_pushes(frames, runtime, calib, **settings):
    """The verdicts of a new StreamDetector fed one frame per push."""
    det = StreamDetector(runtime, calib, **settings)
    return [v for frame in frames for v in det.push(frame[None])]


class TestStreamDetector:
    def _detector(self, trained_small, theta=3.0, **kw):
        return StreamDetector(trained_small["runtime"], trained_small["calib"], theta=theta,
                              windowing=trained_small["windowing"], **kw)

    def test_verdict_cadence_and_window_starts(self, trained_small):
        # 220 frames, T_W=100, T_S=40: verdicts as the 100th, 140th,
        # 180th and 220th frames land, with window_start 0/40/80/120.
        det = self._detector(trained_small)
        record = trained_small["test_records"][0]
        emitted = []
        for frame in record.frames:
            for v in det.push(frame[None]):
                emitted.append((det.frames_seen, v.window_start))
        assert emitted == [(100, 0), (140, 40), (180, 80), (220, 120)]
        expected = window_count(record.n_frames, trained_small["windowing"])
        assert len(emitted) == expected

    def test_short_stream_emits_nothing(self, trained_small):
        det = self._detector(trained_small)
        for frame in trained_small["test_records"][0].frames[:99]:
            assert det.push(frame[None]) == []

    def test_streaming_equals_batch_bitwise(self, trained_small):
        runtime = trained_small["runtime"]
        calib = trained_small["calib"]
        windowing = trained_small["windowing"]
        for record in trained_small["test_records"][:4]:
            batch = [
                score_from_l1(runtime.l1_error(w.values), calib)
                for w in sliding_windows(record, windowing)
            ]
            streamed = [v.score for v in _one_frame_pushes(record.frames, runtime, calib,
                                                           theta=3.0, windowing=windowing)]
            assert streamed == batch  # bitwise, not approx

    def test_verdict_flag_follows_threshold(self, trained_small):
        record = trained_small["test_records"][1]
        scores = [
            v.score
            for v in _one_frame_pushes(
                record.frames, trained_small["runtime"], trained_small["calib"], theta=0.0,
                windowing=trained_small["windowing"],
            )
        ]
        theta = float(np.median(scores))
        det = self._detector(trained_small, theta=theta)
        for frame in record.frames:
            for v in det.push(frame[None]):
                assert v.is_anomaly == (v.score > theta)
                assert v.inference_us >= 0.0

    def test_spiked_stream_scores_above_clean_counterpart(self, trained_small):
        clean = trained_small["test_records"][0]
        assert clean.label == "normal"
        spiked = clean.frames.copy()
        stds = clean.frames.std(axis=0)
        spiked[120:140, 2] += 8.0 * stds[2]
        runtime, calib = trained_small["runtime"], trained_small["calib"]
        settings = {"theta": 3.0, "windowing": trained_small["windowing"]}
        max_clean = max(v.score for v in _one_frame_pushes(clean.frames, runtime, calib,
                                                            **settings))
        max_spiked = max(v.score for v in _one_frame_pushes(spiked, runtime, calib, **settings))
        assert max_spiked > max_clean

    def test_overflowing_frames_give_anomalous_nan_verdicts(self, trained_small):
        # 1e39 is finite in float64, so the frame check passes it, but the
        # float32 kernel overflows on it and the score comes out NaN,
        # without a numpy warning.
        det = self._detector(trained_small)
        frames = np.full((trained_small["windowing"].window_len, 6), 1e39)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, [verdict] = (det.push(frame[None]) for frame in frames)
        assert np.isnan(verdict.score)
        assert verdict.is_anomaly is True

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_stride_period_must_be_finite_and_positive(self, trained_small, period):
        with pytest.raises(InputError, match="stride period must be finite and > 0"):
            self._detector(trained_small, stride_period_s=period)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_threshold_must_be_finite(self, trained_small, theta):
        with pytest.raises(InputError, match="threshold must be finite"):
            self._detector(trained_small, theta=theta)

    def test_missing_calibration_rejected(self, trained_small):
        with pytest.raises(InputError, match="calibration"):
            StreamDetector(trained_small["runtime"], None, theta=1.0,
                           windowing=trained_small["windowing"])

    def test_window_len_model_mismatch_rejected(self, trained_small):
        with pytest.raises(InputError, match="window_len"):
            StreamDetector(trained_small["runtime"], trained_small["calib"], theta=1.0,
                           windowing=WindowingConfig(80, 40))

    def test_bad_frame_shape_is_input_error(self, trained_small):
        det = self._detector(trained_small)
        det.push(np.zeros((1, 6)))
        with pytest.raises(InputError, match="frame 1"):
            det.push(np.zeros((1, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_is_input_error(self, trained_small, bad):
        det = self._detector(trained_small)
        det.push(np.zeros((1, 6)))
        frame = np.zeros(6)
        frame[3] = bad
        with pytest.raises(InputError, match="frame 1 has a non-finite value"):
            det.push(frame[None])
        assert det.frames_seen == 1

    def test_sampled_eps_reproducible_by_seed(self, trained_small):
        runtime = trained_small["runtime"]
        windowing = trained_small["windowing"]
        windows = []
        for rec in trained_small["train_records"][:4]:
            windows.extend(w.values for w in sliding_windows(rec, windowing))
        calib = calibrate(runtime, windows, eps_mode="sample", eps_seed=1)
        frames = trained_small["test_records"][0].frames

        def run(seed):
            return [v.score for v in _one_frame_pushes(frames, runtime, calib, theta=3.0,
                                                       windowing=windowing, eps_seed=seed)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_overrun_counter_with_impossible_budget(self, trained_small):
        det = self._detector(trained_small, stride_period_s=1e-12)
        for frame in trained_small["test_records"][0].frames:
            det.push(frame[None])
        assert det.overruns >= 1

    def test_a_block_steps_the_lstm_at_most_min_of_its_frames_and_t_w_times(
            self, trained_small, monkeypatch):
        # T_W=100, T_S=40: a block of F > T_W frames needs only T_W waves.
        calls = []
        step = fastpath.lstm_step
        monkeypatch.setattr(fastpath, "lstm_step", lambda *a: (calls.append(1), step(*a)))
        frames = np.concatenate([r.frames for r in trained_small["test_records"][:2]])
        det = self._detector(trained_small)
        edges = [0, 1, 40, 140, 390, 440]
        for a, b in zip(edges, edges[1:]):
            calls.clear()
            det.push(frames[a:b])
            assert 0 < len(calls) <= min(b - a, 100)

    @pytest.mark.parametrize("period, overruns", [(None, 0), (1e-12, 4)])
    def test_a_block_counts_the_overruns_of_its_frames_pushed_one_at_a_time(
            self, trained_small, period, overruns):
        frames = trained_small["test_records"][0].frames  # 220 frames: 4 verdicts
        single = self._detector(trained_small, stride_period_s=period)
        for frame in frames:
            single.push(frame[None])
        blocked = self._detector(trained_small, stride_period_s=period)
        assert len(blocked.push(frames)) == 4
        assert single.overruns == blocked.overruns == overruns

    @pytest.mark.parametrize("period_ms, overruns", [(0.1, 0), (0.08, 4)])
    def test_a_stride_is_its_frames_shares_of_the_block_plus_its_share_of_the_tail(
            self, trained_small, monkeypatch, period_ms, overruns):
        # 220 frames, 4 verdicts. On this clock the block's work before the
        # tail takes 1 us per frame and the tail 50 us per verdict, so each
        # stride (T_S=40 frames) took 40 + 50 = 90 us.
        det = self._detector(trained_small, stride_period_s=period_ms / 1000.0)
        ticks = iter([0, 220_000, 420_000])
        with monkeypatch.context() as m:
            m.setattr(time, "perf_counter_ns", lambda: next(ticks))
            verdicts = det.push(trained_small["test_records"][0].frames)
        assert [v.inference_us for v in verdicts] == [200.0] * 4
        assert det.overruns == overruns

    def test_every_verdict_of_a_block_carries_the_blocks_tail_time(self, trained_small):
        verdicts = self._detector(trained_small).push(trained_small["test_records"][0].frames)
        assert len(verdicts) == 4
        assert len({v.inference_us for v in verdicts}) == 1 and verdicts[0].inference_us > 0

    def test_overflowing_frame_poisons_only_the_windows_that_contain_it(self, trained_small):
        # T_W=100, T_S=40: three rows, and row 0 sits idle over frames
        # 100-119, between windows 0 and 120. Frame 110 overflows the
        # float32 kernel while windows 40 and 80 are in flight, and it
        # reaches idle row 0 too; window 120 restarts that row and must
        # score as if the frame had never been.
        runtime, calib = trained_small["runtime"], trained_small["calib"]
        frames = np.concatenate([r.frames for r in trained_small["test_records"][:2]])
        frames[110] = 1e39  # its gate pre-activations sum +inf and -inf: NaN
        det = self._detector(trained_small)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = [v for frame in frames for v in det.push(frame[None])]
            for v in verdicts:
                if v.window_start in (40, 80):
                    assert math.isnan(v.score) and v.is_anomaly is True
                else:
                    window = frames[v.window_start : v.window_start + 100]
                    assert v.score == score_from_l1(runtime.l1_error(window), calib)
                    assert math.isfinite(v.score)
        assert [v.window_start for v in verdicts][:4] == [0, 40, 80, 120]


@settings(deadline=None, max_examples=60)
@given(
    window_len=st.integers(1, 12),
    stride_frac=st.floats(0.0, 1.0),
    extra_strides=st.integers(0, 6),
    eps_mode=st.sampled_from(["zero", "sample"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_verdicts_equal_l1_error_on_the_same_slice(
        window_len, stride_frac, extra_strides, eps_mode, dtype, seed):
    # Any stride from 1 to window_len: dividing it or not, and equal to it.
    stride = 1 + round(stride_frac * (window_len - 1))
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(n_signals=3, window_len=window_len, hidden_size=5, latent_size=4,
                      flow_layers=2, made_hidden=6)
    norm = NormStats(mean=rng.standard_normal(3), std=rng.uniform(0.5, 2.0, 3))
    runtime = fastpath.ScoringRuntime(cfg, init_generator(cfg, rng), norm, dtype=dtype)
    calib = CalibrationStats(mu=rng.standard_normal(), sigma=rng.uniform(0.5, 2.0),
                             eps_mode=eps_mode)
    settings = {"theta": 0.0, "windowing": WindowingConfig(window_len, stride), "eps_seed": seed}
    frames = rng.standard_normal((window_len + extra_strides * stride + stride - 1, 3)) * 3.0
    eps_rng = np.random.default_rng(seed)
    verdicts = _one_frame_pushes(frames, runtime, calib, **settings)
    assert len(verdicts) == extra_strides + 1
    for j, v in enumerate(verdicts):
        assert v.window_start == j * stride
        eps = eps_rng.standard_normal(4) if eps_mode == "sample" else None
        l1 = runtime.l1_error(frames[v.window_start : v.window_start + window_len], eps)
        assert v.score == score_from_l1(l1, calib)  # bitwise


@settings(deadline=None, max_examples=60)
@given(
    window_len=st.integers(1, 12),
    stride_frac=st.floats(0.0, 1.0),
    extra_strides=st.integers(0, 6),
    eps_mode=st.sampled_from(["zero", "sample"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_any_partition_into_blocks_gives_the_verdicts_of_one_frame_pushes(
        window_len, stride_frac, extra_strides, eps_mode, dtype, seed, data):
    stride = 1 + round(stride_frac * (window_len - 1))
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(n_signals=3, window_len=window_len, hidden_size=5, latent_size=4,
                      flow_layers=2, made_hidden=6)
    norm = NormStats(mean=rng.standard_normal(3), std=rng.uniform(0.5, 2.0, 3))
    runtime = fastpath.ScoringRuntime(cfg, init_generator(cfg, rng), norm, dtype=dtype)
    calib = CalibrationStats(mu=rng.standard_normal(), sigma=rng.uniform(0.5, 2.0),
                             eps_mode=eps_mode)
    settings = {"theta": 0.0, "windowing": WindowingConfig(window_len, stride), "eps_seed": seed}
    frames = rng.standard_normal((window_len + extra_strides * stride + stride - 1, 3)) * 3.0
    # Block edges anywhere, or exactly where windows end; repeated edges
    # give empty blocks, adjacent ones blocks of one frame, and few edges
    # blocks that span several windows.
    window_ends = list(range(window_len, len(frames) + 1, stride))
    edges = sorted(data.draw(st.lists(st.one_of(st.integers(0, len(frames)),
                                                st.sampled_from(window_ends)), max_size=12)))
    bounds = [0, *edges, len(frames)]
    det = StreamDetector(runtime, calib, **settings)
    blocked = [v for a, b in zip(bounds, bounds[1:]) for v in det.push(frames[a:b])]
    single = StreamDetector(runtime, calib, **settings)
    one_by_one = [v for frame in frames for v in single.push(frame[None])]
    assert det.frames_seen == len(frames)
    assert len(blocked) == len(one_by_one) == extra_strides + 1
    eps_rng = np.random.default_rng(seed)
    for j, (v, w) in enumerate(zip(blocked, one_by_one)):
        eps = eps_rng.standard_normal(4) if eps_mode == "sample" else None
        l1 = runtime.l1_error(frames[j * stride : j * stride + window_len], eps)
        assert v.window_start == w.window_start == j * stride
        assert v.score == w.score == score_from_l1(l1, calib)  # bitwise
        assert v.is_anomaly == w.is_anomaly
