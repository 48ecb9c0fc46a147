"""Acceptance gate: one test per shipped guarantee, each printing a
single measured pass/fail line (visible via -rA or on failure).

The heavyweight 5-seed benchmark behind criteria 6 and 7 runs once and
is shared. Criterion 10 needs an externally supplied torque dataset and
skips when it is absent.
"""

import json
import os
import time

import numpy as np
import pytest

from flowad.autodiff import value_and_grad
from flowad.cli import main as cli_main
from flowad.data import NormStats, WindowingConfig, sliding_windows, window_count
from flowad.detection import (
    CalibrationStats,
    StreamDetector,
    calibrate,
    score_from_l1,
)
from flowad.evaluation import auroc, bench_latency, roc_curve, run_ablation, trapezoid_auc
from flowad.fastpath import BACKEND, ScoringRuntime
from flowad.losses import loss_discriminator, loss_generator
from flowad.masks import build_masks
from flowad.model import (
    ModelConfig,
    build_flow_masks,
    generator_forward,
    init_discriminator,
    init_generator,
    made_forward,
    maf_forward,
    maf_inverse,
)
from flowad.synth import SynthConfig, synth_generate
from flowad.training import TrainConfig


def _report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}")


def _finite_diff_grads(fn, params, h=1e-6):
    """Central differences over every coordinate of every array."""
    out = {}
    for name, arr in params.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = float(fn(params))
            flat[i] = keep - h
            f_minus = float(fn(params))
            flat[i] = keep
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        out[name] = g
    return out


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a = analytic[name]
        n = numeric[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestCriterion1GradientCorrectness:
    def test_generator_and_discriminator_gradients(self, toy_cfg):
        t0 = time.perf_counter()
        cfg = toy_cfg  # N=3, T_W=8, D_z=6, K=2
        rng = np.random.default_rng(42)
        gen = init_generator(cfg, rng)
        disc = init_discriminator(cfg, rng)
        masks = build_flow_masks(cfg)
        window = rng.standard_normal((1, cfg.window_len, cfg.n_signals))
        eps = rng.standard_normal((1, cfg.latent_size))
        lam, beta = 1e-3, 0.7

        def gen_loss(p):
            lp = generator_forward(window, p, masks, cfg, eps)
            total, _ = loss_generator(lp, window, p, disc, cfg, lam, beta)
            return total

        (_, _), g_analytic = value_and_grad(lambda p: (gen_loss(p), None), gen, has_aux=True)
        g_numeric = _finite_diff_grads(gen_loss, gen)
        gen_err = _max_rel_err(g_analytic, g_numeric)

        z_prior = rng.standard_normal((4, cfg.latent_size))
        z_k = rng.standard_normal((4, cfg.latent_size))

        def disc_loss(p):
            return loss_discriminator(z_prior, z_k, p, cfg)

        _, d_analytic = value_and_grad(disc_loss, disc)
        d_numeric = _finite_diff_grads(disc_loss, disc)
        disc_err = _max_rel_err(d_analytic, d_numeric)

        elapsed = time.perf_counter() - t0
        ok = gen_err < 1e-4 and disc_err < 1e-4 and elapsed < 10.0
        _report(1, ok, f"FD max rel err generator {gen_err:.2e}, "
                       f"discriminator {disc_err:.2e} (tol 1e-4) in {elapsed:.1f}s (limit 10s)")
        assert gen_err < 1e-4
        assert disc_err < 1e-4
        assert elapsed < 10.0


class TestCriterion2AutoregressiveStructure:
    def test_numerical_jacobian_strictly_lower_triangular(self):
        rng = np.random.default_rng(7)
        sizes = [3, 8, 24]
        worst = 0.0
        h = 1e-6
        for trial in range(50):
            d = sizes[trial % len(sizes)]
            hidden = 2 * d
            m_enc, m_dec = build_masks(d, hidden)
            enc_w = 0.5 * rng.standard_normal((d, hidden))
            enc_b = 0.5 * rng.standard_normal(hidden)
            dec_w = 0.5 * rng.standard_normal((hidden, d))
            dec_b = 0.5 * rng.standard_normal(d)
            z = rng.standard_normal((1, d))
            jac = np.zeros((d, d))
            for j in range(d):
                zp, zm = z.copy(), z.copy()
                zp[0, j] += h
                zm[0, j] -= h
                fp = made_forward(zp, enc_w, enc_b, dec_w, dec_b, m_enc, m_dec)
                fm = made_forward(zm, enc_w, enc_b, dec_w, dec_b, m_enc, m_dec)
                jac[:, j] = (np.asarray(fp)[0] - np.asarray(fm)[0]) / (2.0 * h)
            # everything on or above the diagonal must vanish
            upper = np.abs(np.triu(jac))
            worst = max(worst, float(upper.max()))
        ok = worst < 1e-7
        _report(2, ok, f"50 MADE Jacobians (D in {{3,8,24}}): max |upper-tri| {worst:.2e} (tol 1e-7)")
        assert worst < 1e-7


class TestCriterion3FlowInvertibility:
    def test_round_trip_1000_vectors(self):
        cfg = ModelConfig(
            n_signals=4, window_len=20, hidden_size=8, latent_size=8,
            flow_layers=3, made_hidden=16, disc_widths=(8,),
        )
        rng = np.random.default_rng(11)
        params = init_generator(cfg, rng)
        masks = build_flow_masks(cfg)
        worst = 0.0
        for _ in range(1000):
            z0 = rng.standard_normal((1, cfg.latent_size))
            zk = maf_forward(z0, params, masks, cfg)
            back = maf_inverse(np.asarray(zk), params, masks, cfg)
            worst = max(worst, float(np.max(np.abs(back - z0))))
        ok = worst < 1e-9
        _report(3, ok, f"1000 maf_inverse(maf_forward(z)) round trips: max abs err {worst:.2e} (tol 1e-9)")
        assert worst < 1e-9


class TestCriterion4StreamingBatchEquivalence:
    def test_bitwise_equality_and_window_count(self, trained_small):
        runtime = trained_small["runtime"]
        calib = trained_small["calib"]
        windowing = trained_small["windowing"]
        checked = 0
        all_equal = True
        for record in trained_small["test_records"]:
            batch = [
                score_from_l1(runtime.l1_error(w.values), calib)
                for w in sliding_windows(record, windowing)
            ]
            det = StreamDetector(runtime, calib, theta=3.0, windowing=windowing)
            streamed = [v.score for frame in record.frames for v in det.push(frame[None])]
            expected_n = (record.n_frames - windowing.window_len) // windowing.stride + 1
            all_equal &= streamed == batch and len(streamed) == expected_n
            checked += len(streamed)
        _report(4, all_equal, f"streamed == batch bitwise over {checked} verdicts; "
                              f"counts match floor((T-T_W)/T_S)+1")
        assert all_equal


class TestCriterion5AurocOracleEquivalence:
    def test_hand_case_and_1000_random_sets(self):
        hand = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        rng = np.random.default_rng(23)
        worst = 0.0
        tested = 0
        while tested < 1000:
            n = int(rng.integers(4, 60))
            if tested % 2:
                scores = rng.standard_normal(n)
            else:
                scores = rng.integers(0, 7, size=n).astype(float)  # heavy ties
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                continue
            rank_form = auroc(scores, labels)
            trap_form = trapezoid_auc(roc_curve(scores, labels))
            # pairwise definition with ties counting one half
            pos, neg = scores[labels == 1], scores[labels == 0]
            gt = (pos[:, None] > neg[None, :]).sum()
            eq = (pos[:, None] == neg[None, :]).sum()
            pairwise = (gt + 0.5 * eq) / (len(pos) * len(neg))
            worst = max(worst, abs(rank_form - trap_form), abs(rank_form - pairwise))
            tested += 1
        ok = hand == 0.75 and worst <= 1e-12
        _report(5, ok, f"hand case -> {hand} (want exactly 0.75); "
                       f"1000 sets max |trapezoid - pairwise| {worst:.2e} (tol 1e-12)")
        assert hand == 0.75
        assert worst <= 1e-12


@pytest.fixture(scope="module")
def ablation_5seeds():
    """The published-protocol benchmark: 200 normal train / 50+50 test,
    N=12, T=300, default 15-epoch training, seeds 0..4, three variants."""
    model_cfg = ModelConfig(n_signals=12, window_len=150)
    windowing = WindowingConfig(window_len=150, stride=50)
    t0 = time.perf_counter()
    reports = []
    for seed in range(5):
        train_records = synth_generate(
            SynthConfig(num_normal=200, num_anomalous=0, n_frames=300,
                        n_signals=12, seed=1000 + seed)
        )
        test_records = synth_generate(
            SynthConfig(num_normal=50, num_anomalous=50, n_frames=300,
                        n_signals=12, seed=2000 + seed)
        )
        reports.append(
            run_ablation(train_records, test_records, model_cfg,
                         TrainConfig(seed=seed), windowing)
        )
    elapsed = time.perf_counter() - t0
    means = {
        variant: float(np.mean([r["variants"][variant]["overall_mean"] for r in reports]))
        for variant in ("full", "no_sparsity", "no_flow")
    }
    return {"reports": reports, "means": means, "elapsed_s": elapsed}


class TestCriterion6EndToEndDetection:
    def test_mean_auroc_and_runtime(self, ablation_5seeds):
        mean_full = ablation_5seeds["means"]["full"]
        elapsed = ablation_5seeds["elapsed_s"]
        per_seed = [r["variants"]["full"]["overall_mean"] for r in ablation_5seeds["reports"]]
        ok = mean_full >= 0.85 and elapsed < 600.0
        _report(6, ok, f"5-seed mean per-type AUROC {mean_full:.4f} (floor 0.85), "
                       f"per-seed {['%.3f' % v for v in per_seed]}, "
                       f"benchmark wall time {elapsed:.0f}s (limit 600s, all variants included)")
        assert mean_full >= 0.85
        assert elapsed < 600.0


class TestCriterion7AblationDirection:
    def test_full_model_not_behind_ablations(self, ablation_5seeds):
        m = ablation_5seeds["means"]
        ok = m["full"] >= m["no_flow"] - 0.02 and m["full"] >= m["no_sparsity"] - 0.02
        _report(7, ok, f"full {m['full']:.4f} vs no_flow {m['no_flow']:.4f} "
                       f"and no_sparsity {m['no_sparsity']:.4f} (slack 0.02)")
        assert m["full"] >= m["no_flow"] - 0.02
        assert m["full"] >= m["no_sparsity"] - 0.02


class TestCriterion8Latency:
    def test_iqr_mean_single_window_inference(self):
        cfg = ModelConfig(n_signals=12, window_len=150)  # default sizes
        rng = np.random.default_rng(5)
        gen = init_generator(cfg, rng)
        stats = NormStats(mean=np.zeros(12), std=np.ones(12))
        runtime = ScoringRuntime(cfg, gen, stats, dtype=np.float32)
        calib = CalibrationStats(mu=0.0, sigma=1.0)
        windows = list(rng.standard_normal((128, 150, 12)))
        report = bench_latency(runtime, calib, windows, repetitions=3, warmup=20)
        ms = report.iqr_mean_us / 1000.0
        ok = ms < 5.0
        _report(8, ok, f"IQR-mean inference {ms:.3f} ms over {len(report.timings_us)} runs "
                       f"on the {BACKEND} kernel "
                       f"(target < 1 ms, CI bound < 5 ms)")
        assert ms < 5.0


class TestCriterion9Reproducibility:
    def test_byte_identical_artifacts_across_runs(self, tmp_path):
        config = {
            "windowing": {"window_len": 40, "stride": 20},
            "model": {"hidden_size": 8, "latent_size": 6, "flow_layers": 1,
                      "made_hidden": 8, "disc_widths": [8]},
            "train": {"epochs": 2, "batch_size": 8, "seed": 5},
            "synth": {"n_signals": 4, "n_frames": 100, "seed": 9},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        # identical paths both times, so even embedded provenance matches
        data = tmp_path / "data.csv"
        test = tmp_path / "test.csv"
        ckpt = tmp_path / "model.ckpt"
        rep = tmp_path / "report.json"
        digests = []
        for _run in range(2):
            assert cli_main(["gen-data", "--config", str(cfg_path), "--num-normal",
                             "10", "--out", str(data)]) == 0
            assert cli_main(["gen-data", "--config", str(cfg_path), "--seed", "21",
                             "--num-normal", "5", "--num-anomalous", "5",
                             "--out", str(test)]) == 0
            assert cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                             "--out", str(ckpt)]) == 0
            assert cli_main(["calibrate", "--config", str(cfg_path), "--checkpoint",
                             str(ckpt), "--data", str(data)]) == 0
            assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint",
                             str(ckpt), "--data", str(test), "--out", str(rep)]) == 0
            digests.append(
                (data.read_bytes(), test.read_bytes(), ckpt.read_bytes(), rep.read_bytes())
            )
        same = all(a == b for a, b in zip(digests[0], digests[1]))
        _report(9, same, "dataset CSVs, checkpoint, and eval report byte-identical "
                         "across two runs" if same else "artifact bytes differ between runs")
        assert same


class TestCriterion10ExternalTorqueDataset:
    def test_external_dataset_auroc_window(self, tmp_path):
        root = os.environ.get("FLOWAD_VORAUS_DIR")
        if not root:
            _report(10, True, "SKIP external torque dataset not supplied "
                              "(set FLOWAD_VORAUS_DIR to a directory with train.csv/test.csv)")
            pytest.skip("external torque dataset not supplied")
        train_csv = os.path.join(root, "train.csv")
        test_csv = os.path.join(root, "test.csv")
        ckpt = tmp_path / "voraus.ckpt"
        rep = tmp_path / "voraus-report.json"
        assert cli_main(["train", "--data", train_csv, "--out", str(ckpt)]) == 0
        assert cli_main(["calibrate", "--checkpoint", str(ckpt), "--data", train_csv]) == 0
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--data", test_csv,
                         "--out", str(rep)]) == 0
        mean = json.loads(rep.read_text())["overall_mean"]
        ok = abs(mean - 0.8923) <= 0.05
        _report(10, ok, f"external torque dataset mean AUROC {mean:.4f} "
                        f"(want within +/-0.05 of 0.8923)")
        assert ok
