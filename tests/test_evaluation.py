"""Evaluation tests: AUROC (rank and trapezoid forms), ROC geometry,
per-type averaging, record scoring, IQR-mean latency, ablation configs."""

import dataclasses
import logging

import numpy as np
import pytest

from flowad.data import Record, WindowingConfig, record_windows, sliding_windows, window_count
from flowad.detection import calibrate, score_from_l1
from flowad.errors import InputError
from flowad.evaluation import (
    LatencyReport,
    ScoredRecord,
    ablation_variants,
    auroc,
    bench_latency,
    evaluate,
    iqr_mean,
    per_type_auroc,
    roc_curve,
    run_ablation,
    score_records,
    trapezoid_auc,
)
from flowad.fastpath import ScoringRuntime
from flowad.model import ModelConfig
from flowad.synth import SynthConfig, synth_generate
from flowad.training import TrainConfig, train


def _pairwise_auroc(scores, labels):
    """Brute-force P(pos > neg) with ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuroc:
    def test_hand_case(self):
        # 3 of the 4 (pos, neg) pairs rank correctly.
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_and_inverted(self):
        assert auroc([1, 2, 3, 4], [0, 0, 1, 1]) == 1.0
        assert auroc([4, 3, 2, 1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_chance(self):
        assert auroc([5.0] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            # coarse grid forces frequent ties
            scores = rng.integers(0, 6, size=n).astype(float)
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                continue
            assert auroc(scores, labels) == pytest.approx(
                _pairwise_auroc(scores, labels), abs=1e-12
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(3.0 * scores + 10.0, labels) == pytest.approx(base, abs=1e-12)

    def test_needs_both_classes(self):
        with pytest.raises(InputError, match="both classes"):
            auroc([1.0, 2.0], [1, 1])
        with pytest.raises(InputError, match="both classes"):
            auroc([1.0, 2.0], [0, 0])

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            auroc([1.0, 2.0, 3.0], [0, 1])


class TestRocCurve:
    def test_hand_case_geometry(self):
        points = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        expected = np.array([(0, 0), (0, 0.5), (0.5, 0.5), (0.5, 1), (1, 1)])
        np.testing.assert_allclose(points, expected)
        assert trapezoid_auc(points) == pytest.approx(0.75)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            scores = np.round(rng.standard_normal(n), 1)  # induce ties
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            pts = roc_curve(scores, labels)
            np.testing.assert_array_equal(pts[0], [0.0, 0.0])
            np.testing.assert_array_equal(pts[-1], [1.0, 1.0])
            assert np.all(np.diff(pts[:, 0]) >= 0)
            assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_equals_a_group_by_group_walk_bit_for_bit(self):
        # The reference walks the sorted scores, closing a group of ties at
        # each score unequal to its first; a NaN equals nothing, so each NaN
        # is its own group.
        def walk(scores, labels):
            order = np.argsort(-scores, kind="mergesort")
            s, y = scores[order], labels[order]
            n_pos = int(labels.sum())
            points, tp, fp, i = [(0.0, 0.0)], 0, 0, 0
            while i < len(s):
                j = i
                while j + 1 < len(s) and s[j + 1] == s[i]:
                    j += 1
                tp += int(y[i : j + 1].sum())
                fp += (j - i + 1) - int(y[i : j + 1].sum())
                points.append((fp / (len(s) - n_pos), tp / n_pos))
                i = j + 1
            return np.array(points)

        rng = np.random.default_rng(30)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            scores = np.round(rng.standard_normal(n), 1)
            scores[rng.random(n) < 0.1] = np.nan
            labels = rng.integers(0, 2, size=n).astype(bool)
            labels[:2] = [False, True]
            assert roc_curve(scores, labels).tobytes() == walk(scores, labels).tobytes()

    def test_ties_grouped_into_single_step(self):
        pts = roc_curve([1.0, 1.0, 0.0], [1, 0, 0])
        np.testing.assert_allclose(pts, [(0, 0), (0.5, 1.0), (1, 1)])
        assert trapezoid_auc(pts) == pytest.approx(0.75)

    def test_trapezoid_equals_rank_form(self):
        # The geometric and rank-statistic forms agree to float precision,
        # ties included.
        rng = np.random.default_rng(29)
        for trial in range(300):
            n = int(rng.integers(4, 80))
            if trial % 2:
                scores = rng.standard_normal(n)
            else:
                scores = rng.integers(0, 8, size=n).astype(float)
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                continue
            direct = auroc(scores, labels)
            geometric = trapezoid_auc(roc_curve(scores, labels))
            assert abs(direct - geometric) <= 1e-12


class TestIqrMean:
    def test_hand_case_one_to_eight(self):
        mean, q1, q3 = iqr_mean(np.arange(1.0, 9.0))
        assert q1 == pytest.approx(2.75)
        assert q3 == pytest.approx(6.25)
        # values inside [2.75, 6.25] are {3,4,5,6}
        assert mean == pytest.approx(4.5)

    def test_constant_input(self):
        mean, q1, q3 = iqr_mean(np.full(10, 7.0))
        assert mean == 7.0 and q1 == 7.0 and q3 == 7.0

    def test_single_value(self):
        mean, _, _ = iqr_mean(np.array([42.0]))
        assert mean == 42.0

    def test_outlier_resistance(self):
        values = np.concatenate([np.full(99, 1.0), [1e9]])
        mean, _, _ = iqr_mean(values)
        assert mean == pytest.approx(1.0)
        assert values.mean() > 1e6  # the plain mean is wrecked


class TestPerTypeAuroc:
    def _scored(self, sid, label, atype, score):
        return ScoredRecord(
            sample_id=sid,
            label=label,
            anomaly_type=atype,
            window_scores=np.array([score]),
            record_score=score,
        )

    def test_hand_case_types_vs_normals_only(self):
        scored = [
            self._scored("n0", "normal", "", 0.0),
            self._scored("n1", "normal", "", 1.0),
            self._scored("a0", "anomalous", "A", 2.0),
            self._scored("a1", "anomalous", "A", 3.0),
            self._scored("b0", "anomalous", "B", 0.5),
            self._scored("b1", "anomalous", "B", 2.0),
        ]
        report = per_type_auroc(scored)
        # Each type is ranked against the normal pool alone; if type A
        # leaked into B's negatives, B would come out 0.4375 not 0.75.
        assert set(report) == {"per_type", "overall_mean", "overall_std"}
        assert report["per_type"]["A"] == pytest.approx(1.0)
        assert report["per_type"]["B"] == pytest.approx(0.75)
        assert report["overall_mean"] == pytest.approx(0.875)  # unweighted mean
        assert report["overall_std"] == pytest.approx(0.125)  # population std

    def test_requires_normals(self):
        scored = [self._scored("a", "anomalous", "A", 1.0)]
        with pytest.raises(InputError, match="normal"):
            per_type_auroc(scored)

    def test_requires_anomalies(self):
        scored = [self._scored("n", "normal", "", 1.0)]
        with pytest.raises(InputError, match="anomaly type"):
            per_type_auroc(scored)


class TestScoreRecords:
    def test_record_score_is_max_window_score(self, trained_small):
        scored, skipped = score_records(
            trained_small["test_records"],
            trained_small["runtime"],
            trained_small["calib"],
            trained_small["windowing"],
        )
        assert skipped == 0
        assert len(scored) == len(trained_small["test_records"])
        expected_n = window_count(220, trained_small["windowing"])
        for sr in scored:
            assert len(sr.window_scores) == expected_n
            assert sr.record_score == sr.window_scores.max()

    def test_short_records_skipped_and_counted(self, trained_small):
        short = Record(sample_id="tiny", frames=np.zeros((50, 6)))
        scored, skipped = score_records(
            [trained_small["test_records"][0], short],
            trained_small["runtime"],
            trained_small["calib"],
            trained_small["windowing"],
        )
        assert skipped == 1
        assert [sr.sample_id for sr in scored] != ["tiny"]
        assert len(scored) == 1

    def test_requires_calibration(self, trained_small):
        with pytest.raises(InputError, match="calibration"):
            score_records(
                trained_small["test_records"][:1],
                trained_small["runtime"],
                None,
                trained_small["windowing"],
            )

    @pytest.mark.parametrize("eps_mode", ["zero", "sample"])
    def test_block_scoring_equals_per_window_path(self, trained_small, eps_mode):
        # A 9-window record first, so scoring blocks straddle records.
        tr = trained_small["test_records"]
        long = Record(sample_id="long", frames=np.concatenate([tr[0].frames, tr[1].frames]))
        records = [long] + tr[2:14]
        runtime = trained_small["runtime"]
        # score_records draws eps by the calibration's mode
        calib = dataclasses.replace(trained_small["calib"], eps_mode=eps_mode)
        windowing = trained_small["windowing"]
        scored, skipped = score_records(records, runtime, calib, windowing, 4)
        assert skipped == 0 and len(scored) == len(records)
        rng = np.random.default_rng(4)
        d = runtime.config.latent_size
        for rec, sr in zip(records, scored):
            want = np.array([
                score_from_l1(runtime.l1_error(
                    w.values, rng.standard_normal(d) if eps_mode == "sample" else None), calib)
                for w in sliding_windows(rec, windowing)
            ])
            assert sr.sample_id == rec.sample_id
            assert sr.window_scores.tobytes() == want.tobytes()
            assert sr.record_score == want.max()

    def test_deterministic_in_zero_eps_mode(self, trained_small):
        args = (
            trained_small["test_records"][:3],
            trained_small["runtime"],
            trained_small["calib"],
            trained_small["windowing"],
        )
        first, _ = score_records(*args)
        second, _ = score_records(*args)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.window_scores, b.window_scores)


class TestEvaluate:
    def test_report_structure_and_consistency(self, trained_small):
        report = evaluate(
            trained_small["test_records"],
            trained_small["runtime"],
            trained_small["calib"],
            trained_small["windowing"],
        )
        assert set(report.keys()) == {
            "per_type", "overall_mean", "overall_std", "n_records", "n_skipped",
        }
        assert set(report["per_type"]) == {"spike", "drift", "dropout"}
        vals = np.array(list(report["per_type"].values()))
        assert report["overall_mean"] == pytest.approx(vals.mean())
        assert report["overall_std"] == pytest.approx(vals.std())
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert report["n_records"] == 24 and report["n_skipped"] == 0


class TestBenchLatency:
    def test_report_fields_and_iqr_consistency(self, trained_small, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        windowing = trained_small["windowing"]
        windows = []
        for rec in trained_small["train_records"]:
            from flowad.data import sliding_windows

            windows.extend(w.values for w in sliding_windows(rec, windowing))
        report = bench_latency(
            trained_small["runtime"], trained_small["calib"], windows[:120],
            repetitions=1, warmup=10,
        )
        assert isinstance(report, LatencyReport)
        assert len(report.timings_us) == 120
        assert report.q1_us <= report.iqr_mean_us <= report.q3_us
        recomputed, q1, q3 = iqr_mean(report.timings_us)
        assert report.iqr_mean_us == recomputed
        assert report.window_len == 100 and report.n_signals == 6
        d = report.to_dict()
        assert d["n_timed"] == 120 and d["backend"] == "numpy"
        assert d["blas_threads"] == {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "3",
                                     "MKL_NUM_THREADS": None}
        assert "hardware" in d

    def test_minimum_timed_inferences_enforced(self, trained_small):
        windows = [np.zeros((100, 6))] * 30
        with pytest.raises(InputError, match="100"):
            bench_latency(
                trained_small["runtime"], trained_small["calib"], windows,
                repetitions=3,
            )

    def test_empty_windows_rejected(self, trained_small):
        with pytest.raises(InputError, match="at least one"):
            bench_latency(trained_small["runtime"], trained_small["calib"], [])

    @pytest.mark.parametrize("eps_mode", ["zero", "sample"])
    def test_eps_is_drawn_by_the_calibrations_mode(self, trained_small, monkeypatch, eps_mode):
        runtime = trained_small["runtime"]
        calib = dataclasses.replace(trained_small["calib"], eps_mode=eps_mode)
        seen, l1_error = [], runtime.l1_error

        def recording(window, eps=None):
            seen.append(eps)
            return l1_error(window, eps)

        monkeypatch.setattr(runtime, "l1_error", recording)
        windows = [np.zeros((100, 6))] * 50
        bench_latency(runtime, calib, windows, repetitions=2, warmup=5)
        assert seen.pop(0) is None  # runtime.warm_up's window, before any draw
        assert len(seen) == 105
        if eps_mode == "zero":
            assert seen == [None] * 105
        else:  # seeded with 0, one draw per inference, warm-up included
            d = runtime.config.latent_size
            np.testing.assert_array_equal(
                np.stack(seen), np.random.default_rng(0).standard_normal((105, d)))


class TestAblationVariants:
    def test_three_variants_with_expected_shapes(self):
        base = ModelConfig(n_signals=12, window_len=150)
        variants = ablation_variants(base)
        assert set(variants) == {"full", "no_sparsity", "no_flow"}
        assert variants["full"] is base

        ns = variants["no_sparsity"]
        # compressed bottleneck replaces the L1 constraint
        assert ns.hidden_size == 6 and ns.latent_size == 6
        assert ns.use_sparsity is False and ns.use_flow is True
        assert ns.flow_layers == base.flow_layers

        nf = variants["no_flow"]
        assert nf.flow_layers == 0 and nf.use_flow is False
        assert nf.hidden_size == base.hidden_size
        assert nf.latent_size == base.latent_size
        assert nf.use_sparsity is True

    def test_compressed_width_floor(self):
        variants = ablation_variants(ModelConfig(n_signals=1, window_len=20))
        assert variants["no_sparsity"].latent_size == 1


class TestRunAblation:
    def test_each_variant_windows_a_short_training_record_once(self, caplog):
        windowing = WindowingConfig(20, 10)
        model_cfg = ModelConfig(n_signals=3, window_len=20, hidden_size=4, latent_size=4,
                                flow_layers=1, made_hidden=4, disc_widths=(4,))
        records = synth_generate(SynthConfig(num_normal=4, num_anomalous=0, n_frames=40,
                                             n_signals=3, seed=1))
        records.append(dataclasses.replace(records[0], sample_id="short",
                                           frames=records[0].frames[:10]))
        test = synth_generate(SynthConfig(num_normal=3, num_anomalous=3, n_frames=40,
                                          n_signals=3, seed=2))
        train_cfg = TrainConfig(epochs=1, seed=0)
        with caplog.at_level(logging.WARNING, logger="flowad.data"):
            report = run_ablation(records, test, model_cfg, train_cfg, windowing)
        naming = [r.getMessage() for r in caplog.records if "'short'" in r.getMessage()]
        assert naming == ["record 'short' has 10 frames, shorter than the window length 20; "
                          "skipped"] * 3  # one per variant
        # Each variant is calibrated on its training windows.
        result = train(records, model_cfg, train_cfg, windowing)
        runtime = ScoringRuntime(model_cfg, result.generator, result.norm_stats)
        calib = calibrate(runtime, (w for _, ws in record_windows(records, windowing)
                                    for w in ws))
        full = dict(report["variants"]["full"])
        del full["train_eval_s"]
        assert full == evaluate(test, runtime, calib, windowing)
