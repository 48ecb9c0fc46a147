"""Training-loop tests: schedules, the prior buffer, step accounting,
loss bookkeeping, the sparsity effect, and determinism."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import traced_peak
from flowad import training
from flowad.data import Record, WindowingConfig
from flowad.errors import InputError
from flowad.model import ModelConfig
from flowad.synth import SynthConfig, synth_generate
from flowad.training import (
    PriorBuffer,
    TrainConfig,
    beta_schedule,
    lr_schedule,
    train,
)


def _wave_records(num, n_signals=4, n_frames=100, seed=0, label="normal"):
    """Deterministic multi-sine records with mild noise; enough structure
    for a few epochs of optimization to make visible progress."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames) / 100.0
    out = []
    for i in range(num):
        frames = np.stack(
            [np.sin(2 * np.pi * (0.9 + 0.3 * j) * t + 0.1 * i) for j in range(n_signals)],
            axis=1,
        )
        frames += 0.02 * rng.standard_normal(frames.shape)
        kw = {}
        if label != "normal":
            kw = {"label": label, "anomaly_type": "spike"}
        out.append(Record(sample_id=f"r{i:03d}", frames=frames, **kw))
    return out


TINY_MODEL = ModelConfig(
    n_signals=4,
    window_len=50,
    hidden_size=6,
    latent_size=4,
    flow_layers=1,
    made_hidden=6,
    disc_widths=(6,),
)
TINY_WINDOWING = WindowingConfig(window_len=50, stride=25)


def _tiny_train_cfg(**kw):
    base = dict(epochs=2, batch_size=8, seed=7, shuffle=False)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_pin_published_protocol(self):
        cfg = TrainConfig()
        assert cfg.epochs == 15
        assert cfg.batch_size == 8
        assert cfg.milestones == (2, 12)

    @pytest.mark.parametrize(
        "kw",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"lam": -1e-9},
            {"beta_max": -0.5},
            {"prior_capacity": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(InputError):
            TrainConfig(**kw)

    def test_dict_round_trip(self):
        cfg = TrainConfig(epochs=4, milestones=(1, 3), lam=0.02, shuffle=False)
        clone = TrainConfig(**json.loads(json.dumps(asdict(cfg))))
        assert clone == cfg
        assert isinstance(clone.milestones, tuple)

    def test_milestones_coerced_to_tuple(self):
        cfg = TrainConfig(milestones=[2, 12])
        assert cfg.milestones == (2, 12)


class TestBetaSchedule:
    def test_starts_at_zero(self):
        assert beta_schedule(0, TrainConfig(epochs=15)) == 0.0

    def test_ends_at_beta_max(self):
        cfg = TrainConfig(epochs=15, beta_max=2.0)
        assert beta_schedule(14, cfg) == pytest.approx(2.0)

    def test_midpoint_hand_case(self):
        # 15 epochs, linear ramp: epoch 7 sits exactly halfway.
        assert beta_schedule(7, TrainConfig(epochs=15, beta_max=1.0)) == pytest.approx(0.5)

    def test_single_epoch_run_stays_at_zero(self):
        assert beta_schedule(0, TrainConfig(epochs=1)) == 0.0

    def test_monotone_non_decreasing(self):
        cfg = TrainConfig(epochs=9, beta_max=3.0)
        vals = [beta_schedule(e, cfg) for e in range(9)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0 and vals[-1] == pytest.approx(3.0)

    @pytest.mark.parametrize("epoch", [-1, 15, 100])
    def test_out_of_range_epoch_rejected(self, epoch):
        with pytest.raises(InputError):
            beta_schedule(epoch, TrainConfig(epochs=15))


class TestPriorBuffer:
    def test_empty_buffer_bootstraps_standard_normal(self):
        buf = PriorBuffer(capacity=64, latent_size=5)
        rng = np.random.default_rng(0)
        z = buf.sample(4000, rng)
        assert z.shape == (4000, 5)
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05

    def test_bootstrap_reproducible_by_seed(self):
        buf = PriorBuffer(capacity=8, latent_size=3)
        a = buf.sample(16, np.random.default_rng(123))
        b = buf.sample(16, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_single_vector_dominates(self):
        buf = PriorBuffer(capacity=8, latent_size=3)
        v = np.array([1.0, -2.0, 0.5])
        buf.push(v[None])
        z = buf.sample(10, np.random.default_rng(1))
        assert np.all(z == v)

    def test_draws_come_only_from_contents(self):
        buf = PriorBuffer(capacity=32, latent_size=2)
        pushed = np.arange(10.0).reshape(5, 2)
        buf.push(pushed)
        z = buf.sample(200, np.random.default_rng(2))
        rows = {tuple(r) for r in z}
        assert rows <= {tuple(r) for r in pushed}
        # with 200 draws from 5 entries, every entry should appear
        assert len(rows) == 5

    def test_fifo_eviction(self):
        buf = PriorBuffer(capacity=3, latent_size=1)
        for k in range(5):
            buf.push(np.array([[float(k)]]))
        assert len(buf) == 3
        z = buf.sample(100, np.random.default_rng(3))
        assert set(z.ravel()) <= {2.0, 3.0, 4.0}

    def test_push_validates_latent_length(self):
        buf = PriorBuffer(capacity=4, latent_size=3)
        with pytest.raises(InputError, match="latent length"):
            buf.push(np.zeros((2, 5)))

    def test_capacity_must_be_positive(self):
        with pytest.raises(InputError):
            PriorBuffer(capacity=0, latent_size=3)


def _optimizer_steps(monkeypatch) -> dict:
    """Counts `adamw_step` calls during training, per optimizer state."""
    steps = {}
    real = training.adamw_step

    def counting(params, grads, state):
        steps[id(state)] = steps.get(id(state), 0) + 1
        return real(params, grads, state)

    monkeypatch.setattr(training, "adamw_step", counting)
    return steps


class TestTrainStepAccounting:
    def test_one_batch_per_epoch_when_records_fit(self, monkeypatch):
        # 8 records with batch_size 8: a single averaged update per
        # network per epoch, regardless of the 3 windows per record.
        steps = _optimizer_steps(monkeypatch)
        train(_wave_records(8), TINY_MODEL, _tiny_train_cfg(epochs=3), TINY_WINDOWING)
        assert sorted(steps.values()) == [3, 3]  # generator and discriminator

    def test_two_batches_when_records_spill(self, monkeypatch):
        steps = _optimizer_steps(monkeypatch)
        train(_wave_records(9), TINY_MODEL, _tiny_train_cfg(epochs=2), TINY_WINDOWING)
        assert sorted(steps.values()) == [4, 4]

    def test_log_shape_and_schedule_fields(self):
        cfg = _tiny_train_cfg(epochs=4, eta0=1e-2, gamma=0.5, milestones=(1, 3))
        res = train(_wave_records(6), TINY_MODEL, cfg, TINY_WINDOWING)
        assert len(res.log) == 4
        for epoch, entry in enumerate(res.log):
            assert entry["epoch"] == epoch
            assert entry["eta"] == pytest.approx(lr_schedule(epoch, cfg))
            assert entry["beta"] == pytest.approx(beta_schedule(epoch, cfg))
            for key in ("mean_L_mse", "mean_L_l1", "mean_L_bce", "mean_L_D", "wall_time_s"):
                assert key in entry and np.isfinite(entry[key])


def test_train_holds_the_frames_once():
    # 200 benchmark-shaped records (300 frames of 12 signals): past
    # fit_normalization's transient, training keeps no normalized or
    # windowed copy of the data, only the batch in hand.
    records = synth_generate(SynthConfig(num_normal=200, seed=1))
    raw = sum(r.frames.nbytes for r in records)
    model = ModelConfig(n_signals=12, window_len=150, hidden_size=4, latent_size=4,
                        flow_layers=1)
    peak = traced_peak(train, records, model, TrainConfig(epochs=1),
                       WindowingConfig(window_len=150, stride=50))
    assert peak < 2.5 * raw


class TestTrainBehaviors:
    def test_lambda_zero_logs_zero_sparsity(self):
        res = train(
            _wave_records(6), TINY_MODEL, _tiny_train_cfg(lam=0.0), TINY_WINDOWING
        )
        assert all(entry["mean_L_l1"] == 0.0 for entry in res.log)

    def test_epoch_zero_has_no_adversarial_pressure(self):
        # beta(0) = 0, so the first epoch optimizes reconstruction (+L1) only.
        res = train(_wave_records(6), TINY_MODEL, _tiny_train_cfg(), TINY_WINDOWING)
        assert res.log[0]["beta"] == 0.0
        assert res.log[0]["mean_L_bce"] == 0.0

    def test_sparsity_pushes_encoder_weights_toward_zero(self):
        # Same data/seed, lambda on vs off. The L1 run must end with
        # strictly more near-zero encoder entries. Milestones decay the
        # step size far enough that the |w| < 1e-4 band is reachable.
        records = _wave_records(12, seed=5)
        base = dict(
            epochs=10,
            batch_size=8,
            seed=11,
            eta0=8e-3,
            gamma=0.25,
            milestones=(2, 4, 6, 8),
            shuffle=False,
        )
        res_l1 = train(records, TINY_MODEL, TrainConfig(lam=0.05, **base), TINY_WINDOWING)
        res_plain = train(records, TINY_MODEL, TrainConfig(lam=0.0, **base), TINY_WINDOWING)

        def near_zero(result):
            total = 0
            for name, arr in result.generator.items():
                if name.startswith(("lstm_", "mu_", "logvar_")):
                    total += int(np.sum(np.abs(arr) < 1e-4))
            return total

        assert near_zero(res_l1) > near_zero(res_plain)

    def test_reconstruction_improves_early(self, trained_small):
        # Epoch-mean MSE should fall strictly across the first five epochs.
        log = trained_small["result"].log
        mse = [entry["mean_L_mse"] for entry in log[:5]]
        assert all(b < a for a, b in zip(mse, mse[1:]))

    def test_same_seed_same_data_identical_results(self):
        records = _wave_records(6)
        cfg = _tiny_train_cfg(epochs=2, shuffle=True)
        res_a = train(records, TINY_MODEL, cfg, TINY_WINDOWING)
        res_b = train(records, TINY_MODEL, cfg, TINY_WINDOWING)
        for name, arr in res_a.generator.items():
            np.testing.assert_array_equal(arr, res_b.generator[name])
        for name, arr in res_a.discriminator.items():
            np.testing.assert_array_equal(arr, res_b.discriminator[name])
        for ea, eb in zip(res_a.log, res_b.log):
            for key in ("mean_L_mse", "mean_L_l1", "mean_L_bce", "mean_L_D", "eta", "beta"):
                assert ea[key] == eb[key]

    def test_rejects_anomalous_training_record(self):
        records = _wave_records(4) + _wave_records(1, seed=9, label="anomalous")
        with pytest.raises(InputError, match="all-normal"):
            train(records, TINY_MODEL, _tiny_train_cfg(), TINY_WINDOWING)

    def test_rejects_signal_count_mismatch(self):
        records = _wave_records(4, n_signals=3)
        with pytest.raises(InputError, match="signals"):
            train(records, TINY_MODEL, _tiny_train_cfg(), TINY_WINDOWING)

    def test_rejects_windowing_model_disagreement(self):
        records = _wave_records(4)
        bad = WindowingConfig(window_len=40, stride=20)
        with pytest.raises(InputError, match="window_len"):
            train(records, TINY_MODEL, _tiny_train_cfg(), bad)

    def test_short_records_are_skipped_not_fatal(self):
        records = _wave_records(6) + _wave_records(1, n_frames=30, seed=20)
        res = train(records, TINY_MODEL, _tiny_train_cfg(epochs=1), TINY_WINDOWING)
        assert len(res.log) == 1

    def test_all_records_too_short_is_fatal(self):
        records = _wave_records(3, n_frames=30)
        with pytest.raises(InputError, match="long enough"):
            train(records, TINY_MODEL, _tiny_train_cfg(), TINY_WINDOWING)
