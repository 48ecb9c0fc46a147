"""Dataset IO, normalization, downsampling, and windowing contracts."""

import numpy as np
import pytest

from flowad.data import (
    NormStats,
    Record,
    WindowingConfig,
    apply_normalization,
    downsample,
    fit_normalization,
    load_records,
    manifest_path,
    read_manifest,
    save_records,
    sliding_windows,
    window_count,
    normalize_values,
)
from flowad.errors import DatasetError, InputError


def _rec(frames, sample_id="r0", **kw):
    return Record(sample_id=sample_id, frames=np.asarray(frames, dtype=np.float64), **kw)


# -- record validation -------------------------------------------------------


def test_record_validates_shape_and_label():
    with pytest.raises(InputError):
        _rec(np.zeros(5))  # 1-D is not T x N
    with pytest.raises(InputError):
        _rec(np.zeros((3, 2)), label="weird")
    with pytest.raises(InputError):
        _rec(np.zeros((3, 2)), label="normal", anomaly_type="spike")
    with pytest.raises(InputError):
        _rec(np.zeros((3, 2)), label="anomalous")  # type required
    with pytest.raises(InputError):
        _rec(np.zeros((3, 2)), sample_rate_hz=0.0)


# -- windowing ---------------------------------------------------------------


def test_window_count_hand_cases():
    cfg = WindowingConfig(window_len=150, stride=50)
    assert window_count(250, cfg) == 3
    assert window_count(150, cfg) == 1
    assert window_count(300, cfg) == 4
    assert window_count(149, cfg) == 0


def test_sliding_windows_hand_case():
    cfg = WindowingConfig(window_len=150, stride=50)
    r = _rec(np.arange(250 * 2, dtype=np.float64).reshape(250, 2))
    wins = sliding_windows(r, cfg)
    assert [w.start for w in wins] == [0, 50, 100]
    assert all(w.values.shape == (150, 2) for w in wins)
    assert np.array_equal(wins[1].values, r.frames[50:200])


def test_sliding_windows_exact_fit_and_error():
    cfg = WindowingConfig(window_len=150, stride=50)
    assert len(sliding_windows(_rec(np.zeros((150, 1))), cfg)) == 1
    with pytest.raises(InputError, match="shorter than the window"):
        sliding_windows(_rec(np.zeros((149, 1))), cfg)


def test_window_count_formula_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(200):
        T_W = int(rng.integers(1, 40))
        T_S = int(rng.integers(1, T_W + 1))
        T = int(rng.integers(T_W, 200))
        starts = list(range(0, T - T_W + 1, T_S))
        cfg = WindowingConfig(window_len=T_W, stride=T_S)
        assert window_count(T, cfg) == len(starts)
        r = _rec(np.zeros((T, 1)))
        assert [w.start for w in sliding_windows(r, cfg)] == starts


def test_windowing_config_validation():
    with pytest.raises(InputError):
        WindowingConfig(window_len=0, stride=1)
    with pytest.raises(InputError):
        WindowingConfig(window_len=10, stride=0)
    with pytest.raises(InputError):
        WindowingConfig(window_len=10, stride=11)


def test_windows_are_copies():
    cfg = WindowingConfig(window_len=2, stride=1)
    r = _rec(np.zeros((4, 1)))
    w = sliding_windows(r, cfg)[0]
    w.values[0, 0] = 99.0
    assert r.frames[0, 0] == 0.0


# -- normalization -----------------------------------------------------------


def test_fit_normalization_hand_case():
    r = _rec(np.array([[1.0], [3.0]]))
    stats = fit_normalization([r])
    assert stats.mean[0] == 2.0
    assert stats.std[0] == 1.0  # population, not sample


def test_fit_normalization_is_population_std():
    r = _rec(np.array([[2.0], [4.0], [6.0]]))
    stats = fit_normalization([r])
    assert stats.mean[0] == pytest.approx(4.0)
    assert stats.std[0] == pytest.approx(np.sqrt(8.0 / 3.0))


def test_constant_feature_floored():
    r = _rec(np.full((10, 1), 3.25))
    stats = fit_normalization([r])
    assert stats.std[0] == 1e-8


def test_fit_is_frame_weighted_across_records():
    a = _rec(np.full((1, 1), 0.0), sample_id="a")
    b = _rec(np.full((3, 1), 4.0), sample_id="b")
    stats = fit_normalization([a, b])
    assert stats.mean[0] == pytest.approx(3.0)  # (0 + 4*3)/4


def test_fit_empty_errors():
    with pytest.raises(InputError):
        fit_normalization([])


def test_apply_normalization_standardizes_and_inverts():
    rng = np.random.default_rng(0)
    r = _rec(rng.normal(5.0, 2.0, size=(400, 3)))
    stats = fit_normalization([r])
    nr = apply_normalization(r, stats)
    assert np.abs(nr.frames.mean(axis=0)).max() < 1e-9
    assert np.abs(nr.frames.std(axis=0) - 1.0).max() < 1e-9
    back = nr.frames * stats.std + stats.mean
    assert np.abs(back - r.frames).max() < 1e-12


def test_identity_stats_are_identity():
    stats = NormStats(mean=np.zeros(2), std=np.ones(2))
    x = np.array([[1.5, -2.0]])
    assert np.array_equal(normalize_values(x, stats), x)


def test_apply_normalization_dimension_mismatch():
    stats = NormStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(InputError):
        apply_normalization(_rec(np.zeros((4, 2))), stats)


# -- downsampling ------------------------------------------------------------


def test_downsample_hand_cases():
    r = _rec(np.arange(7, dtype=np.float64).reshape(7, 1), sample_rate_hz=100.0)
    d = downsample(r, 2)
    assert d.frames[:, 0].tolist() == [0.0, 2.0, 4.0, 6.0]
    assert d.n_frames == 4  # ceil(7/2)
    assert d.sample_rate_hz == 50.0
    assert downsample(r, 1) is r


def test_downsample_composition():
    r = _rec(np.arange(60, dtype=np.float64).reshape(60, 1))
    ab = downsample(downsample(r, 2), 3)
    once = downsample(r, 6)
    assert np.array_equal(ab.frames, once.frames)
    assert ab.sample_rate_hz == pytest.approx(once.sample_rate_hz)


def test_downsample_rejects_bad_factor():
    r = _rec(np.zeros((5, 1)))
    with pytest.raises(InputError):
        downsample(r, 0)


# -- CSV + manifest ----------------------------------------------------------


def _sample_records():
    rng = np.random.default_rng(42)
    return [
        Record("s0", rng.standard_normal((20, 3)) * 1e-3, "normal", "", 100.0),
        Record("s1", rng.standard_normal((25, 3)) * 1e6, "anomalous", "spike", 100.0),
    ]


def test_save_load_round_trip_is_exact(tmp_path):
    records = _sample_records()
    path = tmp_path / "d.csv"
    save_records(records, path)
    loaded = load_records(path)
    assert len(loaded) == 2
    for orig, back in zip(records, loaded):
        assert back.sample_id == orig.sample_id
        assert back.label == orig.label
        assert back.anomaly_type == orig.anomaly_type
        assert back.sample_rate_hz == orig.sample_rate_hz
        assert np.array_equal(back.frames, orig.frames)  # bitwise


def test_save_is_byte_deterministic(tmp_path):
    records = _sample_records()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_records(records, p1)
    save_records(records, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert manifest_path(p1).read_text() == manifest_path(p2).read_text()


def test_manifest_contents(tmp_path):
    path = tmp_path / "d.csv"
    save_records(_sample_records(), path)
    m = read_manifest(path)
    assert m["n_signals"] == 3
    assert m["sample_rate_hz"] == 100.0
    assert m["num_records"] == 2
    assert m["schema_version"] == 1


@pytest.mark.parametrize(
    "text,match",
    [
        ('{"n_signals": 3, "sample_r', "not valid JSON"),
        ("[3]", "malformed"),
        ('{"sample_rate_hz": 100.0}', "malformed.*n_signals"),
        ('{"n_signals": 3}', "malformed.*sample_rate_hz"),
        ('{"n_signals": "three", "sample_rate_hz": 100.0}', "malformed"),
    ],
    ids=["truncated", "not-an-object", "no-n_signals", "no-rate", "non-numeric"],
)
def test_corrupt_manifest_is_dataset_error(tmp_path, text, match):
    path = tmp_path / "d.csv"
    save_records(_sample_records(), path)
    manifest_path(path).write_text(text)
    with pytest.raises(DatasetError, match=match):
        load_records(path)


def test_load_real_shape(tmp_path):
    rng = np.random.default_rng(1)
    records = [
        Record(f"s{i}", rng.standard_normal((300, 12)), "normal", "", 100.0)
        for i in range(2)
    ]
    path = tmp_path / "d.csv"
    save_records(records, path)
    loaded = load_records(path)
    assert len(loaded) == 2
    assert all(r.n_frames == 300 and r.n_signals == 12 for r in loaded)


def _write_csv(tmp_path, rows, header="sample_id,frame_idx,label,anomaly_type,sig_0,sig_1"):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_load_rejects_nan_with_row_number(tmp_path):
    path = _write_csv(
        tmp_path,
        ["a,0,normal,,1.0,2.0", "a,1,normal,,NaN,2.0"],
    )
    with pytest.raises(DatasetError, match="row 3"):
        load_records(path)


def test_load_rejects_non_numeric(tmp_path):
    path = _write_csv(tmp_path, ["a,0,normal,,1.0,oops"])
    with pytest.raises(DatasetError, match="row 2"):
        load_records(path)


def test_load_rejects_non_contiguous_sample(tmp_path):
    path = _write_csv(
        tmp_path,
        [
            "a,0,normal,,1.0,2.0",
            "b,0,normal,,1.0,2.0",
            "a,1,normal,,1.0,2.0",
        ],
    )
    with pytest.raises(DatasetError):
        load_records(path)


def test_load_rejects_bad_frame_sequence(tmp_path):
    path = _write_csv(tmp_path, ["a,0,normal,,1.0,2.0", "a,2,normal,,1.0,2.0"])
    with pytest.raises(DatasetError):
        load_records(path)


def test_load_rejects_missing_column(tmp_path):
    path = _write_csv(
        tmp_path, ["a,0,normal,1.0,2.0"], header="sample_id,frame_idx,label,sig_0,sig_1"
    )
    with pytest.raises(DatasetError):
        load_records(path)


def test_load_rejects_inconsistent_cell_count(tmp_path):
    path = _write_csv(tmp_path, ["a,0,normal,,1.0,2.0", "a,1,normal,,1.0"])
    with pytest.raises(DatasetError, match="row 3"):
        load_records(path)


def test_load_anomalous_label_with_type(tmp_path):
    path = _write_csv(
        tmp_path,
        [
            "a,0,anomalous,collision_foam,1.0,2.0",
            "a,1,anomalous,collision_foam,1.5,2.5",
        ],
    )
    recs = load_records(path)
    assert recs[0].label == "anomalous"
    assert recs[0].anomaly_type == "collision_foam"


def test_load_rejects_label_flip_mid_record(tmp_path):
    path = _write_csv(
        tmp_path, ["a,0,normal,,1.0,2.0", "a,1,anomalous,spike,1.0,2.0"]
    )
    with pytest.raises(DatasetError):
        load_records(path)
