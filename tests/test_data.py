"""Dataset IO, normalization, downsampling, and windowing contracts."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowad import data
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
    record_windows,
    save_records,
    sliding_windows,
    window_count,
    normalize_values,
)
from flowad.errors import DatasetError, InputError
from flowad.synth import SynthConfig, synth_generate


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


def test_a_short_record_is_skipped_with_one_warning(caplog):
    cfg = WindowingConfig(window_len=150, stride=50)
    records = [_rec(np.zeros((149, 1)), "short"), _rec(np.zeros((200, 1)), "long")]
    kept = [(r.sample_id, len(view)) for r, view in record_windows(records, cfg)]
    assert kept == [("long", 2)]
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [(
        "flowad.data", "WARNING",
        "record 'short' has 149 frames, shorter than the window length 150; skipped")]


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


# -- bulk parse against the row loop ------------------------------------------


def _outcome(path):
    """What load_records makes of path: each record's fields, frames as
    bytes, or the InputError's type and message. Anything else raises."""
    try:
        records = load_records(path)
    except InputError as e:
        return type(e), str(e)
    return [
        (r.sample_id, r.label, r.anomaly_type, r.sample_rate_hz, r.frames.shape,
         r.frames.dtype, r.frames.tobytes())
        for r in records
    ]


def _row_loop_outcome(path):
    with mock.patch.object(data, "_load_bulk", return_value=None):
        return _outcome(path)


def _assert_bulk(path):
    """path loads without the row loop, into the row loop's records."""
    want = _row_loop_outcome(path)
    with mock.patch.object(data, "_load_rows", side_effect=AssertionError("row loop ran")):
        assert _outcome(path) == want


def _valid_csv(tmp_path):
    """Records s0, s1, s2 of 3, 4 and 2 frames, 2 signals each."""
    rng = np.random.default_rng(0)
    records = [
        Record(f"s{i}", rng.standard_normal((t, 2)) * 10.0 ** rng.integers(-5, 6),
               "anomalous" if i % 2 else "normal", "spike" if i % 2 else "", 100.0)
        for i, t in enumerate((3, 4, 2))
    ]
    path = tmp_path / "d.csv"
    save_records(records, path)
    return path


# Cell edits: (column, value); a column of None is a signal column.
_CELL_EDITS = {
    "quoted_newline_id": (0, '"s\nx"'),
    "quoted_comma_id": (0, '"s,x"'),
    "repeat_id": (0, "s0"),
    "frame_idx_gap": (1, "7"),
    "frame_idx_restart": (1, "0"),
    "label_flip": (2, "anomalous"),
    "type_flip": (3, "drift"),
    **{v: (None, v) for v in ["1_0", "\uff11", "nan", "1e400", " 1.5 ", "1.5\x1c",
                              "\u2003-2.5", "+.5e-3", "", '"1.5"', "0x10", '"2.0']},
}
_MUTATIONS = st.sampled_from(
    ["flip", "truncate", "drop_column", "blank_line", "crlf", *_CELL_EDITS]
)


def _mutated(text, kinds, line, col, pos, byte) -> bytes:
    lines = text.split("\n")
    for kind in kinds:
        k = line % len(lines)
        if kind == "blank_line":
            lines.insert(k, "")
        elif kind == "drop_column":
            lines = [",".join(c for j, c in enumerate(l.split(",")) if j != col % 6)
                     for l in lines]
        elif kind == "crlf":
            lines = [l + "\r" for l in lines[:-1]] + lines[-1:]
        elif kind in _CELL_EDITS:
            j, value = _CELL_EDITS[kind]
            cells = lines[k].split(",")
            cells[(4 + col % 2 if j is None else j) % len(cells)] = value
            lines[k] = ",".join(cells)
    raw = bytearray("\n".join(lines).encode())
    if "flip" in kinds and raw:
        raw[pos % len(raw)] = byte
    if "truncate" in kinds:
        del raw[pos % (len(raw) + 1):]
    return bytes(raw)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kinds=st.lists(_MUTATIONS, min_size=1, max_size=3),
    where=st.tuples(st.integers(0, 12), st.integers(0, 5), st.integers(0, 400),
                    st.integers(0, 255)),
    chunk=st.sampled_from([1, 2, 3, 4096]),
)
def test_bulk_parse_matches_the_row_loop_on_mutated_files(tmp_path, kinds, where, chunk):
    """Whatever the damage, load_records gives the row loop's records or
    the row loop's InputError, never another exception."""
    path = _valid_csv(tmp_path)
    path.write_bytes(_mutated(path.read_text(), kinds, *where))
    with mock.patch.object(data, "_CHUNK_LINES", chunk):
        assert _outcome(path) == _row_loop_outcome(path)


@pytest.mark.parametrize("chunk", [2, 3, 7])
def test_records_across_chunk_edges_take_the_bulk_path(tmp_path, chunk):
    """Records of 3, 4 and 2 rows: chunks of 2 and 3 rows split records,
    and chunks of 3 and 7 rows begin with a record's first row."""
    path = _valid_csv(tmp_path)
    with mock.patch.object(data, "_CHUNK_LINES", chunk):
        _assert_bulk(path)


def test_id_that_reappears_in_a_later_chunk_is_the_row_loop_error(tmp_path):
    path = _write_csv(
        tmp_path,
        ["a,0,normal,,1.0,2.0", "a,1,normal,,1.0,2.0", "b,0,normal,,1.0,2.0",
         "b,1,normal,,1.0,2.0", "a,0,normal,,1.0,2.0"],
    )
    with mock.patch.object(data, "_CHUNK_LINES", 2):
        with pytest.raises(DatasetError, match="row 6: sample 'a' is not contiguous"):
            load_records(path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("trailing", [True, False], ids=["trailing-newline", "none"])
def test_line_endings_take_the_bulk_path(tmp_path, ending, trailing):
    text = _valid_csv(tmp_path).read_text()
    if not trailing:
        text = text.rstrip("\n")
    path = tmp_path / "d.csv"
    path.write_bytes(text.replace("\n", ending).encode())
    _assert_bulk(path)


@pytest.mark.parametrize(
    "second,message",
    [("a,1,normal,spike", "row 3: sample 'a' changes label or anomaly_type mid-record"),
     ("a,1,anomalous,", "row 3: sample 'a' changes label or anomaly_type mid-record"),
     ("b,0,weird,", "row 4: record 'b': unknown label 'weird'")],
    ids=["type", "label", "bad-label"],
)
@pytest.mark.parametrize("chunk", [1, 4096])
def test_label_and_type_errors_are_the_row_loop_errors(tmp_path, second, message, chunk):
    path = _write_csv(tmp_path, ["a,0,normal,,1.0,2.0", second + ",1.0,2.0"])
    with mock.patch.object(data, "_CHUNK_LINES", chunk):
        with pytest.raises(DatasetError, match=message):
            load_records(path)


def test_blank_line_is_the_row_loop_error(tmp_path):
    """np.loadtxt skips blank lines; the row loop rejects them."""
    path = _write_csv(tmp_path, ["a,0,normal,,1.0,2.0", "", "a,1,normal,,1.0,2.0"])
    with pytest.raises(DatasetError, match="row 3: expected 6 cells, got 0"):
        load_records(path)


def test_header_only_file_is_the_row_loop_error(tmp_path):
    path = _write_csv(tmp_path, [])
    path.write_text("sample_id,frame_idx,label,anomaly_type,sig_0,sig_1\n")
    with pytest.raises(DatasetError, match="row 1: file contains a header but no data rows"):
        load_records(path)


def test_quoted_field_open_at_a_chunk_edge_is_read_as_the_row_loop_reads_it(tmp_path):
    """The row loop joins the lines of a quoted field; a chunk edge must
    not split them into two rows that each parse."""
    path = _write_csv(
        tmp_path,
        ["a,0,normal,,1.0,2.0", 'b,0,normal,,1.0,"2.0', 'x",0,normal,,1.0,2.0'],
    )
    with mock.patch.object(data, "_CHUNK_LINES", 2):
        assert _outcome(path) == _row_loop_outcome(path)
    with pytest.raises(DatasetError, match="row 3: expected 6 cells, got 11"):
        load_records(path)


@pytest.mark.parametrize("cell", ["1.5\x1c", "\x1f2"])
def test_separator_padded_cell_is_the_row_loop_error(tmp_path, cell):
    """np.loadtxt strips \\x1c-\\x1f around a number; float() does not."""
    path = _write_csv(tmp_path, ["a,0,normal,,1.0," + cell])
    with pytest.raises(DatasetError, match="row 2: column 'sig_1' is not numeric"):
        load_records(path)


def test_underscored_and_fullwidth_digits_load_through_the_row_loop(tmp_path):
    path = _write_csv(tmp_path, ["a,0,normal,,1_0,\uff12"])
    [r] = load_records(path)
    assert r.frames.tolist() == [[10.0, 2.0]]


def test_non_utf8_bytes_are_a_dataset_error_naming_the_row(tmp_path):
    path = _write_csv(tmp_path, ["a,0,normal,,1.0,2.0", "a,1,normal,,1.0,2.0"])
    path.write_bytes(path.read_bytes().replace(b"a,", b"a\xff,"))
    with pytest.raises(DatasetError, match=r"row 2: cell is not valid UTF-8: b'a\\xff'"):
        load_records(path)


def test_field_over_the_csv_limit_is_a_dataset_error_naming_the_row(tmp_path):
    path = _write_csv(tmp_path, ["a,0,normal,,1.0,2.0", "b" * 131_073 + ",0,normal,,1.0,2.0"])
    with pytest.raises(DatasetError, match=r"row 3: field larger than field limit \(131072\)"):
        load_records(path)


def test_benchmark_shaped_file_takes_the_bulk_path(tmp_path):
    """A benchmark-shaped file must not fall back to the row loop, which
    is several times slower."""
    records = synth_generate(SynthConfig(num_normal=2, num_anomalous=2, n_frames=300,
                                         n_signals=12, seed=3))
    path = tmp_path / "bench.csv"
    save_records(records, path)
    with mock.patch.object(data, "_load_rows", side_effect=AssertionError("row loop ran")):
        loaded = load_records(path)
    for orig, back in zip(records, loaded, strict=True):
        assert (back.sample_id, back.label, back.anomaly_type) == (
            orig.sample_id, orig.label, orig.anomaly_type)
        assert back.frames.tobytes() == orig.frames.tobytes()
