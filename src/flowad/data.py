"""Dataset representation: records, CSV storage, normalization, windowing.

A record is one fixed-rate multivariate sequence (T frames, N signals)
with a record-level label. CSV storage is exact: floats are written in
shortest round-trip form, so save -> load reproduces every value
bit-for-bit. A JSON manifest rides next to each CSV and carries the
signal count, sample rate, and generator provenance.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DatasetError, InputError

log = logging.getLogger(__name__)

LABEL_NORMAL = "normal"
LABEL_ANOMALOUS = "anomalous"

MANIFEST_SCHEMA_VERSION = 1
_FIXED_COLUMNS = ("sample_id", "frame_idx", "label", "anomaly_type")


@dataclass
class Record:
    """One contiguous capture: frames is (T, N) float64."""

    sample_id: str
    frames: np.ndarray
    label: str = LABEL_NORMAL
    anomaly_type: str = ""
    sample_rate_hz: float = 100.0

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise InputError(
                f"record '{self.sample_id}': frames must be (T, N) with T, N >= 1"
            )
        if self.label not in (LABEL_NORMAL, LABEL_ANOMALOUS):
            raise InputError(f"record '{self.sample_id}': unknown label '{self.label}'")
        if (self.label == LABEL_ANOMALOUS) != bool(self.anomaly_type):
            raise InputError(
                f"record '{self.sample_id}': anomaly_type must be set exactly "
                "for anomalous records"
            )
        if self.sample_rate_hz <= 0:
            raise InputError(f"record '{self.sample_id}': sample rate must be positive")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_signals(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class WindowingConfig:
    window_len: int = 150
    stride: int = 50

    def __post_init__(self):
        if self.window_len < 1:
            raise InputError("window_len must be >= 1")
        if not 1 <= self.stride <= self.window_len:
            raise InputError("stride must satisfy 1 <= stride <= window_len")


@dataclass
class Window:
    """A window copied out of a record; start is the frame offset."""

    start: int
    values: np.ndarray


@dataclass
class NormStats:
    """Per-signal standardization constants (std floored at fit time)."""

    mean: np.ndarray
    std: np.ndarray

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            std=np.asarray(d["std"], dtype=np.float64),
        )


def window_count(n_frames: int, cfg: WindowingConfig) -> int:
    """Number of full windows; trailing frames that cannot fill one drop."""
    if n_frames < cfg.window_len:
        return 0
    return (n_frames - cfg.window_len) // cfg.stride + 1


def sliding_windows(record: Record, cfg: WindowingConfig) -> list[Window]:
    """All full windows of a record, oldest first, as copies of
    record_windows' view.

    Callers that tolerate short records use record_windows instead.
    """
    if record.n_frames < cfg.window_len:
        raise InputError(
            f"record '{record.sample_id}' ({record.n_frames} frames) is "
            f"shorter than the window length {cfg.window_len}"
        )
    [(_, view)] = record_windows([record], cfg)
    return [Window(start=i * cfg.stride, values=w.copy()) for i, w in enumerate(view)]


def record_windows(records, cfg: WindowingConfig) -> Iterator[tuple[Record, np.ndarray]]:
    """Yield each record with its full windows, oldest first, as a
    read-only (W, T_W, N) view of its frames (no copy). A record shorter
    than one window is skipped with one warning that names it, its frame
    count and the window length."""
    for r in records:
        if r.n_frames < cfg.window_len:
            log.warning("record '%s' has %d frames, shorter than the window length %d; "
                        "skipped", r.sample_id, r.n_frames, cfg.window_len)
            continue
        view = np.lib.stride_tricks.sliding_window_view(r.frames, cfg.window_len, axis=0)
        yield r, view[:: cfg.stride].transpose(0, 2, 1)


def fit_normalization(records: list[Record]) -> NormStats:
    """Per-signal mean and population std over all frames of all records,
    the std floored at 1e-8."""
    if not records:
        raise InputError("cannot fit normalization on an empty dataset")
    n = records[0].n_signals
    for r in records:
        if r.n_signals != n:
            raise InputError(f"record '{r.sample_id}' has {r.n_signals} signals, expected {n}")
    stacked = np.concatenate([r.frames for r in records], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)  # population std (ddof=0)
    std = np.maximum(std, 1e-8)
    return NormStats(mean=mean, std=std)


def normalize_values(values: np.ndarray, stats: NormStats) -> np.ndarray:
    if values.shape[-1] != stats.mean.shape[0]:
        raise InputError(
            f"normalization stats cover {stats.mean.shape[0]} signals, "
            f"data has {values.shape[-1]}"
        )
    return (values - stats.mean) / stats.std


def apply_normalization(record: Record, stats: NormStats) -> Record:
    return replace(record, frames=normalize_values(record.frames, stats))


def downsample(record: Record, n: int) -> Record:
    """Keep every n-th frame starting at frame 0; rate divides by n."""
    if n < 1 or int(n) != n:
        raise InputError("downsample factor must be a positive integer")
    n = int(n)
    if n == 1:
        return record
    return replace(
        record,
        frames=record.frames[::n].copy(),
        sample_rate_hz=record.sample_rate_hz / n,
    )


# -- CSV + manifest storage ------------------------------------------------


def manifest_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".manifest.json")


def write_manifest(csv_path, n_signals: int, sample_rate_hz: float, num_records: int, extra: dict | None = None):
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "n_signals": n_signals,
        "sample_rate_hz": sample_rate_hz,
        "num_records": num_records,
    }
    if extra:
        doc.update(extra)
    path = manifest_path(csv_path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def require_file(path, what: str) -> Path:
    """path as a Path; an InputError naming it when it is missing or is a
    directory, which `open` would otherwise report as an OSError."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{what} not found: {path}")
    if path.is_dir():
        raise InputError(f"{what} is a directory, not a file: {path}")
    return path


def read_manifest(csv_path) -> dict | None:
    path = manifest_path(csv_path)
    if not path.exists():
        return None
    if path.is_dir():
        raise DatasetError(f"manifest is a directory, not a file: {path}")
    try:
        return json.loads(path.read_text())
    except ValueError as e:  # undecodable bytes or malformed JSON
        raise DatasetError(f"manifest {path.name} is not valid JSON: {e}") from None


def save_records(records: list[Record], csv_path, manifest_extra: dict | None = None) -> Path:
    """Write records to CSV (+ manifest). Floats use repr: exact round-trip."""
    if not records:
        raise InputError("refusing to write an empty dataset")
    n = records[0].n_signals
    rate = records[0].sample_rate_hz
    for r in records:
        if r.n_signals != n:
            raise InputError(f"record '{r.sample_id}' has {r.n_signals} signals, expected {n}")
        if r.sample_rate_hz != rate:
            raise InputError("all records in one file must share a sample rate")
    csv_path = Path(csv_path)
    header = list(_FIXED_COLUMNS) + [f"sig_{j}" for j in range(n)]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            for t in range(r.n_frames):
                row = [r.sample_id, str(t), r.label, r.anomaly_type]
                row.extend(repr(float(v)) for v in r.frames[t])
                writer.writerow(row)
    write_manifest(csv_path, n, rate, len(records), manifest_extra)
    return csv_path


def _parse_float(cell: str, row_no: int, col: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise DatasetError(f"row {row_no}: column '{col}' is not numeric: {cell!r}") from None
    if not math.isfinite(v):
        raise DatasetError(f"row {row_no}: column '{col}' is not finite: {cell!r}")
    return v


def _undecodable(cells) -> str | None:
    """The first cell holding bytes that are not UTF-8 (which
    errors="surrogateescape" decodes to lone surrogates), or None."""
    for cell in cells:
        if not cell.isascii():
            try:
                cell.encode("utf-8")
            except UnicodeEncodeError:
                return cell
    return None


def _csv_rows(fh) -> Iterator[tuple[int, list[str]]]:
    """(1-based row number, cells) for each CSV row of fh. A row the csv
    module cannot read, or one with bytes that are not UTF-8, raises a
    DatasetError naming it."""
    reader = csv.reader(fh)
    row_no = 0
    while True:
        row_no += 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:  # e.g. a field over csv.field_size_limit()
            raise DatasetError(f"row {row_no}: {e}") from None
        bad = _undecodable(row)
        if bad is not None:
            raw = bad.encode("utf-8", "surrogateescape")
            raise DatasetError(f"row {row_no}: cell is not valid UTF-8: {raw!r}")
        yield row_no, row


def _open_csv(csv_path: Path):
    return open(csv_path, newline="", encoding="utf-8", errors="surrogateescape")


def load_records(csv_path) -> list[Record]:
    """Load a dataset CSV; the sibling manifest supplies the sample rate.

    Frames of one sample must be contiguous and their frame_idx must
    run 0..T-1; every violation is reported with its 1-based row number.
    The file must be UTF-8. Rows are parsed in bulk by numpy (_load_bulk);
    a file the bulk parse cannot vouch for, every malformed one included,
    is read again by the row loop (_load_rows), which gives the same
    records bit for bit, or words the error.
    """
    csv_path = require_file(csv_path, "dataset file")
    sample_rate_hz, declared_n = 100.0, None
    manifest = read_manifest(csv_path)
    if manifest is not None:
        try:
            sample_rate_hz = float(manifest["sample_rate_hz"])
            declared_n = int(manifest["n_signals"])
        except (KeyError, TypeError, ValueError) as e:
            raise DatasetError(
                f"manifest {manifest_path(csv_path).name} is malformed: {e!r}"
            ) from None
    return _load_bulk(csv_path, sample_rate_hz, declared_n) or _load_rows(
        csv_path, sample_rate_hz, declared_n
    )


# Lines per np.loadtxt call. From 256 to 4,096 lines the load time is the
# same; fewer lines hold fewer strings at once, which lowers peak RSS.
_CHUNK_LINES = 512
# float() rejects these separators around a number; np.loadtxt strips them.
_C0_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _load_bulk(csv_path: Path, sample_rate_hz: float, declared_n: int | None) -> list[Record] | None:
    """load_records' fast path: np.loadtxt parses the data rows in C, a
    chunk of lines at a time, and array ops make the row loop's checks,
    with state carried across chunk edges. Returns None for any file it
    cannot vouch for reading exactly as _load_rows does.

    Across chunks it keeps only the signal block and one head per record;
    records get non-overlapping slices of one frame buffer.
    """
    fixed = list(_FIXED_COLUMNS)
    limit = csv.field_size_limit()
    with _open_csv(csv_path) as fh:
        names = fh.readline().rstrip("\r\n").split(",")
        n = len(names) - len(fixed)
        if n < 1 or names != fixed + [f"sig_{j}" for j in range(n)]:
            return None
        if declared_n is not None and declared_n != n:
            return None
        dtype = np.dtype([(c, object) for c in fixed] + [("sig", np.float64, (n,))])
        heads: list[tuple[int, str, str, str]] = []  # (first row, id, label, type)
        frames = np.empty((0, n))
        seen: set[str] = set()
        n_rows = 0
        last = (None, None, None, 0)  # the row before the chunk: id, label, type, frame_idx
        while lines := list(itertools.islice(fh, _CHUNK_LINES)):
            text = "".join(lines)
            if max(map(len, lines)) > limit or any(c in text for c in _C0_SEPARATORS):
                return None
            if len(lines) == _CHUNK_LINES and '"' in lines[-1]:
                return None  # a quoted field may run on into the next chunk
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                                      comments=None, ndmin=1)
            except (ValueError, Warning):
                return None
            # loadtxt skips blank lines and joins the lines of a quoted
            # newline; the row loop rejects the first and reads the second.
            if len(rows) != len(lines) or not np.isfinite(rows["sig"]).all():
                return None
            try:
                idx = np.fromiter(map(int, rows["frame_idx"]), dtype=np.int64, count=len(rows))
            except (ValueError, OverflowError):
                return None
            # Each column gets the row before the chunk in front. Every row
            # starts a record (a new id at frame 0) or continues the row
            # before it (the same id, label and type, one frame later).
            ids, labels, types, idx = (
                np.concatenate(([a], b)) for a, b in
                zip(last, (rows["sample_id"], rows["label"], rows["anomaly_type"], idx)))
            new = ids[1:] != ids[:-1]
            same = (labels[1:] == labels[:-1]) & (types[1:] == types[:-1])
            if not np.where(new, idx[1:] == 0, same & (idx[1:] == idx[:-1] + 1)).all():
                return None
            for s in np.flatnonzero(new) + 1:
                sid, atype = ids[s], types[s]
                if sid in seen or _undecodable((sid, atype)) is not None:
                    return None
                seen.add(sid)
                heads.append((n_rows + int(s) - 1, sid, labels[s], atype))
            last = ids[-1], labels[-1], types[-1], idx[-1]
            # No view of frames exists yet; realloc grows it in place where
            # it can, so each frame is copied once, out of the parsed chunk.
            frames.resize((n_rows + len(rows), n), refcheck=False)
            frames[n_rows:] = rows["sig"]
            n_rows += len(rows)
            del lines, text, rows, ids, labels, types, idx  # before the next chunk is read
    if not heads:
        return None
    ends = [h[0] for h in heads[1:]] + [n_rows]
    try:
        return [
            Record(sid, frames[a:b], label, atype, sample_rate_hz)
            for (a, sid, label, atype), b in zip(heads, ends)
        ]
    except InputError:
        return None


def _load_rows(csv_path: Path, sample_rate_hz: float, declared_n: int | None) -> list[Record]:
    """load_records' row loop: one float() per cell. It reads the files
    _load_bulk declines, and it is the one place that words a dataset
    error, with its row number."""
    with _open_csv(csv_path) as fh:
        rows = _csv_rows(fh)
        try:
            _, header = next(rows)
        except StopIteration:
            raise DatasetError("row 1: file is empty") from None
        if tuple(header[: len(_FIXED_COLUMNS)]) != _FIXED_COLUMNS:
            raise DatasetError(
                f"row 1: header must start with {','.join(_FIXED_COLUMNS)}"
            )
        sig_cols = header[len(_FIXED_COLUMNS) :]
        n = len(sig_cols)
        if n < 1:
            raise DatasetError("row 1: no signal columns found")
        expected = [f"sig_{j}" for j in range(n)]
        if sig_cols != expected:
            raise DatasetError("row 1: signal columns must be sig_0..sig_{n-1} in order")
        if declared_n is not None and declared_n != n:
            raise DatasetError(f"manifest declares {declared_n} signals, header has {n}")

        records: list[Record] = []
        seen: set[str] = set()
        cur_id = None
        cur_label = ""
        cur_type = ""
        cur_frames: list[list[float]] = []

        def flush(row_no: int):
            nonlocal cur_id, cur_frames
            if cur_id is None:
                return
            try:
                records.append(
                    Record(
                        sample_id=cur_id,
                        frames=np.array(cur_frames, dtype=np.float64),
                        label=cur_label,
                        anomaly_type=cur_type,
                        sample_rate_hz=sample_rate_hz,
                    )
                )
            except InputError as e:
                raise DatasetError(f"row {row_no}: {e}") from None
            cur_id = None
            cur_frames = []

        row_no = 1
        for row_no, row in rows:
            if len(row) != len(header):
                raise DatasetError(
                    f"row {row_no}: expected {len(header)} cells, got {len(row)}"
                )
            sid, idx_s, label, atype = row[:4]
            if sid != cur_id:
                flush(row_no)
                if sid in seen:
                    raise DatasetError(
                        f"row {row_no}: sample '{sid}' is not contiguous in the file"
                    )
                seen.add(sid)
                cur_id = sid
                cur_label = label
                cur_type = atype
            else:
                if label != cur_label or atype != cur_type:
                    raise DatasetError(
                        f"row {row_no}: sample '{sid}' changes label or anomaly_type mid-record"
                    )
            try:
                idx = int(idx_s)
            except ValueError:
                raise DatasetError(f"row {row_no}: frame_idx is not an integer: {idx_s!r}") from None
            if idx != len(cur_frames):
                raise DatasetError(
                    f"row {row_no}: frame_idx {idx} out of order (expected {len(cur_frames)})"
                )
            cur_frames.append(
                [_parse_float(c, row_no, col) for c, col in zip(row[4:], expected)]
            )
        flush(row_no + 1)
    if not records:
        raise DatasetError("row 1: file contains a header but no data rows")
    return records

