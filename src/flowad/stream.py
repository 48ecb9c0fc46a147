"""`detect`'s line protocol: frame lines in, verdict lines and the metrics
file out.

Frames arrive as `frame_idx,sig_0,...` UTF-8 lines, from a file or stdin.
Blank lines are skipped (load_records rejects them in a dataset CSV);
frame_idx runs 0, 1, 2, ... without gaps, as in load_records. A bad line
raises an InputError once those before it are out.

Each read takes what the binary stream has ready. A read's lines end at
\\n, \\r\\n or \\r, as text mode reads them, and each comes out by the end
of its read: a read that ends in \\r ends a line, and a \\n that starts the
next read belongs to it. A read of _BULK_LINES or more lines of _PLAIN
bytes is parsed in bulk; the line loop reads the rest and words every
error. A read's frames are one block, pushed to the detector in one call,
and the block's verdicts go out as JSON lines in one write and one flush.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from array import array

import numpy as np

from .errors import InputError
from .fastpath import BACKEND, BLAS_THREAD_VARS

# A read of at least this many frame lines is parsed in bulk; np.loadtxt's
# set-up makes it slower than the line loop on one to three lines.
_BULK_LINES = 4
# The bytes a bulk-parsed read may hold; any other sends it to the line loop.
_PLAIN = b"0123456789+-.eE,\r\n"


def _bulk_frames(lines: list[bytes], first_idx: int, n_signals: int):
    """np.loadtxt of frame lines of _PLAIN bytes, as (F, n_signals) float64;
    None unless they are frames first_idx, first_idx + 1, ... and the line
    loop would read the same values (both parse with CPython's strtod)."""
    dtype = np.dtype([("idx", np.int64), ("sig", np.float64, (n_signals,))])
    try:  # it skips blank lines, as the line loop does
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if not np.isfinite(rows["sig"]).all():
        return None
    if (rows["idx"] != np.arange(first_idx, first_idx + len(rows))).any():
        return None
    return rows["sig"]


def frame_blocks(source, n_signals: int):
    """(F, n_signals) float64 blocks of the frame lines of a binary stream,
    at most one per read of what it has ready (see the module docstring)."""
    expected = line_no = 0
    rest, after_cr = b"", False
    while True:
        # A read takes up to 48 KiB, about 200 lines at 12 signals: a backlog
        # block then spans T_W + T_S default frames, and its waves save a
        # quarter of its LSTM steps. perfbench's closed loop fails on 11 or
        # more verdicts in one read of detect's output, and up to 48 KiB here
        # plus a full 64 KiB pipe complete at most 10 windows.
        chunk = source.read1(48 << 10)
        data = rest + (chunk[1:] if after_cr and chunk[:1] == b"\n" else chunk)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1 if chunk else len(data)
        block, rest, after_cr = data[:cut], data[cut:], data.endswith(b"\r")
        lines = block.splitlines()
        frames = error = None
        if (len(lines) >= _BULK_LINES and len(lines) - lines.count(b"") >= _BULK_LINES
                and not block.translate(None, _PLAIN)):
            frames = _bulk_frames(lines, expected, n_signals)
        if frames is not None:
            line_no, expected = line_no + len(lines), expected + len(frames)
            lines = []
        else:
            frames = []
        for line in lines:
            line_no += 1
            line = line.decode("utf-8", "surrogateescape").strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                idx = int(cells[0])
                values = [float(c) for c in cells[1:]]
            except ValueError:
                error = f"expected `frame_idx,sig_0,...`, got {line!r}"
                break
            if len(values) != n_signals:
                error = f"expected {n_signals} signals, got {len(values)}"
            elif not all(map(math.isfinite, values)):
                error = f"non-finite value in {line!r}"
            elif idx != expected:
                error = f"frame_idx {idx} out of order (expected {expected})"
            if error:
                break
            frames.append(values)
            expected += 1
        if len(frames):
            yield np.asarray(frames, dtype=np.float64)
        if error:
            raise InputError(f"stream line {line_no}: {error}")
        if not chunk:
            return


def run(detector, input_path: str, metrics_path: str | None):
    """Push every block of the input's frames to `detector` and write the
    verdicts to stdout. With `metrics_path`, write the run's counts and
    latency percentiles there on exit, also when a bad frame ends it.
    The input is a file, closed on exit, or stdin for "-", left open."""
    try:
        opened = (contextlib.nullcontext(sys.stdin.buffer) if input_path == "-"
                  else open(input_path, "rb"))
    except OSError as e:
        raise InputError(f"cannot open stream input {input_path}: {e.strerror}") from None
    with opened as source:
        try:
            metrics_fh = None if metrics_path is None else open(metrics_path, "w")
        except OSError as e:
            raise InputError(f"cannot write --metrics-out {metrics_path}: {e.strerror}") \
                from None
        # With a metrics file, each frame's share of its push and each tail are kept.
        push_us, tail_us = array("d"), array("d")
        blocks = anomalies = rejected = 0
        try:
            for frames in frame_blocks(source, detector.runtime.config.n_signals):
                blocks += 1
                t0 = time.perf_counter_ns()
                verdicts = detector.push(frames)
                if metrics_fh is not None:
                    share = (time.perf_counter_ns() - t0) / 1000.0 / len(frames)
                    push_us.extend([share] * len(frames))
                    tail_us.extend(v.inference_us for v in verdicts)
                    anomalies += sum(v.is_anomaly for v in verdicts)
                if verdicts:
                    _write_verdicts(verdicts)
        except InputError:
            rejected = 1  # a frame that cannot be parsed or scored ends the stream
            raise
        finally:
            if metrics_fh is not None:
                with metrics_fh:
                    json.dump({
                        "frames": detector.frames_seen,
                        "blocks": blocks,
                        "verdicts": len(tail_us),
                        "anomalies": anomalies,
                        "rejected_frames": rejected,
                        "overruns": detector.overruns,
                        "tail_us": _p50_p99(tail_us),
                        "push_us": _p50_p99(push_us),
                        "backend": BACKEND,
                        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
                    }, metrics_fh, indent=2, sort_keys=True)
                    metrics_fh.write("\n")


def _write_verdicts(verdicts):
    """A block's verdict lines, each the bytes of `json.dumps` of its
    fields, in one write and one flush. NaN and Infinity are not JSON: such
    a score is written as null, and the verdict stays anomalous (`classify`)."""
    lines = []
    for v in verdicts:
        if math.isfinite(v.score):
            score = float.__repr__(v.score)
        else:
            score = "null"
            print(f"warning: window_start {v.window_start} has a non-finite score; "
                  "flagged anomalous", file=sys.stderr)
        lines.append(f'{{"window_start": {v.window_start}, "score": {score}, "is_anomaly": '
                     f'{"true" if v.is_anomaly else "false"}, "inference_us": '
                     f'{float.__repr__(v.inference_us)}}}\n')
    sys.stdout.write("".join(lines))
    sys.stdout.flush()


def _p50_p99(samples_us) -> dict:
    if not samples_us:
        return {"p50": None, "p99": None}
    p50, p99 = np.percentile(samples_us, [50, 99])
    return {"p50": float(p50), "p99": float(p99)}
