"""The three workloads. Each drives the real `flowad` CLI as child
processes, one at a time, and returns its end-to-end metrics (or, when
traced, its per-layer metrics) with the operations attempted and failed.

Inputs come from `synth_generate` at the published protocol shapes
(N=12 signals, 300-frame records, 150-frame windows with stride 50); the
workload seed sets every synth seed and the train seed. Why each
workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import gc
import json
import math
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from stats import median, tail

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

WINDOW, STRIDE = 150, 50
THRESHOLD = 2.5
SETUP_REPEATS = 5  # offline and train; stream sets up once per session

# Stream: SESSIONS `detect` processes share the run. The open-loop frame
# rate keeps each about half busy on a numpy-only 2-core box, where the
# closed loop reaches 4,300-5,700 frames/s. Open-loop phases take all of
# --seconds but the closed loops, and carry at least MIN_VERDICTS verdicts
# in total so that p99 has ten samples beyond it.
SESSIONS = 5
OPEN_RATE_FPS = 2400.0
CLOSED_S = 1.0
MIN_VERDICTS = 1000
# An open-loop phase whose generator wrote later than this (p99 over its
# frames) ran while the box itself was too disturbed to keep the schedule:
# it is invalid and is repeated. The polling generator on the 2-core box
# stays under about 2.5 ms.
LATE_LIMIT_MS = 20.0
OPEN_ATTEMPTS = 3
# Closed-loop throughput is the median over blocks of this many verdicts.
BLOCK = 10

# Offline: 100 normal calibration records and the 50 + 50 labeled test set.
CALIB_RECORDS = 100
TEST_NORMAL = TEST_ANOMALOUS = 50
AUROC_FLOOR = 0.85

# Train: batch_size 8 records = 32 windows per step; the epoch count sizes
# one `flowad train` run to a few seconds.
TRAIN_RECORDS = 200
TRAIN_EPOCHS = 3
TRAIN_BATCH = 8

# Seeds of the generated inputs, offset per role so roles never share data.
SEED_CALIB, SEED_TEST, SEED_TRAIN_DATA = 1_000_000, 2_000_000, 3_000_000


class BenchError(Exception):
    """A child failed or an output did not check; the run is not valid."""


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)


class Context:
    """Paths and child-process plumbing shared by the workloads."""

    def __init__(self, root: Path, work: Path, fixture: dict, seed: int, seconds: float,
                 trace: bool):
        self.work, self.fixture = work, fixture
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.traces: list[Path] = []
        self.max_rss_kb = 0
        self._n = 0

    def spawn(self, args, run_id: str | None = None, **popen) -> subprocess.Popen:
        """Start `flowad <args>` through the launcher; traced when run_id is
        given."""
        self._n += 1
        hwm = self.work / f"hwm-{self._n:03d}.txt"
        cmd = [sys.executable, str(LAUNCHER), "--hwm-out", str(hwm)]
        if run_id is not None:
            path = self.work / f"trace-{self._n:03d}-{run_id}.json"
            self.traces.append(path)
            cmd += ["--trace-out", str(path), "--run-id", f"{self._n:03d}-{run_id}"]
        proc = subprocess.Popen(cmd + ["--"] + [str(a) for a in args], env=self.env,
                                cwd=self.work, **popen)
        proc.hwm_path = hwm
        return proc

    def log_path(self, name: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:03d}-{name}.log"

    def reap(self, proc: subprocess.Popen) -> int:
        """Wait for a child and fold its peak RSS into max_rss_kb."""
        _pid, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.hwm_path.exists():
            self.max_rss_kb = max(self.max_rss_kb, int(proc.hwm_path.read_text()))
        return proc.returncode

    def job(self, args, name: str, traced: bool = False) -> tuple[float, int]:
        """Run one command to completion; returns (wall seconds, exit code)."""
        log = self.log_path(name)
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = self.spawn(args, name if traced else None, stdin=subprocess.DEVNULL,
                              stdout=fh, stderr=subprocess.STDOUT)
            try:
                code = self.reap(proc)
            except BaseException:
                proc.kill()
                self.reap(proc)
                raise
            wall = time.perf_counter() - t0
        if code != 0:
            sys.stderr.write(log.read_text()[-2000:])
            print(f"perfbench: `flowad {args[0]}` exited {code}", file=sys.stderr)
        return wall, code

    def spans(self) -> layers.Spans:
        return layers.Spans(json.loads(p.read_text()) for p in self.traces)


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def _e2e(setup_s, p50_ms, p75_ms, windows_per_s, ctx: Context) -> dict:
    return {
        "setup_s": _metric(setup_s, "s"),
        "latency_p50_ms": _metric(p50_ms, "ms"),
        "latency_p75_ms": _metric(p75_ms, "ms"),
        "windows_per_s": _metric(windows_per_s, "windows/s"),
        "peak_rss_mb": _metric(ctx.max_rss_kb / 1024.0, "MB"),
    }


def _synth(num_normal, num_anomalous, seed):
    from flowad.synth import SynthConfig, synth_generate

    return synth_generate(SynthConfig(num_normal=num_normal, num_anomalous=num_anomalous,
                                      seed=seed))


def _save(records, path: Path) -> Path:
    from flowad.data import save_records

    save_records(records, path)
    return path


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _kernel_counts(cfg) -> dict:
    return {"flops_per_window": layers.kernel_flops(cfg),
            "bytes_per_window": layers.kernel_bytes(cfg)}


def _another(walls, t0: float, seconds: float) -> bool:
    """Repeat a batch job at least twice (outputs must match across runs),
    then while the next run is expected to end within `seconds`."""
    if len(walls) < 2:
        return True
    return time.perf_counter() - t0 + sum(walls) / len(walls) <= seconds


def _overhead_pct(traced_s, untraced_s) -> float:
    return (sum(traced_s) / len(traced_s)) / (sum(untraced_s) / len(untraced_s)) * 100.0 - 100.0


# -- stream ------------------------------------------------------------------


class DetectSession:
    """One `flowad detect --input -` child fed frame lines on stdin.

    All I/O is non-blocking and multiplexed on one thread, so the frame
    schedule never waits for the child: frames that the pipe cannot take
    yet stay queued here, and their latency still counts from their due
    time.
    """

    def __init__(self, ctx: Context, frame_bytes: list[bytes], run_id: str | None,
                 offset: int = 0):
        self.ctx = ctx
        self.frame_bytes = frame_bytes
        self.offset = offset  # frame i of this process is frame_bytes[offset + i]
        self.sent = 0
        self.verdicts: list[tuple[float, bytes]] = []  # (read time, line)
        self._out = bytearray()
        self._partial = b""
        self._err = open(ctx.log_path("detect"), "wb")
        self.spawned = time.perf_counter()
        self.proc = ctx.spawn(["detect", "--checkpoint", ctx.fixture["calibrated"],
                               "--input", "-", "--threshold", THRESHOLD], run_id,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=self._err, bufsize=0)
        self._in = self.proc.stdin.fileno()
        self._rd = self.proc.stdout.fileno()
        os.set_blocking(self._in, False)
        os.set_blocking(self._rd, False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._rd, selectors.EVENT_READ)
        self._writing = False
        self._eof = False

    def queue(self, count: int):
        base = len(self.frame_bytes)
        for i in range(self.sent, self.sent + count):
            self._out += b"%d," % i
            self._out += self.frame_bytes[(self.offset + i) % base]
        self.sent += count

    def pending(self) -> int:
        return len(self._out)

    def pump(self, timeout: float):
        """Write what the pipe takes and read what the child printed,
        waiting at most `timeout` seconds for either (0: just poll)."""
        want_write = bool(self._out) and self._in is not None
        if want_write != self._writing:
            if want_write:
                self._sel.register(self._in, selectors.EVENT_WRITE)
            else:
                self._sel.unregister(self._in)
            self._writing = want_write
        for key, _mask in self._sel.select(max(timeout, 0.0)):
            if key.fd == self._rd:
                self._read()
            elif self._out:
                try:
                    n = os.write(self._in, self._out)
                except BlockingIOError:
                    n = 0
                except BrokenPipeError:
                    raise BenchError("detect closed its input early") from None
                del self._out[:n]

    def _read(self):
        try:
            chunk = os.read(self._rd, 1 << 16)
        except BlockingIOError:
            return
        now = time.perf_counter()
        if not chunk:
            self._eof = True
            self._sel.unregister(self._rd)
            return
        lines = (self._partial + chunk).split(b"\n")
        self._partial = lines.pop()
        self.verdicts.extend((now, line) for line in lines if line)

    def wait_verdicts(self, count: int, limit_s: float = 60.0):
        deadline = time.perf_counter() + limit_s
        while len(self.verdicts) < count:
            if self._eof or time.perf_counter() > deadline:
                raise BenchError(f"detect gave {len(self.verdicts)} of {count} verdicts")
            self.pump(0.05)

    def close(self) -> int:
        while self._out:
            self.pump(0.05)
        if self._writing:
            self._sel.unregister(self._in)
            self._writing = False
        self.proc.stdin.close()
        self._in = None
        while not self._eof:
            self._sel.select(0.05) and self._read()
        self._sel.close()
        code = self.ctx.reap(self.proc)
        self.proc.stdout.close()
        self._err.close()
        return code

    def abort(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.ctx.reap(self.proc)
        self._err.close()


def _p75(samples) -> float:
    """The gated upper quartile. Stream p90 and p99 are reported too, but on
    a shared 2-core VM stalls set them: across identical runs p99 swung
    from 17 to 480 ms and p90 by a fifth of its median."""
    return float(np.percentile(samples, 75))


def _windows_for(frames: int) -> int:
    return 0 if frames < WINDOW else (frames - WINDOW) // STRIDE + 1


def _setup(session: DetectSession) -> float:
    """Write the first window at spawn; set-up ends at its verdict."""
    session.queue(WINDOW)
    session.wait_verdicts(1)
    return session.verdicts[0][0] - session.spawned


def _open_loop(session: DetectSession, frames: int, rate: float):
    """Write `frames` frames on a fixed schedule; returns the verdict
    latencies (ms) of the windows they complete and the generator's
    lateness per frame (ms)."""
    first = session.sent
    first_verdict = len(session.verdicts)
    t0 = time.perf_counter() + 0.005
    late = []
    k = 0
    while k < frames:
        now = time.perf_counter()
        due_k = t0 + k / rate
        if due_k <= now:
            n = min(frames - k, max(1, int((now - t0) * rate) - k + 1))
            late.extend((now - (t0 + j / rate)) * 1e3 for j in range(k, k + n))
            session.queue(n)
            k += n
            continue
        # Poll rather than sleep until due_k: a sleeping generator on the
        # shared VM woke 1-10 ms late, and open-loop p50 then swung by an
        # eighth between identical runs; polling holds it within 5 %.
        session.pump(0.0)
    expected = _windows_for(session.sent)
    session.wait_verdicts(expected)
    latencies = []
    for read_at, line in session.verdicts[first_verdict:expected]:
        # from when the window's last frame was due, not when it was written
        last_frame = json.loads(line)["window_start"] + WINDOW - 1
        latencies.append((read_at - (t0 + (last_frame - first) / rate)) * 1e3)
    return latencies, late


def _closed_loop(session: DetectSession, seconds: float) -> tuple[float, float]:
    """Write frames as fast as the pipe takes them, one stride at a time,
    for `seconds`. Returns frames/s over the whole phase (first write to
    last verdict) and the median frames/s over blocks of BLOCK verdicts,
    which a VM stall of a fraction of a second does not move."""
    first, first_verdict = session.sent, len(session.verdicts)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        if session.pending() < 1 << 15:
            session.queue(STRIDE)
        session.pump(0.001 if session.pending() < 1 << 15 else 0.05)
    expected = _windows_for(session.sent)
    session.wait_verdicts(expected)
    times = [t for t, _line in session.verdicts[first_verdict:expected]]
    blocks = [BLOCK * STRIDE / (times[i + BLOCK] - times[i])
              for i in range(0, len(times) - BLOCK, BLOCK)]
    return (session.sent - first) / (times[-1] - t0), median(blocks)


def _check_stream(sessions, frames: np.ndarray, fixture: dict) -> int:
    """Every verdict must equal `ScoringRuntime.l1_error` on the same slice
    of the replayed stream, bit for bit (the streaming = batch property),
    and each session must give one verdict per full window."""
    from flowad.checkpoint import load_checkpoint
    from flowad.detection import CalibrationStats, score_from_l1
    from flowad.fastpath import ScoringRuntime

    ckpt = load_checkpoint(fixture["calibrated"])
    runtime = ScoringRuntime.from_checkpoint(ckpt)
    calib = CalibrationStats.from_dict(ckpt.calibration)
    base = len(frames)
    expected_scores: dict[int, float] = {}  # the replay repeats, so cache by offset
    checked = 0
    for session in sessions:
        if len(session.verdicts) != _windows_for(session.sent):
            raise BenchError(f"{len(session.verdicts)} verdicts for {session.sent} frames, "
                             f"expected {_windows_for(session.sent)}")
        for v, (_t, line) in enumerate(session.verdicts):
            doc = json.loads(line)
            start = v * STRIDE
            if doc["window_start"] != start:
                raise BenchError(f"verdict {v} has window_start {doc['window_start']}")
            key = (session.offset + start) % base
            if key not in expected_scores:
                window = frames[(key + np.arange(WINDOW)) % base]
                expected_scores[key] = score_from_l1(runtime.l1_error(window), calib)
            want = expected_scores[key]
            if doc["score"] != want or doc["is_anomaly"] != (want > THRESHOLD):
                raise BenchError(f"verdict at frame {start}: score {doc['score']!r}, "
                                 f"batch scoring gives {want!r}")
            checked += 1
    return checked


def _stream_session(ctx: Context, frame_bytes, offset: int, run_id, open_frames: int,
                    sessions: list) -> dict:
    """One `detect` process: set-up, then `open_frames` frames open loop
    (repeated while the generator ran late), then the closed loop."""
    session = DetectSession(ctx, frame_bytes, run_id, offset)
    sessions.append(session)
    out = {"setup_s": _setup(session), "latencies": [], "late": []}
    if open_frames:
        for _attempt in range(OPEN_ATTEMPTS):
            out["latencies"], out["late"] = _open_loop(session, open_frames, OPEN_RATE_FPS)
            if np.percentile(out["late"], 99) <= LATE_LIMIT_MS:
                break
            print(f"perfbench: load generator ran late "
                  f"(p99 {np.percentile(out['late'], 99):.2f} ms); "
                  "open-loop phase invalid, repeating it", file=sys.stderr)
        else:
            raise BenchError("load generator ran late on every open-loop attempt")
    out["fps"], out["fps_median"] = _closed_loop(session, CLOSED_S)
    if session.close() != 0:
        raise BenchError("detect exited non-zero")
    return out


def run_stream(ctx: Context) -> Outcome:
    """SESSIONS `detect` processes, each replaying the test set from its own
    offset. A process's speed on the shared VM varies by a quarter from one
    process to the next, so every figure pools or takes the median over
    processes rather than resting on one."""
    records = _synth(TEST_NORMAL, TEST_ANOMALOUS, SEED_TEST + ctx.seed)
    frames = np.concatenate([r.frames for r in records])
    frame_bytes = [(",".join(repr(float(x)) for x in row) + "\n").encode() for row in frames]
    open_s = max(ctx.seconds - SESSIONS * CLOSED_S, 0.0)
    verdicts = max(math.ceil(open_s * OPEN_RATE_FPS / STRIDE), MIN_VERDICTS)
    open_frames = math.ceil(verdicts / SESSIONS) * STRIDE
    offsets = [i * len(frames) // SESSIONS // STRIDE * STRIDE for i in range(SESSIONS)]
    sessions, runs, plain = [], [], []
    gc.disable()  # the generator's own collections would make it run late
    try:
        for offset in offsets:
            runs.append(_stream_session(ctx, frame_bytes, offset,
                                        "detect" if ctx.trace else None, open_frames, sessions))
        if ctx.trace:
            # closed loops untraced, for the tracing overhead
            for offset in offsets[:3]:
                plain.append(_stream_session(ctx, frame_bytes, offset, None, 0, sessions))
    except BaseException:
        for session in sessions:
            session.abort()
        raise
    finally:
        gc.enable()
    checked = _check_stream(sessions, frames, ctx.fixture)
    attempted = sum(len(s.verdicts) for s in sessions)
    latencies = [x for r in runs for x in r["latencies"]]
    late = [x for r in runs for x in r["late"]]
    (ctx.work / "verdict_latencies_ms.json").write_text(json.dumps(latencies))
    tail_label, tail_ms = tail(latencies)
    fps_median = median([r["fps_median"] for r in runs])
    info = {"open_loop_verdicts": len(latencies),
            "verdict_latency_ms": {"p50": median(latencies), "p75": _p75(latencies),
                                   "p90": float(np.percentile(latencies, 90)),
                                   tail_label: tail_ms},
            "loadgen_frames_sent": open_frames * SESSIONS,
            "loadgen_late_ms_p99": float(np.percentile(late, 99)),
            "loadgen_late_ms_max": max(late),
            "stream_fps": median([r["fps"] for r in runs]),
            "stream_fps_block_median": fps_median, "open_rate_fps": OPEN_RATE_FPS,
            "verdicts_checked": checked}
    if ctx.trace:
        from flowad.checkpoint import load_checkpoint

        cfg = load_checkpoint(ctx.fixture["calibrated"]).config
        info["kernel"] = _kernel_counts(cfg)
        found = layers.stream_layers(ctx.spans(), cfg, info["loadgen_late_ms_p99"])
        found["tracing.overhead_pct"] = _overhead_pct(
            [1 / fps_median], [1 / median([r["fps_median"] for r in plain])])
        return Outcome(layers.complete(found), attempted, 0, info)
    metrics = _e2e(median([r["setup_s"] for r in runs]), median(latencies), _p75(latencies),
                   fps_median / STRIDE, ctx)
    return Outcome(metrics, attempted, 0, info)


# -- offline -----------------------------------------------------------------


def run_offline(ctx: Context) -> Outcome:
    """README steps 3-4: calibrate a copy of the trained checkpoint on
    normal data, then evaluate it on the labeled test set with --roc-out."""
    calib_csv = _save(_synth(CALIB_RECORDS, 0, SEED_CALIB + ctx.seed), ctx.work / "calib.csv")
    test_records = _synth(TEST_NORMAL, TEST_ANOMALOUS, SEED_TEST + ctx.seed)
    test_csv = _save(test_records, ctx.work / "test.csv")
    tiny_calib = _save(_synth(1, 0, SEED_CALIB + ctx.seed), ctx.work / "tiny_calib.csv")
    tiny_test = _save(_synth(1, 3, SEED_TEST + ctx.seed), ctx.work / "tiny_test.csv")
    trained = ctx.fixture["trained"]

    def pair(calib_data, test_data, tag, traced=False):
        calibrated = ctx.work / f"{tag}.ckpt"
        report = ctx.work / f"{tag}-report.json"
        roc = ctx.work / f"{tag}-roc.csv"
        walls, codes = zip(
            ctx.job(["calibrate", "--checkpoint", trained, "--data", calib_data,
                     "--out", calibrated], "calibrate", traced),
            ctx.job(["eval", "--checkpoint", calibrated, "--data", test_data,
                     "--out", report, "--roc-out", roc], "eval", traced),
        )
        return sum(walls), sum(c != 0 for c in codes), calibrated, report, roc

    attempted = failed = 0
    setups = []
    for _ in range(SETUP_REPEATS):
        wall, bad, *_ = pair(tiny_calib, tiny_test, "tiny")
        setups.append(wall)
        attempted, failed = attempted + 2, failed + bad
    walls, traced_walls, outputs = [], [], None
    t0 = time.perf_counter()
    while _another(walls + traced_walls, t0, ctx.seconds):
        traced = ctx.trace and len(walls) > len(traced_walls)
        wall, bad, *paths = pair(calib_csv, test_csv, "run", traced)
        attempted, failed = attempted + 2, failed + bad
        if bad:
            raise BenchError("a calibrate or eval command failed")
        (traced_walls if traced else walls).append(wall)
        produced = [p.read_bytes() for p in paths]
        if outputs is None:
            outputs = produced
        elif produced != outputs:
            raise BenchError("calibrated checkpoint, report or ROC differ between runs")
    if failed:
        raise BenchError("a set-up calibrate or eval command failed")
    report = json.loads(outputs[1])
    if set(report["per_type"]) != {"spike", "drift", "dropout"}:
        raise BenchError(f"per_type covers {sorted(report['per_type'])}")
    if report["n_skipped"] != 0:
        raise BenchError(f"eval skipped {report['n_skipped']} records")
    if not report["overall_mean"] >= AUROC_FLOOR:
        raise BenchError(f"auroc_mean {report['overall_mean']:.4f} < {AUROC_FLOOR}")
    windows = (CALIB_RECORDS + TEST_NORMAL + TEST_ANOMALOUS) * _windows_for(300)
    info = {"auroc_mean": report["overall_mean"], "pairs": len(walls) + len(traced_walls),
            "windows_per_pair": windows}
    if ctx.trace:
        from flowad.checkpoint import load_checkpoint

        cfg = load_checkpoint(trained).config
        info["kernel"] = _kernel_counts(cfg)
        rows = (CALIB_RECORDS + TEST_NORMAL + TEST_ANOMALOUS) * 300
        found = layers.offline_layers(ctx.spans(), cfg, len(traced_walls), rows,
                                      (TEST_NORMAL + TEST_ANOMALOUS) * _windows_for(300))
        found["tracing.overhead_pct"] = _overhead_pct(traced_walls, walls)
        return Outcome(layers.complete(found), attempted, failed, info)
    metrics = _e2e(median(setups), median(walls) * 1e3, _p75(walls) * 1e3,
                   windows * len(walls) / sum(walls), ctx)
    return Outcome(metrics, attempted, failed, info)


# -- train -------------------------------------------------------------------


def run_train(ctx: Context) -> Outcome:
    """`flowad train` on normal records, batch_size 8 (32 windows per step)."""
    data = _save(_synth(TRAIN_RECORDS, 0, SEED_TRAIN_DATA + ctx.seed), ctx.work / "train.csv")
    tiny = _save(_synth(1, 0, SEED_TRAIN_DATA + ctx.seed), ctx.work / "tiny_train.csv")
    train = {"epochs": TRAIN_EPOCHS, "batch_size": TRAIN_BATCH, "seed": ctx.seed}
    cfg = _write_config(ctx.work / "train.json", {"train": train})
    tiny_cfg = _write_config(ctx.work / "tiny.json", {"train": {**train, "epochs": 1}})
    out, log = ctx.work / "model.ckpt", ctx.work / "train.log.jsonl"

    attempted = failed = 0
    setups = []
    for _ in range(SETUP_REPEATS):
        wall, code = ctx.job(["train", "--config", tiny_cfg, "--data", tiny,
                              "--out", ctx.work / "tiny.ckpt"], "train-tiny")
        setups.append(wall)
        attempted, failed = attempted + 1, failed + (code != 0)
    walls, traced_walls, first = [], [], None
    t0 = time.perf_counter()
    while _another(walls + traced_walls, t0, ctx.seconds):
        traced = ctx.trace and len(walls) > len(traced_walls)
        wall, code = ctx.job(["train", "--config", cfg, "--data", data, "--out", out,
                              "--log", log], "train", traced)
        attempted, failed = attempted + 1, failed + (code != 0)
        if code != 0:
            raise BenchError("flowad train failed")
        (traced_walls if traced else walls).append(wall)
        produced = out.read_bytes()
        if first is None:
            first = produced
        elif produced != first:
            raise BenchError("checkpoints differ between identical train runs")
        for line in log.read_text().splitlines():
            entry = json.loads(line)
            losses = [v for k, v in entry.items() if k.startswith("mean_L_")]
            if len(losses) != 4 or not all(math.isfinite(v) for v in losses):
                raise BenchError(f"non-finite loss in epoch {entry.get('epoch')}: {entry}")
    if failed:
        raise BenchError("a set-up train command failed")
    windows_per_epoch = TRAIN_RECORDS * _windows_for(300)
    info = {"runs": len(walls) + len(traced_walls), "epochs": TRAIN_EPOCHS,
            "windows_per_epoch": windows_per_epoch}
    if ctx.trace:
        found = layers.train_layers(ctx.spans(), len(traced_walls), windows_per_epoch,
                                    TRAIN_EPOCHS)
        found["tracing.overhead_pct"] = _overhead_pct(traced_walls, walls)
        return Outcome(layers.complete(found), attempted, failed, info)
    metrics = _e2e(median(setups), median(walls) * 1e3, _p75(walls) * 1e3,
                   windows_per_epoch * TRAIN_EPOCHS * len(walls) / sum(walls), ctx)
    return Outcome(metrics, attempted, failed, info)


WORKLOADS = {"stream": run_stream, "offline": run_offline, "train": run_train}
