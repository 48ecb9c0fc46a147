"""flowad benchmark.

    python3 perfbench/run.py --workload {stream,offline,train} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N [--seconds S]

Run from the root of a checkout. A single workload prints its facts and,
as the last line, one JSON object: its end-to-end metrics untraced
(--trace 0) or its per-layer metrics traced (--trace 1). `all` runs every
workload untraced and then traced, prints one row of end-to-end metrics
per workload with the per-layer metrics under it, and exits non-zero if
any output fails its check.

The first run in a checkout trains the fixture model with the checkout's
own code (default TrainConfig on 200 normal records) and caches it under
.bench_build/, keyed by the source; later runs reuse it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run may take 180 s; give up on a hung child well before that.
RUN_LIMIT_S = 170

FIXTURE_NORMAL, FIXTURE_SYNTH_SEED = 200, 7


def facts(seed: int) -> dict:
    """What explains the numbers: kernel backend, BLAS, versions, cores."""
    import numpy as np

    backend = "numpy"
    if os.environ.get("FLOWAD_NO_NUMBA", "") != "1":
        try:
            import numba  # noqa: F401

            backend = "numba"
        except ImportError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMBA_NUM_THREADS", "FLOWAD_NO_NUMBA")
    return {
        "scoring_backend": backend,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "seed": seed,
    }


def fixture() -> dict:
    """The trained and the calibrated checkpoint every stream/offline run
    uses, built once per source tree by the code under test."""
    from workloads import Context, _save, _synth

    digest = hashlib.sha256(f"{FIXTURE_NORMAL},{FIXTURE_SYNTH_SEED}".encode())
    for path in sorted((ROOT / "src" / "flowad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    done = BUILD / f"fixture-{digest.hexdigest()[:16]}"
    paths = {"trained": str(done / "model.ckpt"), "calibrated": str(done / "calibrated.ckpt")}
    if done.exists():
        return paths
    tmp = BUILD / f"{done.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ctx = Context(ROOT, tmp, {}, 0, 0.0, False)
    print(f"perfbench: building fixture {done.name}", file=sys.stderr)
    data = _save(_synth(FIXTURE_NORMAL, 0, FIXTURE_SYNTH_SEED), tmp / "train.csv")
    for args in (["train", "--data", data, "--out", tmp / "model.ckpt"],
                 ["calibrate", "--checkpoint", tmp / "model.ckpt", "--data", data,
                  "--out", tmp / "calibrated.ckpt"]):
        if ctx.job(args, args[0])[1] != 0:
            sys.exit("perfbench: fixture build failed")
    (tmp / "train.csv").unlink()
    try:
        tmp.rename(done)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)
    return paths


def _on_alarm(_signum, _frame):
    from workloads import BenchError

    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def run_one(name: str, seed: int, seconds: float, trace: bool, fix: dict, env_facts: dict):
    from workloads import WORKLOADS, Context

    work = BUILD / "runs" / f"{name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(ROOT, work, fix, seed, seconds, trace)
    outcome = WORKLOADS[name](ctx)
    for csv in work.glob("*.csv"):
        csv.unlink()
    (work / "result.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
         "facts": env_facts, "metrics": outcome.metrics, "info": outcome.info,
         "attempted": outcome.attempted, "failed": outcome.failed}, indent=2) + "\n")
    return outcome


# Workload-specific names under which `all` prints the end-to-end metrics.
_ROW_NAMES = {
    "stream": {"latency_p50_ms": "verdict_latency_p50_ms",
               "latency_p75_ms": "verdict_latency_p75_ms", "setup_s": "setup_s",
               "peak_rss_mb": "peak_rss_mb"},
    "offline": {"windows_per_s": "offline_windows_per_s", "setup_s": "setup_s",
                "peak_rss_mb": "peak_rss_mb"},
    "train": {"windows_per_s": "train_windows_per_s", "setup_s": "setup_s",
              "peak_rss_mb": "peak_rss_mb"},
}


def suite(seed: int, seconds: float, fix: dict, env_facts: dict) -> int:
    report = {"facts": env_facts, "workloads": {}}
    for name in ("stream", "offline", "train"):
        plain = run_one(name, seed, seconds, False, fix, env_facts)
        traced = run_one(name, seed, seconds, True, fix, env_facts)
        report["workloads"][name] = {"e2e": plain.metrics, "layers": traced.metrics,
                                     "info": plain.info}
        cells = []
        for key, label in _ROW_NAMES[name].items():
            m = plain.metrics[key]
            cells.append(f"{label}={m['value']:.4g} {m['unit']}")
        if name == "stream":
            for label, value in list(plain.info["verdict_latency_ms"].items())[2:]:
                cells.insert(-2, f"verdict_latency_{label}_ms={value:.4g} ms")
            cells.insert(-2, f"stream_fps={plain.info['stream_fps']:.4g} frames/s")
        if name == "offline":
            cells.append(f"auroc_mean={plain.info['auroc_mean']:.4f} 1")
        frac = plain.failed / plain.attempted
        cells.append(f"failed_frac={frac:.4g} 1 ({plain.failed}/{plain.attempted})")
        print(f"{name:8s} " + "  ".join(cells))
        for key, m in traced.metrics.items():
            if m["value"] or key == "tracing.overhead_pct":
                print(f"{'':8s}   {key} = {m['value']:.4g} {m['unit']}")
    out = BUILD / f"suite-seed{seed}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report -> {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "offline", "train", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowad" / "cli.py").is_file():
        print(f"perfbench: no flowad source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import BenchError

    fix = fixture()
    env_facts = facts(args.seed)
    print(f"facts {json.dumps(env_facts)}")
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.workload == "all":
            return suite(args.seed, args.seconds, fix, env_facts)
        signal.alarm(RUN_LIMIT_S)
        t0 = time.perf_counter()
        outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace), fix,
                          env_facts)
        signal.alarm(0)
    except BenchError as e:
        print(f"perfbench: FAILED: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(f"info {json.dumps(outcome.info)} run_s={time.perf_counter() - t0:.1f}")
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": outcome.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
