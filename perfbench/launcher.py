"""Child entry point: run one `flowad` command, optionally traced.

    python3 perfbench/launcher.py [--hwm-out PATH] [--trace-out PATH --run-id ID] \
        -- <flowad args>

Untraced, it imports `flowad.cli` and calls `main`, exactly as the
`flowad` console script does. Traced, it first replaces each layer's
public functions at the names their callers look up (module globals and
class attributes) with wrappers that record a span, and on exit writes
every span as `[name, start_ns, end_ns, parent_index, run_id]`. The
program's source is not modified.

With --hwm-out it writes its peak resident set (VmHWM, kB) on exit. The
`ru_maxrss` that `wait4` reports for a child also counts the parent's
pages from before `exec`, so it cannot be used.
"""

import functools
import json
import sys
import time

# (module, attribute path, span name). The attribute is patched where the
# caller resolves it, so a caller that imported the name keeps seeing the
# wrapper.
PATCHES = (
    ("flowad.cli", "load_checkpoint", "checkpoint.load"),
    ("flowad.cli", "save_checkpoint", "checkpoint.save"),
    ("flowad.cli", "load_records", "data.load_records"),
    ("flowad.cli", "sliding_windows", "data.sliding_windows"),
    ("flowad.cli", "calibrate", "detection.calibrate"),
    ("flowad.cli", "evaluate", "evaluation.evaluate"),
    ("flowad.cli", "roc_curve", "evaluation.roc_curve"),
    ("flowad.cli", "train", "training.train"),
    ("flowad.evaluation", "score_records", "evaluation.score_records"),
    ("flowad.evaluation", "per_type_auroc", "evaluation.per_type_auroc"),
    ("flowad.evaluation", "sliding_windows", "data.sliding_windows"),
    ("flowad.training", "fit_normalization", "data.fit_normalization"),
    ("flowad.training", "apply_normalization", "data.apply_normalization"),
    ("flowad.training", "sliding_windows", "data.sliding_windows"),
    ("flowad.training", "init_generator", "model.init"),
    ("flowad.training", "init_discriminator", "model.init"),
    ("flowad.training", "generator_forward", "model.generator_forward"),
    ("flowad.training", "loss_generator", "losses.loss_generator"),
    ("flowad.training", "loss_discriminator", "losses.loss_discriminator"),
    ("flowad.training", "value_and_grad", "autodiff.value_and_grad"),
    ("flowad.training", "adamw_step", "optim.adamw_step"),
    ("flowad.fastpath", "ScoringRuntime.__init__", "fastpath.build"),
    ("flowad.fastpath", "ScoringRuntime.normalize", "fastpath.normalize"),
    ("flowad.fastpath", "ScoringRuntime.l1_error", "fastpath.l1_error"),
    ("flowad.fastpath", "ScoringRuntime.warm_up", "fastpath.warm_up"),
    ("flowad.detection", "StreamDetector.__init__", "detection.init"),
    ("flowad.detection", "StreamDetector.push", "detection.push"),
)


class Tracer:
    """In-memory spans of one process; parents come from a call stack,
    which is exact because the traced program is single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def lines(self, stream):
        """Iterate a text stream, recording each blocking read as
        `io.stdin` so waiting for input is not counted as cli self time."""
        it = iter(stream)
        while True:
            idx = self.begin("io.stdin")
            try:
                line = next(it, None)
            finally:
                self.end(idx)
            if line is None:
                return
            yield line

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh, separators=(",", ":"))


class _TracedStdin:
    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self._tracer = tracer

    def __iter__(self):
        return self._tracer.lines(self._stream)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def install(tracer: Tracer):
    import importlib

    for module_name, attr_path, span_name in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), span_name))
    sys.stdin = _TracedStdin(sys.stdin, tracer)


def write_hwm(path: str):
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(kb + "\n")


def run(argv) -> int:
    opts = {"--trace-out": None, "--run-id": None, "--hwm-out": None}
    while argv and argv[0] != "--":
        if argv[0] not in opts or len(argv) < 2:
            print(f"launcher: bad option {argv[0]}", file=sys.stderr)
            return 2
        opts[argv[0]], argv = argv[1], argv[2:]
    try:
        return _main(argv[1:], opts["--trace-out"], opts["--run-id"])
    finally:
        if opts["--hwm-out"]:
            write_hwm(opts["--hwm-out"])


def _main(args, trace_out, run_id) -> int:
    if trace_out is None:
        from flowad.cli import main

        return main(args)
    tracer = Tracer(run_id or "run")
    idx = tracer.begin("cli.import")
    from flowad.cli import main

    tracer.end(idx)
    install(tracer)
    idx = tracer.begin("cli.main")
    try:
        return main(args)
    finally:
        tracer.end(idx)
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
