"""Scoring runtime for calibration, evaluation, detection, and benchmarks.

Inference runs in 32-bit by default: parameters are cast once, the LSTM's
sigmoid-gate columns are halved once (`autodiff.halve_gates`), flow masks
are folded into the MADE weights, and one fused numpy kernel,
`_forward_l1`, performs normalize -> encode -> flow -> decode -> L1. It is
three parts: `_project` (each frame's input projection), the recurrence,
which projects each step's frames and runs `autodiff.lstm_step` in place
over one state buffer, keeping no step's projections or states, and
`_tail_l1` (heads, eps, flow, decoder, L1). The training tape's LSTM op
(`autodiff.lstm`) runs the same step and keeps every step's states for
backprop. It is vectorized over the hidden units, which keeps one window
within the acceptance latency bound (criterion 8) without a compiler,
and it sums the L1 in float64.

The contract is batch-first, and `ScoringRuntime.l1_errors` is its one
entry point: it scores a (B, T, N) batch, as calibration and evaluation
do, and `l1_error` is the same call at B=1. The kernel takes the whole
batch in one call: one (1, N) @ (N, 4H) gemv per frame, then one gemv per
window for every later product. So row b of a batch equals the
single-window result bit for bit, at every B.

`WindowsInFlight` is the same kernel cut at the same seams for a stream:
it projects each block of frames in one call, runs `autodiff.lstm_step`
in waves over every window the block touches, each window's row taking
its next frame per wave, and `_tail_l1` once over the windows the block
completes. It makes the very products the batch kernel makes, so
streamed and batch scoring of a window are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import halve_gates, lstm_gates, lstm_step
from .data import NormStats
from .errors import InputError
from .model import ModelConfig, build_flow_masks


def _project(x, w_x, b_g, out=None):
    """Gate pre-activations (..., 1, 4H) of normalized frames x (..., N),
    written to out if given: one (1, N) @ (N, 4H) gemv per frame, whether
    the frame rides in a batch of windows or in a block of the stream."""
    xp = np.matmul(x[..., None, :], w_x, out=out)
    xp += b_g
    return xp


def _tail_l1(h, x, mu_w, mu_b, lv_w, lv_b, flow, alpha_e, zero, d1_w, d1_b, d2_w, d2_b,
             eps):
    """The kernel after the recurrence: heads -> eps -> flow -> decoder ->
    L1, from the final hidden states h (..., 1, H) of the normalized
    windows x (..., T, N), with eps (..., D), or None for zero eps;
    returns the (...) errors. `flow` holds each layer's (enc_w, enc_b,
    dec_w, dec_b); alpha_e and zero are scalars of the scoring dtype.

    Every product is `state @ W` with the state shaped (..., 1, K),
    which numpy serves with one gemv per window; each product owns its
    result, so biases and ReLUs go in place.
    """
    lead = x.shape[:-2]
    z = h @ mu_w
    z += mu_b
    if eps is not None:
        eps = eps.reshape(lead + (1, -1))
        nz = eps != 0.0
        if nz.any():
            lv = h @ lv_w
            lv += lv_b
            z[nz] += np.exp(0.5 * lv[nz]) * eps[nz]
    for enc_w, enc_b, dec_w, dec_b in flow:
        hid = z @ enc_w
        hid += enc_b
        np.maximum(hid, zero, out=hid)
        shift = hid @ dec_w
        shift += dec_b
        z *= alpha_e
        z += shift
    d1 = z @ d1_w
    d1 += d1_b
    np.maximum(d1, zero, out=d1)
    flat = d1 @ d2_w
    flat += d2_b
    flat -= x.reshape(flat.shape)
    np.abs(flat, out=flat)
    return np.add.reduce(flat, axis=-1, dtype=np.float64).reshape(lead)


def _step_operands(acts, h, c, tc, w_h):
    """`lstm_step`'s operands that step the states h, c (..., 1, H) in
    place from the activations buffer acts (..., 1, 4H), writing tanh(c)
    to tc; each step copies its projections into acts first."""
    return (acts, *lstm_gates(acts), h, c, h, c, tc, w_h, np.array(0.5, dtype=acts.dtype))


def _forward_l1(x, w_x, w_h, b_g, *tail):
    """L1 between each normalized window of x (..., T, N) and its
    reconstruction; `tail` is `_tail_l1`'s weights, then eps (..., D).
    w_x, w_h and b_g come with their i/f/o columns halved (`halve_gates`).
    Returns the (...) errors.

    Each step projects its frame of every window into the activations
    buffer (`_project`), and `lstm_step` runs over one state buffer with
    each window's state shaped (1, H), so every product is one gemv per
    frame or per window: a window's result does not depend on the batch
    it rides in. Neither the projections nor any step's states are kept.
    """
    acts = np.empty(x.shape[:-2] + (1, w_x.shape[1]), dtype=x.dtype)
    h, c, tc = np.zeros((3,) + acts.shape[:-1] + w_h.shape[:1], dtype=acts.dtype)
    step = _step_operands(acts, h, c, tc, w_h)
    for t in range(x.shape[-2]):
        _project(x[..., t, :], w_x, b_g, out=acts)
        lstm_step(*step)
    return _tail_l1(h, x, *tail)


BACKEND = "numpy"
# The environment variables that set the BLAS library's thread count.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ScoringRuntime:
    """Holds cast parameters and scores raw windows a batch per call
    (`l1_errors`); `l1_error` is the stream's one-window form of it."""

    def __init__(self, config: ModelConfig, gen_arrays: dict, norm_stats: NormStats,
                 dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise InputError("scoring dtype must be float32 or float64")
        a = gen_arrays
        n, dt = config.n_signals, self.dtype
        cast = lambda arr: np.ascontiguousarray(arr, dtype=dt)
        # Each bias is shaped (1, 1, K) like one window's state, so that
        # adding it to one window does not broadcast, which numpy serves
        # about twice as fast.
        bias = lambda arr: cast(arr).reshape(1, 1, -1)
        flow = ()
        if config.use_flow and config.flow_layers > 0:
            m_enc, m_dec = build_flow_masks(config)
            # Fold the masks into the weights once.
            flow = tuple(
                (cast(a[f"flow{k}_enc_w"] * m_enc), bias(a[f"flow{k}_enc_b"]),
                 cast(a[f"flow{k}_dec_w"] * m_dec), bias(a[f"flow{k}_dec_b"]))
                for k in range(config.flow_layers)
            )
        # The kernel's arguments between the window and eps, in order.
        # The LSTM's sigmoid-gate columns come halved (`halve_gates`).
        self._weights = (
            halve_gates(cast(a["lstm_w"][:n])), halve_gates(cast(a["lstm_w"][n:])),
            halve_gates(bias(a["lstm_b"])),
            cast(a["mu_w"]), bias(a["mu_b"]), cast(a["logvar_w"]), bias(a["logvar_b"]),
            flow, dt.type(math.exp(config.alpha_const)), dt.type(0),
            cast(a["dec1_w"]), bias(a["dec1_b"]), cast(a["dec2_w"]), bias(a["dec2_b"]),
        )
        # (1, N): a stream block of one frame normalizes without broadcasting.
        self._mean = np.array(norm_stats.mean, dtype=np.float64).reshape(1, -1)
        self._std = np.array(norm_stats.std, dtype=np.float64).reshape(1, -1)
        self.norm_stats = norm_stats

    @classmethod
    def from_checkpoint(cls, ckpt, dtype=np.float32) -> "ScoringRuntime":
        return cls(ckpt.config, ckpt.generator, ckpt.norm_stats, dtype=dtype)

    def normalize(self, window_raw: np.ndarray) -> np.ndarray:
        x = np.subtract(window_raw, self._mean, dtype=np.float64)
        x /= self._std  # in place: one float64 copy of the windows, not two
        return np.ascontiguousarray(x, dtype=self.dtype)

    def l1_errors(self, windows_raw: np.ndarray, eps=None) -> np.ndarray:
        """Full inference on each raw window of a (B, T_W, N) batch, with
        eps (B, D) or None: normalize, reconstruct, and return the L1
        distances in normalized units as a (B,) float64 array. Row b
        does not depend on B, bit for bit. A value beyond the scoring
        dtype's range gives a non-finite L1, silently: callers check it."""
        x = np.asarray(windows_raw)
        want = x.shape[:1] + (self.config.window_len, self.config.n_signals)
        if x.shape != want:
            raise InputError(f"window batch shape {x.shape} does not match model {want}")
        B, D = x.shape[0], self.config.latent_size
        e = None if eps is None else np.ascontiguousarray(eps, dtype=self.dtype)
        if e is not None and e.shape != (B, D):
            raise InputError(f"eps shape {e.shape} does not match ({B}, {D})")
        with np.errstate(over="ignore", invalid="ignore"):
            return _forward_l1(self.normalize(x), *self._weights, e)

    def l1_error(self, window_raw: np.ndarray, eps=None) -> float:
        """`l1_errors` of one raw (T_W, N) window, with eps (D,) or None."""
        e = None if eps is None else np.asarray(eps)[None]
        return float(self.l1_errors(np.asarray(window_raw)[None], e)[0])

    def warm_up(self):
        """Score one all-zero window before any timed region, so first-call
        costs (allocation, BLAS start-up) do not land in the first timed
        verdict. perfbench/launcher.py traces it as `fastpath.warm_up`."""
        dummy = np.zeros((self.config.window_len, self.config.n_signals))
        self.l1_error(dummy)


class WindowsInFlight:
    """The LSTM states of the overlapping windows of one frame stream: the
    stream's part of `_forward_l1`, split at the same seams.

    With window T_W and stride T_S, window j starts at frame j * T_S and
    keeps its (1, H) state between blocks in slot row j % slots of one
    (rows, 1, H) array, slots = ceil(T_W / T_S): a slot's previous owner
    has ended when the next one starts. `advance` projects a block of F
    frames in one call and feeds them in waves, one `lstm_step` over every
    row per wave. A window open at the block's first frame keeps its slot
    row and takes frame w at wave w; a window that starts later in the
    block, at frame a, gets a zeroed row of its own after the slot rows
    and takes frame a + w. So a block costs as many steps as the most
    frames any window takes from it, at most min(F, T_W). A row is copied
    out at the wave of its last frame in the block: a completed window's
    state for `l1_errors` (`_tail_l1`), and a started window's state for
    its slot at the block's end. Every product is the gemv per frame or per row
    that the batch kernel makes, so a window scores bit for bit what
    `ScoringRuntime.l1_error` gives for the same frames. A value beyond
    the scoring dtype's range makes the rows it reaches non-finite until
    they restart, under the caller's np.errstate.
    """

    def __init__(self, runtime: ScoringRuntime, window_len: int, stride: int):
        dt, N, H = runtime.dtype, runtime.config.n_signals, runtime.config.hidden_size
        self.count = 0  # frames fed so far
        self._T = (window_len, stride, -(-window_len // stride))
        self._runtime = runtime
        w_x, self._w_h, b_g, *self._tail = runtime._weights
        self._proj = w_x, b_g
        # Normalized frames from frame `_first` on: the last T_W before the
        # block, then the block; shifted to the front when a block overruns.
        self._hist, self._first = np.zeros((2 * window_len, N), dtype=dt), -window_len
        self._no_windows = np.empty((0, window_len, N), dtype=dt)
        self._h = self._c = np.zeros((self._T[2], 1, H), dtype=dt)
        self._grow(self._T[2])

    def _grow(self, rows: int):
        """Room for `rows` rows, the slot rows first, their states kept."""
        slots = self._T[2]
        h, c = np.zeros((2, rows) + self._h.shape[1:], dtype=self._h.dtype)
        h[:slots], c[:slots] = self._h[:slots], self._c[:slots]
        # Each completed window is a row, so B <= rows final states fit in `_out`.
        self._h, self._c, self._tc, self._out = h, c, np.empty_like(h), np.empty_like(h)
        self._acts = np.empty(h.shape[:-1] + (4 * h.shape[-1],), dtype=h.dtype)
        self._steps = {}  # `_step`s by row count

    def _step(self, r: int):
        """`lstm_step`'s operands over the first r rows, made once per r."""
        step = self._steps[r] = _step_operands(self._acts[:r], self._h[:r], self._c[:r],
                                                self._tc[:r], self._w_h)
        return step

    def advance(self, frames_raw: np.ndarray):
        """Feed raw frames (F, N). Returns the final states (B, 1, H) and
        the normalized frames (B, T_W, N) of the B windows they complete,
        in window order, both valid until the next call."""
        T_W, T_S, slots = self._T
        c0, F = self.count, len(frames_raw)
        end = self.count = c0 + F
        xn = self._runtime.normalize(frames_raw)
        xp = _project(xn, *self._proj)
        if end - self._first > len(self._hist):
            kept = self._hist[c0 - T_W - self._first : c0 - self._first]
            if len(self._hist) < T_W + F:
                self._hist = np.empty((T_W + F,) + xn.shape[1:], dtype=xn.dtype)
            self._hist[:T_W], self._first = kept, c0 - T_W
        self._hist[c0 - self._first : end - self._first] = xn
        done = range(max(0, (c0 - T_W) // T_S + 1), (end - T_W) // T_S + 1)
        later = range(c0 // T_S + 1, (end - 1) // T_S + 1)  # windows that start after c0
        if c0 % T_S == 0:
            self._h[c0 // T_S % slots] = self._c[c0 // T_S % slots] = 0.0
        # `outs` and `keeps` map a wave to the rows to copy out after it:
        # (row, index into hs) for a completed window, (row, its slot) for
        # a window that started in the block and runs on.
        outs, keeps, kept = {}, {}, []
        # A slot row whose window runs past the block takes all F frames.
        waves = F if later.start > max(done.start, done.stop) else 0
        for b, j in enumerate(done):
            r, last = ((j % slots, j * T_S + T_W - c0 - 1) if j < later.start
                       else (slots + j - later.start, T_W - 1))
            outs.setdefault(last, []).append((r, b))
            waves = max(waves, last + 1)
        if later:
            if len(self._h) < slots + len(later):
                self._grow(slots + len(later))
            self._h[slots:] = self._c[slots:] = 0.0
            offs = [j * T_S - c0 for j in later]  # row slots + i takes frame offs[i] + w
            for r, a in enumerate(offs, slots):
                if a + T_W > F:
                    keeps.setdefault(F - a - 1, []).append((r, (c0 + a) // T_S % slots))
                    waves = max(waves, F - a)
            frame_at = np.add.outer(np.arange(waves), [0] * slots + offs)
        h, c, hs = self._h, self._c, self._out[: len(done)]
        step = self._steps.get(slots + len(later)) or self._step(slots + len(later))
        acts = step[0]
        for w in range(waves):
            if later:
                np.take(xp, frame_at[w], axis=0, out=acts, mode="clip")
            else:
                acts[...] = xp[w]
            lstm_step(*step)
            if w in outs:
                for r, b in outs[w]:
                    hs[b] = h[r]
            if w in keeps:
                kept += [(s, h[r].copy(), c[r].copy()) for r, s in keeps[w]]
        for s, h_s, c_s in kept:
            h[s], c[s] = h_s, c_s
        if not done:
            return hs, self._no_windows
        o = done.start * T_S - self._first  # the first completed window's first frame
        if len(done) == 1:
            return hs, self._hist[None, o : o + T_W]
        return hs, self._hist[np.add.outer(range(o, o + len(done) * T_S, T_S), range(T_W))]

    def l1_errors(self, h: np.ndarray, windows: np.ndarray, eps=None) -> np.ndarray:
        """L1 errors (B,) of windows that `advance` completed, from their
        final states h (B, 1, H) and normalized frames (B, T_W, N), with
        eps (B, D) or None."""
        e = None if eps is None else np.asarray(eps, dtype=h.dtype)
        return _tail_l1(h, windows, *self._tail, e)
