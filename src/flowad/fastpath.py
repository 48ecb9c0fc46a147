"""Scoring runtime for calibration, evaluation, detection, and benchmarks.

Inference runs in 32-bit by default: parameters are cast once, the LSTM's
sigmoid-gate columns are halved once (`autodiff.halve_gates`), flow masks
are folded into the MADE weights, and one fused numpy kernel,
`_forward_l1`, performs normalize -> encode -> flow -> decode -> L1. It is
three parts: `_project` (each frame's input projection), the recurrence
`autodiff.lstm_steps`, which the training tape's LSTM op also runs, and
`_tail_l1` (heads, eps, flow, decoder, L1). It is vectorized over the
hidden units, which keeps one window within the acceptance latency bound
(criterion 8) without a compiler, and it sums the L1 in float64.

The contract is batch-first, and `ScoringRuntime.l1_errors` is its one
entry point: it scores a (B, T, N) batch, as calibration and evaluation
do, and `l1_error` is the same call at B=1. The kernel takes the whole
batch in one call: one (1, N) @ (N, 4H) gemv per frame, then one gemv per
window for every later product. So row b of a batch equals the
single-window result bit for bit, at every B.

`WindowsInFlight` is the same kernel cut at the same seams for a stream:
it projects each frame once as it arrives, runs `autodiff.lstm_step` over
the LSTM states of every window still in flight, and runs `_tail_l1` when
a window completes. It makes the very products the batch kernel makes, so
streamed and batch scoring of the same window are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import halve_gates, lstm_gates, lstm_step, lstm_steps
from .data import NormStats
from .errors import InputError
from .model import ModelConfig, build_flow_masks


def _project(x, w_x, b_g):
    """Gate pre-activations (..., 1, 4H) of normalized frames x (..., N):
    one (1, N) @ (N, 4H) gemv per frame, whether the frame rides in a
    batch of windows or arrives alone in the stream."""
    xp = np.matmul(x[..., None, :], w_x)
    xp += b_g
    return xp


def _tail_l1(h, x, mu_w, mu_b, lv_w, lv_b, enc_w, enc_b, dec_w, dec_b, alpha_e,
             d1_w, d1_b, d2_w, d2_b, eps):
    """The kernel after the recurrence: heads -> eps -> flow -> decoder ->
    L1, from the final hidden states h (..., 1, H) of the normalized
    windows x (..., T, N), with eps (..., D); returns the (...) errors.

    Every product is `matmul(state, W)` with the state shaped (..., 1, K),
    which numpy serves with one gemv per window.
    """
    lead = x.shape[:-2]
    z = np.matmul(h, mu_w)
    z += mu_b
    eps = eps.reshape(lead + (1, -1))
    nz = eps != 0.0
    if nz.any():
        lv = np.matmul(h, lv_w)
        lv += lv_b
        z[nz] += np.exp(0.5 * lv[nz]) * eps[nz]
    for k in range(enc_w.shape[0]):
        hid = np.maximum(np.matmul(z, enc_w[k]) + enc_b[k], 0.0)
        z = z * alpha_e + (np.matmul(hid, dec_w[k]) + dec_b[k])
    d1 = np.maximum(np.matmul(z, d1_w) + d1_b, 0.0)
    flat = np.matmul(d1, d2_w) + d2_b
    flat -= x.reshape(flat.shape)
    np.abs(flat, out=flat)
    return flat.astype(np.float64).sum(axis=-1).reshape(lead)


def _forward_l1(x, w_x, w_h, b_g, *tail):
    """L1 between each normalized window of x (..., T, N) and its
    reconstruction; `tail` is `_tail_l1`'s weights, then eps (..., D).
    w_x, w_h and b_g come with their i/f/o columns halved (`halve_gates`).
    Returns the (...) errors.

    Each frame is projected alone (`_project`) and the recurrence runs
    time-major with each window's state shaped (1, H), so every product
    is one gemv per frame or per window: a window's result does not
    depend on the batch it rides in.
    """
    xp = _project(x, w_x, b_g)
    h = lstm_steps(np.moveaxis(xp, -3, 0), w_h)[0][-1]
    return _tail_l1(h, x, *tail)


BACKEND = "numpy"


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
        n, D, Hm = config.n_signals, config.latent_size, config.made_hidden
        dt = self.dtype
        cast = lambda arr: np.ascontiguousarray(arr, dtype=dt)
        K = config.flow_layers if config.use_flow else 0
        enc_w, enc_b = np.zeros((K, D, Hm), dtype=dt), np.zeros((K, Hm), dtype=dt)
        dec_w, dec_b = np.zeros((K, Hm, D), dtype=dt), np.zeros((K, D), dtype=dt)
        if K > 0:
            m_enc, m_dec = build_flow_masks(config)
            for k in range(K):
                # Fold the masks into the weights once.
                enc_w[k] = a[f"flow{k}_enc_w"] * m_enc
                enc_b[k] = a[f"flow{k}_enc_b"]
                dec_w[k] = a[f"flow{k}_dec_w"] * m_dec
                dec_b[k] = a[f"flow{k}_dec_b"]
        # The kernel's arguments between the window and eps, in order.
        # The LSTM's sigmoid-gate columns come halved (`halve_gates`).
        self._weights = (
            halve_gates(cast(a["lstm_w"][:n])), halve_gates(cast(a["lstm_w"][n:])),
            halve_gates(cast(a["lstm_b"])),
            cast(a["mu_w"]), cast(a["mu_b"]), cast(a["logvar_w"]), cast(a["logvar_b"]),
            enc_w, enc_b, dec_w, dec_b, dt.type(math.exp(config.alpha_const)),
            cast(a["dec1_w"]), cast(a["dec1_b"]), cast(a["dec2_w"]), cast(a["dec2_b"]),
        )
        self._mean = np.ascontiguousarray(norm_stats.mean, dtype=np.float64)
        self._std = np.ascontiguousarray(norm_stats.std, dtype=np.float64)
        self.norm_stats = norm_stats

    @classmethod
    def from_checkpoint(cls, ckpt, dtype=np.float32) -> "ScoringRuntime":
        return cls(ckpt.config, ckpt.generator.arrays, ckpt.norm_stats, dtype=dtype)

    def normalize(self, window_raw: np.ndarray) -> np.ndarray:
        x = (np.asarray(window_raw, dtype=np.float64) - self._mean) / self._std
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
        if eps is None:
            e = np.zeros((B, D), dtype=self.dtype)
        else:
            e = np.ascontiguousarray(eps, dtype=self.dtype)
            if e.shape != (B, D):
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
    """The LSTM states of k overlapping windows of one frame stream, a
    (1, H) row each in one (k, 1, H) array, all advanced one frame at a
    time: the stream's part of `_forward_l1`, split at the same seams.

    `advance` projects each frame once, as `_project` does inside a batch,
    and runs one `lstm_step` over all k rows, one gemv per row; `l1` runs
    `_tail_l1` on one row. So a window whose row was `restart`ed at its
    first frame scores bit for bit what `ScoringRuntime.l1_error` gives
    for the same frames. A value beyond the scoring dtype's range makes
    the rows it reaches non-finite, silently, until they restart.
    """

    def __init__(self, runtime: ScoringRuntime, k: int):
        dt, H = runtime.dtype, runtime.config.hidden_size
        self._runtime = runtime
        w_x, w_h, b_g, *self._tail = runtime._weights
        self._proj = (w_x, b_g)
        self._acts = np.empty((k, 1, 4 * H), dtype=dt)
        self._h = np.zeros((k, 1, H), dtype=dt)
        self._c = np.zeros_like(self._h)
        # `lstm_step`'s operands, built once; the states update in place.
        self._step = (self._acts, *lstm_gates(self._acts), self._h, self._c, self._h,
                      self._c, np.empty_like(self._h), w_h, np.array(0.5, dtype=dt))
        self._zero_eps = np.zeros((1, runtime.config.latent_size), dtype=dt)

    def restart(self, row: int):
        """Zero row `row`'s state: its window starts with the next frame."""
        self._h[row] = 0.0
        self._c[row] = 0.0

    def advance(self, frame_raw: np.ndarray) -> np.ndarray:
        """Advance every row by the raw frame (N,); returns it normalized."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = self._runtime.normalize(frame_raw)
            self._acts[...] = _project(x, *self._proj)
            lstm_step(*self._step)
        return x

    def l1(self, row: int, x: np.ndarray, eps=None) -> float:
        """L1 error of the window whose state is row `row`, with x its
        normalized (T, N) frames and eps (D,) or None."""
        e = self._zero_eps if eps is None else np.asarray(eps, dtype=self._h.dtype)[None]
        with np.errstate(over="ignore", invalid="ignore"):
            return float(_tail_l1(self._h[row : row + 1], x[None], *self._tail, e)[0])
