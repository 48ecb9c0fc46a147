"""Scoring runtime for calibration, evaluation, detection, and benchmarks.

Inference runs in 32-bit by default: parameters are cast once, flow
masks are folded into the MADE weights, and one fused kernel performs
normalize -> encode -> flow -> decode -> L1. Two kernels implement that
contract. With numba installed, the scalar loop `_forward_l1` is jitted
(set FLOWAD_NO_NUMBA=1 to opt out); otherwise `_forward_l1_numpy` runs
the same maths vectorized over the hidden units, which keeps one window
within the acceptance latency bound (criterion 8) without a compiler.
Both sum the L1 in float64.

The contract is batch-first, and `ScoringRuntime.l1_errors` is its one
entry point: it scores a (B, T, N) batch, as calibration and evaluation
do, and `l1_error` is the same call at B=1, as the stream needs. The
batch kernel is selected once at import. The numpy kernel takes the
whole batch in one call (one input-projection gemm per window, then one
gemv per window for every later product), while the numba build loops
the rows over the jitted scalar loop. Either way row b of a batch equals
the single-window result bit for bit, at every B, so streamed and batch
scoring of the same window are bit-identical.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .data import NormStats
from .errors import InputError
from .model import ModelConfig, build_flow_masks

_USE_NUMBA = os.environ.get("FLOWAD_NO_NUMBA", "") != "1"
if _USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        _USE_NUMBA = False


def _forward_l1(x, w_x, w_h, b_g, mu_w, mu_b, lv_w, lv_b,
                enc_w, enc_b, dec_w, dec_b, alpha_e,
                d1_w, d1_b, d2_w, d2_b, eps):
    """L1 between the normalized window x (T, N) and its reconstruction;
    the scalar loop that numba compiles."""
    T, n = x.shape
    H = b_g.shape[0] // 4
    h = np.zeros(H, dtype=x.dtype)
    c = np.zeros(H, dtype=x.dtype)
    for t in range(T):
        g = b_g + np.dot(x[t], w_x) + np.dot(h, w_h)
        for a in range(H):
            # Stable sigmoid: never exponentiate a positive argument.
            v = g[a]
            if v >= 0.0:
                i_g = 1.0 / (1.0 + math.exp(-v))
            else:
                ev = math.exp(v)
                i_g = ev / (1.0 + ev)
            v = g[H + a]
            if v >= 0.0:
                f_g = 1.0 / (1.0 + math.exp(-v))
            else:
                ev = math.exp(v)
                f_g = ev / (1.0 + ev)
            v = g[2 * H + a]
            if v >= 0.0:
                o_g = 1.0 / (1.0 + math.exp(-v))
            else:
                ev = math.exp(v)
                o_g = ev / (1.0 + ev)
            u_g = math.tanh(g[3 * H + a])
            c[a] = f_g * c[a] + i_g * u_g
            h[a] = o_g * math.tanh(c[a])
    z = mu_b + np.dot(h, mu_w)
    lv = lv_b + np.dot(h, lv_w)
    for d in range(z.shape[0]):
        if eps[d] != 0.0:
            z[d] = z[d] + math.exp(0.5 * lv[d]) * eps[d]
    for k in range(enc_w.shape[0]):
        hid = np.dot(z, enc_w[k]) + enc_b[k]
        for u in range(hid.shape[0]):
            if hid[u] < 0.0:
                hid[u] = 0.0
        mu_k = np.dot(hid, dec_w[k]) + dec_b[k]
        z = z * alpha_e + mu_k
    d1 = np.dot(z, d1_w) + d1_b
    for u in range(d1.shape[0]):
        if d1[u] < 0.0:
            d1[u] = 0.0
    flat = np.dot(d1, d2_w) + d2_b
    total = 0.0
    idx = 0
    for t in range(T):
        for j in range(n):
            total += abs(flat[idx] - x[t, j])
            idx += 1
    return total


def _forward_l1_numpy(x, w_x, w_h, b_g, mu_w, mu_b, lv_w, lv_b,
                      enc_w, enc_b, dec_w, dec_b, alpha_e,
                      d1_w, d1_b, d2_w, d2_b, eps):
    """`_forward_l1` vectorized over the hidden units and over any leading
    batch shape: x is (..., T, N), eps (..., D); returns the (...) errors.

    Every product after the input projection is `matmul(state, W)` with
    the state shaped (..., 1, K), which numpy serves with one gemv per
    window, so a window's result does not depend on the batch it rides in.
    """
    lead = x.shape[:-2]
    H = b_g.shape[0] // 4
    H3 = 3 * H
    dt = x.dtype
    xp = np.matmul(x, w_x)  # one (T, N) @ (N, 4H) gemm per window
    xp += b_g
    # The step loop is bound by per-call overhead: it works in place on
    # buffers and views made once, with constants as 0-d arrays.
    h = np.zeros(lead + (1, H), dtype=dt)
    c = np.zeros_like(h)
    u = np.empty_like(h)
    g = np.empty(lead + (1, 4 * H), dtype=dt)
    v, g_u = g[..., :H3], g[..., H3:]
    s = np.empty_like(v)
    den = np.empty_like(v)
    pos = np.empty(v.shape, dtype=bool)
    s_i, s_f, s_o = s[..., :H], s[..., H : 2 * H], s[..., 2 * H :]
    zero, one = np.zeros((), dtype=dt), np.ones((), dtype=dt)
    for xp_t in np.moveaxis(xp[..., None, :], -3, 0):
        np.matmul(h, w_h, out=g)
        g += xp_t
        # Stable sigmoid: never exponentiate a positive argument.
        np.greater_equal(v, zero, out=pos)
        np.abs(v, out=s)
        np.negative(s, out=s)
        np.exp(s, out=s)
        np.add(s, one, out=den)
        np.copyto(s, one, where=pos)
        np.divide(s, den, out=s)
        np.tanh(g_u, out=u)
        u *= s_i
        c *= s_f
        c += u
        np.tanh(c, out=h)
        h *= s_o
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


if _USE_NUMBA:
    BACKEND = "numba"
    _forward_l1_jit = njit(cache=True, fastmath=False)(_forward_l1)

    def _forward_l1_kernel(x, *weights_and_eps):
        """The batch contract over the jitted single-window loop: row b
        of x (B, T, N) with row b of eps (B, D)."""
        *weights, eps = weights_and_eps
        return np.array([_forward_l1_jit(x[b], *weights, eps[b]) for b in range(len(x))],
                        dtype=np.float64)
else:
    BACKEND = "numpy"
    _forward_l1_kernel = _forward_l1_numpy


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
        n, H, D = config.n_signals, config.hidden_size, config.latent_size
        dt = self.dtype
        cast = lambda arr: np.ascontiguousarray(arr, dtype=dt)
        self._w_x = cast(a["lstm_w"][:n])
        self._w_h = cast(a["lstm_w"][n:])
        self._b_g = cast(a["lstm_b"])
        self._mu_w = cast(a["mu_w"])
        self._mu_b = cast(a["mu_b"])
        self._lv_w = cast(a["logvar_w"])
        self._lv_b = cast(a["logvar_b"])
        K = config.flow_layers if config.use_flow else 0
        Hm = config.made_hidden
        self._enc_w = np.zeros((K, D, Hm), dtype=dt)
        self._enc_b = np.zeros((K, Hm), dtype=dt)
        self._dec_w = np.zeros((K, Hm, D), dtype=dt)
        self._dec_b = np.zeros((K, D), dtype=dt)
        if K > 0:
            m_enc, m_dec = build_flow_masks(config)
            for k in range(K):
                # Fold the masks into the weights once.
                self._enc_w[k] = cast(a[f"flow{k}_enc_w"] * m_enc)
                self._enc_b[k] = cast(a[f"flow{k}_enc_b"])
                self._dec_w[k] = cast(a[f"flow{k}_dec_w"] * m_dec)
                self._dec_b[k] = cast(a[f"flow{k}_dec_b"])
        self._alpha_e = dt.type(math.exp(config.alpha_const))
        self._d1_w = cast(a["dec1_w"])
        self._d1_b = cast(a["dec1_b"])
        self._d2_w = cast(a["dec2_w"])
        self._d2_b = cast(a["dec2_b"])
        # The kernel's arguments between the window and eps, in order.
        self._weights = (
            self._w_x, self._w_h, self._b_g, self._mu_w, self._mu_b, self._lv_w, self._lv_b,
            self._enc_w, self._enc_b, self._dec_w, self._dec_b, self._alpha_e,
            self._d1_w, self._d1_b, self._d2_w, self._d2_b,
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
        does not depend on B, bit for bit."""
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
        return _forward_l1_kernel(self.normalize(x), *self._weights, e)

    def l1_error(self, window_raw: np.ndarray, eps=None) -> float:
        """`l1_errors` of one raw (T_W, N) window, with eps (D,) or None."""
        e = None if eps is None else np.asarray(eps)[None]
        return float(self.l1_errors(np.asarray(window_raw)[None], e)[0])

    def warm_up(self):
        """Trigger JIT compilation outside any timed region."""
        dummy = np.zeros((self.config.window_len, self.config.n_signals))
        self.l1_error(dummy)
