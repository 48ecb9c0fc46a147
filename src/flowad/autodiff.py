"""Reverse-mode automatic differentiation over numpy arrays.

Implements exactly the primitive set the window models need: matrix
products, broadcasting elementwise arithmetic, exp/log/tanh/sigmoid/
relu/abs, clipping, reshape, full-array sums, and one fused LSTM
over a whole sequence with hand-written backprop through time.
Training runs in float64 throughout; every Tensor coerces to float64.

The free functions (matmul, exp, ...) dispatch on their arguments:
given Tensors they record onto the graph, given plain ndarrays they
fall through to numpy. Model code written against them therefore runs
unchanged in differentiable and plain modes, and any plain-ndarray
operand acts as a constant (no gradient flows into it), which is how
detached values are expressed.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import NonFiniteError

# Re-run mode: when set, every op validates its output (and backward
# every gradient) so the op that produced a non-finite value can be
# named. Off by default; value_and_grad flips it only to localize a
# failure it already observed, so the fast path pays nothing.
_CHECK = False


class Tensor:
    """Node in the computation graph; wraps a float64 ndarray."""

    # Keep numpy from consuming Tensor operands elementwise in mixed
    # expressions; ops on Tensors go through the free functions below.
    __array_ufunc__ = None
    __slots__ = ("data", "grad", "_op", "_parents", "_backward")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._op = "leaf"
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(op={self._op!r}, shape={self.data.shape})"


def _raw(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _make(data, op, parents, backward) -> Tensor:
    if _CHECK and not np.all(np.isfinite(data)):
        raise NonFiniteError(op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    out._parents = parents
    out._backward = backward
    return out


def _acc(t: Tensor, g: np.ndarray):
    # Copy on first write: g may alias the child's grad buffer.
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- binary primitives ---------------------------------------------------


def add(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return np.add(a, b)
    ad, bd = _raw(a), _raw(b)
    out = ad + bd

    def backward(g):
        if ta:
            _acc(a, _unbroadcast(g, ad.shape))
        if tb:
            _acc(b, _unbroadcast(g, bd.shape))

    return _make(out, "add", (a, b), backward)


def sub(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return np.subtract(a, b)
    ad, bd = _raw(a), _raw(b)
    out = ad - bd

    def backward(g):
        if ta:
            _acc(a, _unbroadcast(g, ad.shape))
        if tb:
            _acc(b, _unbroadcast(-g, bd.shape))

    return _make(out, "sub", (a, b), backward)


def mul(a, b):
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return np.multiply(a, b)
    ad, bd = _raw(a), _raw(b)
    out = ad * bd

    def backward(g):
        if ta:
            _acc(a, _unbroadcast(g * bd, ad.shape))
        if tb:
            _acc(b, _unbroadcast(g * ad, bd.shape))

    return _make(out, "mul", (a, b), backward)


def matmul(a, b):
    """Matrix product for the shapes the model uses:
    (m,)@(m,n), (B,m)@(m,n), and (m,n)@(n,)."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return np.matmul(a, b)
    ad, bd = _raw(a), _raw(b)
    if ad.ndim == 2 and bd.ndim == 1:
        out = ad @ bd

        def backward(g):
            if ta:
                _acc(a, np.outer(g, bd))
            if tb:
                _acc(b, ad.T @ g)

        return _make(out, "matmul", (a, b), backward)
    if bd.ndim != 2 or ad.ndim not in (1, 2):
        raise ValueError(f"unsupported matmul shapes {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def backward(g):
        if ad.ndim == 1:
            if ta:
                _acc(a, bd @ g)
            if tb:
                _acc(b, np.outer(ad, g))
        else:
            if ta:
                _acc(a, g @ bd.T)
            if tb:
                _acc(b, ad.T @ g)

    return _make(out, "matmul", (a, b), backward)


# -- unary primitives ----------------------------------------------------


def neg(x):
    if not isinstance(x, Tensor):
        return np.negative(x)

    def backward(g):
        _acc(x, -g)

    return _make(-x.data, "neg", (x,), backward)


def exp(x):
    if not isinstance(x, Tensor):
        return np.exp(x)
    out = np.exp(x.data)

    def backward(g):
        _acc(x, g * out)

    return _make(out, "exp", (x,), backward)


def log(x):
    if not isinstance(x, Tensor):
        return np.log(x)
    out = np.log(x.data)

    def backward(g):
        _acc(x, g / x.data)

    return _make(out, "log", (x,), backward)


def tanh(x):
    if not isinstance(x, Tensor):
        return np.tanh(x)
    out = np.tanh(x.data)

    def backward(g):
        _acc(x, g * (1.0 - out * out))

    return _make(out, "tanh", (x,), backward)


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    # Two-branch form: never exponentiates a positive argument.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    if not isinstance(x, Tensor):
        return _sigmoid_stable(np.asarray(x, dtype=np.float64))
    out = _sigmoid_stable(x.data)

    def backward(g):
        _acc(x, g * out * (1.0 - out))

    return _make(out, "sigmoid", (x,), backward)


def relu(x):
    if not isinstance(x, Tensor):
        return np.maximum(x, 0.0)
    out = np.maximum(x.data, 0.0)

    def backward(g):
        _acc(x, g * (x.data > 0.0))

    return _make(out, "relu", (x,), backward)


def absolute(x):
    # Subgradient at 0 is taken as 0 (np.sign(0) == 0).
    if not isinstance(x, Tensor):
        return np.abs(x)
    out = np.abs(x.data)

    def backward(g):
        _acc(x, g * np.sign(x.data))

    return _make(out, "abs", (x,), backward)


def clip(x, lo: float, hi: float):
    if not isinstance(x, Tensor):
        return np.clip(x, lo, hi)
    out = np.clip(x.data, lo, hi)

    def backward(g):
        _acc(x, g * ((x.data >= lo) & (x.data <= hi)))

    return _make(out, "clip", (x,), backward)


def sum_all(x):
    if not isinstance(x, Tensor):
        return np.sum(x)
    out = np.sum(x.data)

    def backward(g):
        _acc(x, np.full(x.data.shape, float(g)))

    return _make(np.asarray(out), "sum", (x,), backward)


def reshape(x, shape):
    if not isinstance(x, Tensor):
        return np.reshape(x, shape)
    old = x.data.shape
    out = x.data.reshape(shape)

    def backward(g):
        _acc(x, g.reshape(old))

    return _make(out, "reshape", (x,), backward)


# -- fused LSTM ------------------------------------------------------------


def lstm_steps(acts: np.ndarray, w_h: np.ndarray):
    """The LSTM recurrence that training (`lstm`) and scoring
    (`fastpath._forward_l1`) both run, over time-major pre-activations.

    acts is (T, ..., 4H): each step's input projection plus bias, with
    the gates [i|f|o|g]; w_h is the (H, 4H) recurrent weight. The middle
    axes decide the products: (T, B, 4H) makes one gemm per step, and
    (T, B, 1, 4H) one gemv per row, so a row's states do not depend on B.
    The states keep acts' dtype, and acts is overwritten with the gate
    activations. Returns (hs, cs, tcs): hs and cs are (T+1, ..., H) and
    start at the zero state, and tcs (T, ..., H) is tanh(cs[1:]).
    """
    T, H = acts.shape[0], acts.shape[-1] // 4
    # sigma(v) = (1 + tanh(v/2)) / 2, so one tanh covers all 4H gates; the
    # halving of the i/f/o columns is exact (a power of two).
    sig = acts[..., : 3 * H]
    sig *= 0.5
    w_h = np.concatenate([w_h[:, : 3 * H] * 0.5, w_h[:, 3 * H :]], axis=1)
    hs = np.zeros((T + 1,) + acts.shape[1:-1] + (H,), dtype=acts.dtype)
    cs = np.zeros_like(hs)
    tcs = np.empty_like(hs[1:])
    i, f, o, u = (acts[..., k * H : (k + 1) * H] for k in range(4))  # u: the g gate
    # The loop is bound by per-call overhead: its views are made once, zipped.
    for a, s, i_t, f_t, o_t, u_t, h, h_next, c, c_next, tc in zip(
        acts, sig, i, f, o, u, hs[:-1], hs[1:], cs[:-1], cs[1:], tcs
    ):
        a += h @ w_h
        np.tanh(a, out=a)
        s *= 0.5
        s += 0.5
        np.multiply(f_t, c, out=c_next)
        c_next += i_t * u_t
        np.tanh(c_next, out=tc)
        np.multiply(o_t, tc, out=h_next)
    return hs, cs, tcs


def lstm(x, w, b, hidden: int):
    """Final hidden state (B, H) of an LSTM over the constant input x.

    x is (B, T, n); w is (n+H, 4H) with the input rows first; b is (4H,);
    the gate layout is [i|f|o|g]. The whole sequence is one graph node:
    the forward pass is `lstm_steps`, which keeps every step's activations,
    and the backward pass runs backprop through time over them, ending in
    one product each for the input rows, the recurrent rows and the bias.
    Given plain ndarrays it returns an ndarray and records nothing.
    """
    tw, tb = isinstance(w, Tensor), isinstance(b, Tensor)
    xd, wd, bd = _raw(x), _raw(w), _raw(b)
    B, T, n = xd.shape
    H = hidden
    xs = xd.transpose(1, 0, 2).reshape(T * B, n)
    acts = (xs @ wd[:n] + bd).reshape(T, B, 4 * H)
    hs, cs, tcs = lstm_steps(acts, wd[n:])
    out = hs[T]
    if not (tw or tb):
        return out

    def backward(g):
        i, f = acts[..., :H], acts[..., H : 2 * H]
        o, u = acts[..., 2 * H : 3 * H], acts[..., 3 * H :]  # u: the g gate
        # dA starts as each gate's local factor d(gate)/d(pre-activation)
        # times what multiplies it; the step loop scales it by dc or dh.
        dA = np.empty_like(acts)
        dA[..., :H] = u * i * (1.0 - i)
        dA[..., H : 2 * H] = cs[:-1] * f * (1.0 - f)
        dA[..., 2 * H : 3 * H] = tcs * o * (1.0 - o)
        dA[..., 3 * H :] = i * (1.0 - u * u)
        dc_dh = o * (1.0 - tcs * tcs)
        dA4 = dA.reshape(T, B, 4, H)
        w_hT = wd[n:].T
        dh = np.array(g, dtype=np.float64)
        dc = np.zeros((B, H))
        for t in reversed(range(T)):
            dc += dh * dc_dh[t]
            d = dA4[t]
            d[:, :2] *= dc[:, None]
            d[:, 2] *= dh
            d[:, 3] *= dc
            np.matmul(dA[t], w_hT, out=dh)
            dc *= f[t]
        dA2 = dA.reshape(T * B, 4 * H)
        if tw:
            gw = np.empty_like(wd)
            np.matmul(xs.T, dA2, out=gw[:n])
            np.matmul(hs[:-1].reshape(T * B, H).T, dA2, out=gw[n:])
            _acc(w, gw)
        if tb:
            _acc(b, dA2.sum(axis=0))

    return _make(out, "lstm", (w, b), backward)


# -- backward driver -----------------------------------------------------


def _topo(root: Tensor) -> list[Tensor]:
    """Parents-before-children order over the graph reaching root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if isinstance(p, Tensor) and id(p) not in seen:
                stack.append((p, False))
    return order


def _run_backward(root: Tensor, check: bool = False):
    root.grad = np.ones_like(root.data)
    order = _topo(root)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        node._backward(node.grad)
        if check:
            for p in node._parents:
                if (
                    isinstance(p, Tensor)
                    and p.grad is not None
                    and not np.all(np.isfinite(p.grad))
                ):
                    raise NonFiniteError(node._op, "backward")


def _wrap_leaves(params: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v) for k, v in params.items()}


def _locate_nonfinite(fn, params, has_aux):
    """Re-run fn with per-op checking to name the offending op."""
    global _CHECK
    _CHECK = True
    try:
        out = fn(_wrap_leaves(params))
        if has_aux:
            out = out[0]
        _run_backward(out, check=True)
    finally:
        _CHECK = False


def value_and_grad(fn: Callable, params: Mapping[str, np.ndarray], has_aux: bool = False):
    """Evaluate a scalar loss and its gradients w.r.t. a parameter map.

    fn receives a dict mapping the same names to leaf Tensors and must
    return a scalar Tensor (or, with has_aux, a (scalar Tensor, aux)
    pair; aux passes through untouched). Returns (value, grads) or
    ((value, aux), grads); grads maps every parameter name to a float64
    array of the parameter's shape, with zeros for unused parameters.

    A non-finite loss or gradient triggers a checked re-run that raises
    NonFiniteError naming the op that produced the first bad value.
    """
    for name, p in params.items():
        if not np.all(np.isfinite(p)):
            raise NonFiniteError(f"parameter '{name}'")
    leaves = _wrap_leaves(params)
    out = fn(leaves)
    aux = None
    if has_aux:
        out, aux = out
    if not isinstance(out, Tensor):
        raise TypeError("loss function must return a Tensor")
    if out.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {out.data.shape}")
    value = out.data.item()
    _run_backward(out)
    grads = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in leaves.items()
    }
    bad = not np.isfinite(value) or any(
        not np.all(np.isfinite(g)) for g in grads.values()
    )
    if bad:
        _locate_nonfinite(fn, params, has_aux)
        raise NonFiniteError("unlocated non-determinism")
    if has_aux:
        return (value, aux), grads
    return value, grads
