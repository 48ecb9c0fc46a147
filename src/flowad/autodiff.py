"""Reverse-mode automatic differentiation over numpy arrays.

Implements exactly the primitive set the window models need: matrix
products, broadcasting elementwise arithmetic, exp/log/sigmoid/
relu/abs, clipping, reshape, full-array sums, and one fused LSTM
over a whole sequence with hand-written backprop through time.
Training runs in float64 throughout; every Tensor coerces to float64.

Each elementwise or matrix primitive is one call to `_binary` or
`_unary` naming its numpy function and its VJPs. Given plain ndarrays
the helpers return that function's result unchanged; given a Tensor
they record one node on the graph. Model code written against the free
functions therefore runs unchanged in differentiable and plain modes,
and any plain-ndarray operand acts as a constant (no gradient flows
into it), which is how detached values are expressed. matmul records
only (B, m) @ (m, n), the one product the model makes.

A tape is walked once: as backward reaches each interior node it runs
the node's VJPs and then drops its gradient, closure and parent links,
so the arrays the node saved are freed while the walk goes on instead of
when `value_and_grad` returns.
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


# -- primitives ------------------------------------------------------------
# A VJP maps the output's gradient g and the operands' data (for unary
# ops, also the output) to one operand's gradient.


def _binary(name, fn, da, db, a, b):
    """fn(a, b); with a Tensor operand, the node whose backward pass sends
    each Tensor operand its VJP, da(g, a, b) or db(g, a, b), summed down
    to the operand's shape."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return fn(a, b)
    ad, bd = _raw(a), _raw(b)

    def backward(g):
        if ta:
            _acc(a, _unbroadcast(da(g, ad, bd), ad.shape))
        if tb:
            _acc(b, _unbroadcast(db(g, ad, bd), bd.shape))

    return _make(fn(ad, bd), name, (a, b), backward)


def _unary(name, fn, dx, x):
    """fn(x); with a Tensor x, the node whose backward pass sends x its
    VJP dx(g, x, out)."""
    if not isinstance(x, Tensor):
        return fn(x)
    xd = x.data
    out = fn(xd)

    def backward(g):
        _acc(x, dx(g, xd, out))

    return _make(out, name, (x,), backward)


def add(a, b):
    return _binary("add", np.add, lambda g, a, b: g, lambda g, a, b: g, a, b)


def sub(a, b):
    return _binary("sub", np.subtract, lambda g, a, b: g, lambda g, a, b: -g, a, b)


def mul(a, b):
    return _binary("mul", np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a, a, b)


def matmul(a, b):
    """Matrix product. The tape records only (B, m) @ (m, n), the one
    shape the model makes; plain operands go to np.matmul as they are."""
    if (isinstance(a, Tensor) or isinstance(b, Tensor)) and not _raw(a).ndim == _raw(b).ndim == 2:
        raise ValueError(f"unsupported matmul shapes {_raw(a).shape} @ {_raw(b).shape}")
    return _binary("matmul", np.matmul, lambda g, a, b: g @ b.T, lambda g, a, b: a.T @ g, a, b)


def neg(x):
    return _unary("neg", np.negative, lambda g, x, out: -g, x)


def exp(x):
    return _unary("exp", np.exp, lambda g, x, out: g * out, x)


def log(x):
    return _unary("log", np.log, lambda g, x, out: g / x, x)


def _sigmoid_stable(x) -> np.ndarray:
    # Two-branch form: never exponentiates a positive argument.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    return _unary("sigmoid", _sigmoid_stable, lambda g, x, out: g * out * (1.0 - out), x)


def relu(x):
    return _unary("relu", lambda v: np.maximum(v, 0.0), lambda g, x, out: g * (x > 0.0), x)


def absolute(x):
    # Subgradient at 0 is taken as 0 (np.sign(0) == 0).
    return _unary("abs", np.abs, lambda g, x, out: g * np.sign(x), x)


def clip(x, lo: float, hi: float):
    return _unary("clip", lambda v: np.clip(v, lo, hi),
                  lambda g, x, out: g * ((x >= lo) & (x <= hi)), x)


def sum_all(x):
    return _unary("sum", np.sum, lambda g, x, out: np.full(x.shape, float(g)), x)


def reshape(x, shape):
    return _unary("reshape", lambda v: np.reshape(v, shape),
                  lambda g, x, out: g.reshape(x.shape), x)


# -- fused LSTM ------------------------------------------------------------


def halve_gates(w: np.ndarray) -> np.ndarray:
    """A copy of w (..., 4H) with its i/f/o columns halved, the scaling
    that `lstm_step` expects of its pre-activations and recurrent weight.

    sigma(v) = (1 + tanh(v/2)) / 2, so with the sigmoid gates' weights
    and bias halved once, one tanh covers all 4H gates. Halving is exact
    (a power of two): x @ halve_gates(w) equals halve_gates(x @ w) bit for
    bit.
    """
    out = np.array(w)
    out[..., : 3 * (out.shape[-1] // 4)] *= 0.5
    return out


def lstm_gates(acts: np.ndarray):
    """Views of pre-activations acts (..., 4H), gate layout [i|f|o|g]: the
    sigmoid gates [i|f|o] together, then i, f, o and g one by one."""
    H = acts.shape[-1] // 4
    return (acts[..., : 3 * H],) + tuple(acts[..., k * H : (k + 1) * H] for k in range(4))


def lstm_step(a, s, i, f, o, u, h, c, h_next, c_next, tc, w_h, half):
    """One LSTM step, in place, over the rows of a (..., 4H).

    a holds the step's halved input pre-activations (`halve_gates`), and
    s, i, f, o, u are its `lstm_gates` views; a is overwritten with the
    gate activations. h, c are the incoming states (..., H); h_next,
    c_next receive the new ones and may be h, c themselves; tc receives
    tanh(c_next). w_h is the halved (H, 4H) recurrent weight, and half a
    0-d array 0.5 of a's dtype (cheaper per call than a Python float).
    Shaped (B, 1, 4H), every product is one gemv per row, so a row's
    result does not depend on the rows beside it.
    """
    a += h @ w_h
    np.tanh(a, out=a)
    s *= half
    s += half
    np.multiply(f, c, out=c_next)
    c_next += i * u
    np.tanh(c_next, out=tc)
    np.multiply(o, tc, out=h_next)


def lstm(x, w, b, hidden: int):
    """Final hidden state (B, H) of an LSTM over the constant input x.

    x is (B, T, n); w is (n+H, 4H) with the input rows first; b is (4H,);
    the gate layout is [i|f|o|g]. The whole sequence is one graph node:
    the forward pass runs `lstm_step` time-major, keeping every step's
    activations and states, and the backward pass runs backprop through
    time over them, ending in one product each for the input rows, the
    recurrent rows and the bias.
    The backward pass builds the gates' local factors in place, over the
    saved activations, tanh(c) and cells, so it runs once, as the tape
    guarantees (`_run_backward`).
    Given plain ndarrays it returns an ndarray and records nothing.
    """
    tw, tb = isinstance(w, Tensor), isinstance(b, Tensor)
    xd, wd, bd = _raw(x), _raw(w), _raw(b)
    B, T, n = xd.shape
    H = hidden
    xs = xd.transpose(1, 0, 2).reshape(T * B, n)
    w_half = halve_gates(wd)
    acts = xs @ w_half[:n]
    acts += halve_gates(bd)
    acts = acts.reshape(T, B, 4 * H)
    # hs, cs run from the zero state; tcs is tanh(cs[1:]).
    hs, cs = np.zeros((2, T + 1, B, H))
    tcs = np.empty((T, B, H))
    w_h, half = w_half[n:], np.array(0.5)
    # The loop is bound by per-call overhead: its views are made once, zipped.
    for a, s, i, f, o, u, h, h_next, c, c_next, tc in zip(
        acts, *lstm_gates(acts), hs[:-1], hs[1:], cs[:-1], cs[1:], tcs
    ):
        lstm_step(a, s, i, f, o, u, h, c, h_next, c_next, tc, w_h, half)
    out = hs[T]
    if not (tw or tb):
        return out

    def backward(g):
        i, f = acts[..., :H], acts[..., H : 2 * H]
        o, u = acts[..., 2 * H : 3 * H], acts[..., 3 * H :]  # u: the g gate

        def factor(gate, partner):
            # gate <- (partner * gate) * (1 - gate), consuming partner.
            partner *= gate
            np.subtract(1.0, gate, out=gate)
            gate *= partner

        # dA, written over acts gate by gate, starts as each gate's local
        # factor d(gate)/d(pre-activation) times what multiplies it; the
        # step loop scales it by dc or dh. Once tanh(c) and the previous
        # cells are consumed, they hold f and the g gate's factor, so
        # dc_dh is the one new (T, B, H) array.
        dc_dh = np.multiply(tcs, tcs)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        factor(o, tcs)
        f_t = tcs
        f_t[...] = f
        factor(f, cs[:-1])
        du = cs[:-1]
        np.multiply(u, u, out=du)
        np.subtract(1.0, du, out=du)
        du *= i
        factor(i, u)
        u[...] = du
        dA = acts
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
            dc *= f_t[t]
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
    while order:
        node = order.pop()
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
        node.grad = node._backward = None
        node._parents = ()


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

    The tape is single-use: backward releases every intermediate node as
    it goes, so only the leaves' gradients (and aux) outlive the call.

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
