"""Gradient and optimizer correctness against closed-form and
finite-difference oracles."""

import re

import numpy as np
import pytest

import flowad.autodiff as ad
from conftest import lstm_states, traced_peak
from flowad.errors import InputError, NonFiniteError
from flowad.losses import loss_generator
from flowad.model import (
    ModelConfig,
    build_flow_masks,
    generator_forward,
    init_discriminator,
    init_generator,
)
from flowad.optim import AdamWState, adamw_init, adamw_step
from flowad.training import TrainConfig, lr_schedule


def _tanh(x):
    """tanh as a tape primitive, for the reference models below: the
    library's LSTM is one fused op and records no tanh of its own."""
    if not isinstance(x, ad.Tensor):
        return np.tanh(x)
    out = np.tanh(x.data)

    def backward(g):
        ad._acc(x, g * (1.0 - out * out))

    return ad._make(out, "tanh", (x,), backward)


def _finite_diff_check(fn, params, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference grads.

    Error per coordinate is |analytic - central| / max(|analytic|,
    |central|, 1e-12); the maximum over every coordinate of every
    parameter is returned.
    """
    _, grads = ad.value_and_grad(fn, params)
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    def value() -> float:
        return fn({k: ad.Tensor(v) for k, v in work.items()}).data.item()

    worst = 0.0
    for name in params:
        flat = work[name].ravel()
        gflat = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = value()
            flat[i] = orig - step
            down = value()
            flat[i] = orig
            central = (up - down) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(central), 1e-12)
            err = abs(gflat[i] - central) / denom
            if err > worst:
                worst = err
    return worst


def test_square_hand_case():
    # d(x^2)/dx = 2x
    val, grads = ad.value_and_grad(
        lambda p: ad.mul(p["x"], p["x"]), {"x": np.array(3.0)}
    )
    assert val == 9.0
    assert grads["x"] == 6.0


def test_abs_hand_case_and_zero_convention():
    val, grads = ad.value_and_grad(lambda p: ad.absolute(p["x"]), {"x": np.array(-2.0)})
    assert val == 2.0
    assert grads["x"] == -1.0
    # subgradient at 0 is fixed to 0 so L1 terms cannot kick a zeroed weight
    _, grads = ad.value_and_grad(lambda p: ad.absolute(p["x"]), {"x": np.array(0.0)})
    assert grads["x"] == 0.0


def test_linear_least_squares_fd():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4, 1))
    y = rng.standard_normal((3, 1))

    def f(p):
        r = ad.sub(ad.matmul(p["W"], v), y)
        return ad.sum_all(ad.mul(r, r))

    err = _finite_diff_check(f, {"W": rng.standard_normal((3, 4))}, step=1e-5)
    assert err < 1e-4


def test_linear_model_fd_is_tight():
    # derivative of a linear map is exact, so only rounding remains
    rng = np.random.default_rng(1)
    v = rng.standard_normal((5, 1))

    def f(p):
        return ad.sum_all(ad.matmul(p["W"], v))

    err = _finite_diff_check(f, {"W": rng.standard_normal((2, 5))}, step=1e-5)
    assert err < 1e-8


SMOOTH_PRIMITIVES = [
    ("exp", lambda t: ad.exp(t), lambda r: 0.5 * r),
    ("log", lambda t: ad.log(t), lambda r: np.abs(r) + 0.5),
    ("tanh", lambda t: _tanh(t), lambda r: r),
    ("sigmoid", lambda t: ad.sigmoid(t), lambda r: r),
    ("neg", lambda t: ad.neg(t), lambda r: r),
]


@pytest.mark.parametrize("name,op,domain", SMOOTH_PRIMITIVES, ids=lambda p: p if isinstance(p, str) else "")
def test_primitive_fd_100_trials(name, op, domain):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        x = domain(rng.standard_normal((3, 4)))

        def f(p):
            return ad.sum_all(ad.mul(op(p["x"]), rng_weights))

        rng_weights = rng.standard_normal((3, 4))
        worst = max(worst, _finite_diff_check(f, {"x": x}, step=1e-6))
    assert worst < 1e-4, f"{name}: {worst}"


def test_kinked_primitives_fd_away_from_kinks():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        x = rng.standard_normal((4, 3))
        x = np.where(np.abs(x) < 0.05, 0.2, x)  # keep clear of the kink at 0
        w = rng.standard_normal((4, 3))

        def f_relu(p):
            return ad.sum_all(ad.mul(ad.relu(p["x"]), w))

        def f_abs(p):
            return ad.sum_all(ad.mul(ad.absolute(p["x"]), w))

        def f_clip(p):
            return ad.sum_all(ad.mul(ad.clip(p["x"], -0.9, 0.9), w))

        x_clip = np.where(np.abs(np.abs(x) - 0.9) < 0.05, 0.5, x)
        worst = max(
            worst,
            _finite_diff_check(f_relu, {"x": x}, step=1e-6),
            _finite_diff_check(f_abs, {"x": x}, step=1e-6),
            _finite_diff_check(f_clip, {"x": x_clip}, step=1e-6),
        )
    assert worst < 1e-4


def test_matmul_shapes_and_broadcast_bias():
    rng = np.random.default_rng(3)
    params = {
        "W": rng.standard_normal((4, 5)),
        "b": rng.standard_normal(5),
        "x": rng.standard_normal((2, 4)),
    }

    def batched(p):
        out = ad.add(ad.matmul(p["x"], p["W"]), p["b"])  # (2,5) + (5,)
        return ad.sum_all(ad.mul(out, out))

    def bias_first(p):
        out = ad.sub(p["b"], ad.matmul(p["x"], p["W"]))  # (5,) - (2,5)
        return ad.sum_all(ad.mul(out, out))

    assert _finite_diff_check(batched, params, step=1e-5) < 1e-4
    assert _finite_diff_check(bias_first, params, step=1e-5) < 1e-4


@pytest.mark.parametrize("shapes", [((4,), (4, 5)), ((3, 4), (4,))])
def test_matmul_rejects_a_1d_tensor_operand(shapes):
    a, b = (np.ones(s) for s in shapes)
    for operands in [(ad.Tensor(a), b), (a, ad.Tensor(b))]:
        with pytest.raises(ValueError, match=rf"{re.escape(str(shapes[0]))} @ "
                                             rf"{re.escape(str(shapes[1]))}"):
            ad.matmul(*operands)
    assert np.array_equal(ad.matmul(a, b), np.matmul(a, b))  # plain operands are not checked


_X = np.random.default_rng(7).standard_normal((3, 4))
# Every primitive, with float64 operands that keep its domain.
_PRIMITIVES = {
    "add": (ad.add, (_X, _X[0])),
    "sub": (ad.sub, (_X, _X[0])),
    "mul": (ad.mul, (_X, _X[0])),
    "matmul": (ad.matmul, (_X, _X.T)),
    "neg": (ad.neg, (_X,)),
    "exp": (ad.exp, (_X,)),
    "log": (ad.log, (np.abs(_X) + 0.5,)),
    "sigmoid": (ad.sigmoid, (_X,)),
    "relu": (ad.relu, (_X,)),
    "absolute": (ad.absolute, (_X,)),
    "clip": (lambda x: ad.clip(x, -0.5, 0.5), (_X,)),
    "sum_all": (ad.sum_all, (_X,)),
    "reshape": (lambda x: ad.reshape(x, (4, 3)), (_X,)),
}


@pytest.mark.parametrize("name", list(_PRIMITIVES))
def test_plain_inputs_give_the_recorded_value_bit_for_bit(name):
    op, args = _PRIMITIVES[name]
    plain = op(*args)
    recorded = op(*(ad.Tensor(a) for a in args))
    assert isinstance(recorded, ad.Tensor) and recorded._parents
    assert type(plain) is type(recorded.data)
    assert plain.dtype == recorded.data.dtype == np.float64
    assert plain.shape == recorded.data.shape
    assert plain.tobytes() == recorded.data.tobytes()
    if name == "sum_all":
        assert not isinstance(plain, np.ndarray)  # a numpy scalar, not a 0-d array


def test_reshape_grads():
    rng = np.random.default_rng(4)
    params = {"a": rng.standard_normal((2, 6))}
    weights = rng.standard_normal((4, 3))

    def f(p):
        flat = ad.reshape(p["a"], (4, 3))
        return ad.sum_all(ad.mul(ad.mul(flat, flat), weights))

    assert _finite_diff_check(f, params, step=1e-5) < 1e-4


# -- fused LSTM ----------------------------------------------------------------


def _lstm_case(B, T, n, H, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((B, T, n))
    w = rng.uniform(-0.5, 0.5, (n + H, 4 * H))
    b = rng.uniform(-0.5, 0.5, 4 * H)
    return x, w, b, rng.standard_normal((B, H))


def _reference_lstm(x, p, H):
    """The same LSTM from tape primitives, one parameter leaf per gate."""
    h = np.zeros((x.shape[0], H))
    c = np.zeros((x.shape[0], H))
    for t in range(x.shape[1]):
        pre = {
            k: ad.add(ad.add(ad.matmul(x[:, t], p[f"wx_{k}"]), ad.matmul(h, p[f"wh_{k}"])),
                      p[f"b_{k}"])
            for k in "ifog"
        }
        i, f, o = (ad.sigmoid(pre[k]) for k in "ifo")
        c = ad.add(ad.mul(f, c), ad.mul(i, _tanh(pre["g"])))
        h = ad.mul(o, _tanh(c))
    return h


def test_lstm_fd():
    x, w, b, r = _lstm_case(B=3, T=5, n=2, H=3, seed=6)

    def f(p):
        return ad.sum_all(ad.mul(ad.lstm(x, p["w"], p["b"], 3), r))

    assert _finite_diff_check(f, {"w": w, "b": b}, step=1e-6) < 1e-4


@pytest.mark.parametrize("B", [1, 5])
def test_lstm_matches_primitive_reference(B):
    n, H = 4, 3
    x, w, b, r = _lstm_case(B=B, T=20, n=n, H=H, seed=7 + B)
    gate = {k: slice(j * H, (j + 1) * H) for j, k in enumerate("ifog")}
    split = {}
    for k, cols in gate.items():
        split[f"wx_{k}"] = w[:n, cols]
        split[f"wh_{k}"] = w[n:, cols]
        split[f"b_{k}"] = b[cols]

    val, grads = ad.value_and_grad(
        lambda p: ad.sum_all(ad.mul(ad.lstm(x, p["w"], p["b"], H), r)), {"w": w, "b": b}
    )
    ref_val, ref_grads = ad.value_and_grad(
        lambda p: ad.sum_all(ad.mul(_reference_lstm(x, p, H), r)), split
    )

    def rel(a, ref):
        return np.max(np.abs(a - ref)) / np.max(np.abs(ref))

    assert abs(val - ref_val) <= 1e-12 * abs(ref_val)
    for k, cols in gate.items():
        assert rel(grads["w"][:n, cols], ref_grads[f"wx_{k}"]) < 1e-12
        assert rel(grads["w"][n:, cols], ref_grads[f"wh_{k}"]) < 1e-12
        assert rel(grads["b"][cols], ref_grads[f"b_{k}"]) < 1e-12


def test_lstm_plain_mode_matches_tensor_mode_bitwise():
    x, w, b, _ = _lstm_case(B=4, T=9, n=3, H=5, seed=8)
    plain = ad.lstm(x, w, b, 5)
    taped = ad.lstm(x, ad.Tensor(w), ad.Tensor(b), 5)
    assert isinstance(plain, np.ndarray) and isinstance(taped, ad.Tensor)
    assert np.array_equal(plain, taped.data)


def _out_of_place_lstm(x, w, b, hidden):
    """The fused LSTM op with its backward pass written out of place: the
    gate factors go to a fresh array and the saved activations stay as
    the forward pass left them. The reference for `ad.lstm`'s bits."""
    xd, wd, bd = x, w.data, b.data
    B, T, n = xd.shape
    H = hidden
    xs = xd.transpose(1, 0, 2).reshape(T * B, n)
    w_half = ad.halve_gates(wd)
    acts = (xs @ w_half[:n] + ad.halve_gates(bd)).reshape(T, B, 4 * H)
    hs, cs, tcs = lstm_states(acts, w_half[n:])

    def backward(g):
        i, f = acts[..., :H], acts[..., H : 2 * H]
        o, u = acts[..., 2 * H : 3 * H], acts[..., 3 * H :]
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
        gw = np.empty_like(wd)
        np.matmul(xs.T, dA2, out=gw[:n])
        np.matmul(hs[:-1].reshape(T * B, H).T, dA2, out=gw[n:])
        ad._acc(w, gw)
        ad._acc(b, dA2.sum(axis=0))

    return ad._make(hs[T], "lstm", (w, b), backward)


@pytest.mark.parametrize("B", [1, 8, 32])
def test_lstm_gradients_match_the_out_of_place_backward_bitwise(B):
    # The default model's sizes: 12 signals, 150 steps, hidden 24. The
    # fused backward builds its gate factors in place, over arrays the
    # forward saved, so it peaks below two (T, B, H) float64 arrays; the
    # slack covers the gradients and the step loop's (B, H) temporaries.
    cfg = ModelConfig(n_signals=12, window_len=150)
    T, H = 150, cfg.hidden_size
    rng = np.random.default_rng(30 + B)
    params = {k: v for k, v in init_generator(cfg, rng).items() if k.startswith("lstm_")}
    x = rng.standard_normal((B, T, 12))
    r = rng.standard_normal((B, H))
    grads, peaks = {}, {}
    for name, op in (("fused", ad.lstm), ("reference", _out_of_place_lstm)):
        w, b = ad.Tensor(params["lstm_w"]), ad.Tensor(params["lstm_b"])
        peaks[name] = traced_peak(op(x, w, b, H)._backward, r)
        grads[name] = w.grad, b.grad
    for k, fused, reference in zip(("lstm_w", "lstm_b"), grads["fused"], grads["reference"]):
        assert fused.tobytes() == reference.tobytes(), k
    assert peaks["fused"] < 2 * T * B * H * 8 + 256 * 1024


def test_value_and_grad_releases_the_tape_as_backward_runs():
    # One generator step at the default size and B=32 peaks within twice
    # what the LSTM op saves for backward (acts, hs, cs, tanh(cs), xs),
    # since every other node is freed once backward has passed it.
    cfg = ModelConfig(n_signals=12, window_len=150)
    B, T, n, H = 32, 150, 12, cfg.hidden_size
    rng = np.random.default_rng(33)
    gen, disc = init_generator(cfg, rng), init_discriminator(cfg, rng)
    masks = build_flow_masks(cfg)
    wins = rng.standard_normal((B, T, n))
    eps = rng.standard_normal((B, cfg.latent_size))

    def loss(p):
        lp = generator_forward(wins, p, masks, cfg, eps)
        return loss_generator(lp, wins, p, disc, cfg, 1e-4, 0.5)[0]

    ad.value_and_grad(loss, gen)
    saved = 8 * (T * B * 4 * H + 2 * (T + 1) * B * H + T * B * H + T * B * n)
    assert traced_peak(ad.value_and_grad, loss, gen) <= 2 * saved


def test_lstm_step_keeps_float32():
    x, w, b, _ = _lstm_case(B=3, T=6, n=2, H=4, seed=10)
    w, b = ad.halve_gates(w), ad.halve_gates(b)
    acts = (x.transpose(1, 0, 2) @ w[:2] + b).astype(np.float32)
    states = lstm_states(acts, w[2:].astype(np.float32))
    assert acts.dtype == np.float32
    assert [s.dtype for s in states] == [np.float32] * 3
    assert [s.shape for s in states] == [(7, 3, 4), (7, 3, 4), (6, 3, 4)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_step_rows_do_not_depend_on_batch_size(dtype):
    # Shaped (T, B, 1, 4H), every product is one gemv per row.
    x, w, b, _ = _lstm_case(B=7, T=30, n=3, H=16, seed=11)
    w, b = ad.halve_gates(w), ad.halve_gates(b)
    acts = (x @ w[:3] + b).astype(dtype).transpose(1, 0, 2)[:, :, None, :]
    w_h = w[3:].astype(dtype)
    batch = lstm_states(acts.copy(), w_h)[0][-1]
    for row in range(7):
        alone = lstm_states(acts[:, row : row + 1].copy(), w_h)[0][-1]
        assert alone.tobytes() == batch[row : row + 1].tobytes(), row


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_halve_gates_commutes_with_the_projection_bitwise(dtype):
    # Halving is exact, so pre-halved weights give the halved products.
    x, w, b, _ = _lstm_case(B=5, T=40, n=3, H=6, seed=12)
    xs, w, b = x.reshape(-1, 3).astype(dtype), w[:3].astype(dtype), b.astype(dtype)
    halved = ad.halve_gates(w)
    assert halved.dtype == dtype and not np.shares_memory(halved, w)
    assert np.array_equal(halved[:, 18:], w[:, 18:])
    got = xs @ halved + ad.halve_gates(b)
    assert got.tobytes() == ad.halve_gates(xs @ w + b).tobytes()


def test_lstm_nonfinite_input_names_the_op():
    x, w, b, _ = _lstm_case(B=2, T=4, n=2, H=3, seed=9)
    x[1, 2, 0] = np.nan
    with pytest.raises(NonFiniteError) as exc:
        ad.value_and_grad(lambda p: ad.sum_all(ad.lstm(x, p["w"], p["b"], 3)),
                          {"w": w, "b": b})
    assert exc.value.op == "lstm"


def test_value_and_grad_untouched_leaf_gets_zero_grad():
    params = {"used": np.array(2.0), "unused": np.ones((3, 2))}
    _, grads = ad.value_and_grad(lambda p: ad.mul(p["used"], p["used"]), params)
    assert grads["unused"].shape == (3, 2)
    assert np.all(grads["unused"] == 0.0)


def test_value_and_grad_has_aux():
    def f(p):
        y = ad.mul(p["x"], p["x"])
        return y, {"note": 7}

    (val, aux), grads = ad.value_and_grad(f, {"x": np.array(2.0)}, has_aux=True)
    assert val == 4.0 and aux == {"note": 7} and grads["x"] == 4.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_diagnostic_names_op():
    def f(p):
        return ad.sum_all(ad.log(p["x"]))  # log of a negative entry

    with pytest.raises(NonFiniteError) as exc:
        ad.value_and_grad(f, {"x": np.array([1.0, -1.0])})
    assert "log" in str(exc.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_in_backward_is_reported():
    # forward survives (log(tiny) is finite) but 1/x in backward overflows
    def f(p):
        return ad.sum_all(ad.log(p["x"]))

    with pytest.raises(NonFiniteError):
        ad.value_and_grad(f, {"x": np.array([5e-324])})


def test_gradients_all_finite_on_deep_chain():
    rng = np.random.default_rng(5)
    params = {"W1": rng.standard_normal((6, 6)) * 0.3, "W2": rng.standard_normal((6, 1)) * 0.3}

    def f(p):
        h = _tanh(ad.matmul(rng_x, p["W1"]))
        out = ad.sigmoid(ad.matmul(h, p["W2"]))
        return ad.sum_all(out)

    rng_x = rng.standard_normal((4, 6))
    _, grads = ad.value_and_grad(f, params)
    for g in grads.values():
        assert np.all(np.isfinite(g))


# -- optimizer ----------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_identity():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = adamw_init(params, lr=0.1)
    state.m["w"][:] = 0.5
    state.v["w"][:] = 0.25
    before = params["w"].copy()
    adamw_step(params, {"w": np.zeros(3)}, state)
    # eps in the denominator keeps the update identically zero only when
    # the first moment is zero; with seeded moments they decay instead
    assert state.m["w"][0] == pytest.approx(0.45)
    assert state.v["w"][0] == pytest.approx(0.25 * 0.999)
    params2 = {"w": before.copy()}
    state2 = adamw_init(params2, lr=0.1)
    adamw_step(params2, {"w": np.zeros(3)}, state2)
    assert np.array_equal(params2["w"], before)


def test_adamw_first_step_magnitude_near_lr():
    params = {"w": np.array(0.0)}
    state = adamw_init(params, lr=0.01)
    adamw_step(params, {"w": np.array(3.7)}, state)
    # bias correction makes m-hat/sqrt(v-hat) = sign(g) up to eps
    assert abs(abs(float(params["w"])) - 0.01) < 1e-6
    assert float(params["w"]) < 0


def test_adamw_decoupled_decay_scales_param():
    params = {"w": np.array(2.0)}
    state = adamw_init(params, lr=0.1, weight_decay=0.5)
    adamw_step(params, {"w": np.array(0.0)}, state)
    assert float(params["w"]) == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_adamw_decay_exempt_names_not_decayed():
    params = {"w": np.array(2.0), "b": np.array(2.0)}
    state = adamw_init(params, lr=0.1, weight_decay=0.5, decay_exempt=("b",))
    adamw_step(params, {"w": np.array(0.0), "b": np.array(0.0)}, state)
    assert float(params["b"]) == 2.0
    assert float(params["w"]) == pytest.approx(1.9)


def test_adamw_shape_and_name_mismatch_errors():
    params = {"w": np.zeros(3)}
    state = adamw_init(params, lr=0.1)
    with pytest.raises(InputError):
        adamw_step(params, {"w": np.zeros(4)}, state)
    with pytest.raises(InputError):
        adamw_step(params, {"q": np.zeros(3)}, state)


def test_adamw_step_counter_increments():
    params = {"w": np.zeros(2)}
    state = adamw_init(params, lr=0.1)
    for i in range(3):
        adamw_step(params, {"w": np.ones(2)}, state)
        assert state.step == i + 1


def test_lr_schedule_hand_cases():
    cfg = TrainConfig(eta0=1e-3, gamma=0.1, milestones=(2, 12))
    assert lr_schedule(1, cfg) == pytest.approx(1e-3)
    assert lr_schedule(2, cfg) == pytest.approx(1e-4)
    assert lr_schedule(14, cfg) == pytest.approx(1e-5)


def test_lr_schedule_monotone_and_piecewise_constant():
    cfg = TrainConfig(eta0=0.05, gamma=0.5, milestones=(3, 7, 9))
    values = [lr_schedule(e, cfg) for e in range(12)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == values[1] == values[2]
    assert values[3] == values[4] == values[5] == values[6]
    assert values[7] == values[8]


def test_schedule_config_validation():
    with pytest.raises(InputError):
        TrainConfig(eta0=0.0, gamma=0.5, milestones=())
    with pytest.raises(InputError):
        TrainConfig(eta0=1e-3, gamma=1.5, milestones=())
    with pytest.raises(InputError):
        TrainConfig(eta0=1e-3, gamma=0.5, milestones=(5, 5))
