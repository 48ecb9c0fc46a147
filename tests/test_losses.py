"""Loss terms against hand-computed values and gradient-flow rules."""

import numpy as np
import pytest

import flowad.autodiff as ad
from flowad.errors import InputError
from flowad.losses import (
    loss_adversarial_g,
    loss_discriminator,
    loss_generator,
    loss_mse,
    loss_sparsity,
)
from flowad.model import (
    ENCODER_PARAM_NAMES,
    ModelConfig,
    build_flow_masks,
    generator_forward,
    init_discriminator,
    init_generator,
)


def _cfg(**kw):
    base = dict(n_signals=3, window_len=8, hidden_size=5, latent_size=4,
                flow_layers=2, made_hidden=6, disc_widths=(6,))
    base.update(kw)
    return ModelConfig(**base)


def _const_disc(cfg, p):
    """Discriminator that outputs probability p for every input."""
    params = {k: np.zeros_like(v)
              for k, v in init_discriminator(cfg, np.random.default_rng(0)).items()}
    params["disc_out_b"] = np.array([np.log(p / (1.0 - p))])
    return params


def _val(x):
    return float(x.data) if isinstance(x, ad.Tensor) else float(x)


def test_mse_hand_case():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    r = ad.Tensor(np.ones((2, 2)))
    assert _val(loss_mse(w, r)) == 14.0  # 0 + 1 + 4 + 9


def test_mse_shape_mismatch():
    with pytest.raises(InputError):
        loss_mse(np.zeros((2, 2)), ad.Tensor(np.zeros((3, 2))))


def test_sparsity_hand_case():
    params = {name: np.zeros(2) for name in ENCODER_PARAM_NAMES}
    params["mu_w"] = np.array([1.0, -2.0])
    params["flow0_dec_w"] = np.array([10.0])  # outside encoder coverage
    val = loss_sparsity(params, lam=0.5)
    assert _val(val) == pytest.approx(1.5)  # 0.5 * (1 + 2)


def test_sparsity_include_flow_widens_coverage():
    params = {name: np.zeros(2) for name in ENCODER_PARAM_NAMES}
    params["flow0_dec_w"] = np.array([10.0])
    assert _val(loss_sparsity(params, 0.5, include_flow=True)) == pytest.approx(5.0)


def test_sparsity_lam_zero_and_negative():
    params = {name: np.ones(2) for name in ENCODER_PARAM_NAMES}
    assert loss_sparsity(params, 0.0) == 0.0
    with pytest.raises(InputError):
        loss_sparsity(params, -0.1)


def test_adversarial_hand_case():
    cfg = _cfg()
    disc = _const_disc(cfg, 0.8)
    z = np.random.default_rng(1).standard_normal((1, 4))
    val = _val(loss_adversarial_g(z, disc, cfg, beta=2.0))
    assert val == pytest.approx(2.0 * -np.log(0.8), rel=1e-9)


def test_adversarial_beta_zero_is_zero():
    cfg = _cfg()
    disc = _const_disc(cfg, 0.3)
    z = np.zeros((1, 4))
    assert _val(loss_adversarial_g(z, disc, cfg, beta=0.0)) == 0.0


def test_discriminator_hand_case_both_eighty():
    # D(z)=0.8 for everything: L_D = 1/2 [-ln 0.8 - ln 0.2]
    cfg = _cfg()
    disc = _const_disc(cfg, 0.8)
    rng = np.random.default_rng(2)
    val = _val(loss_discriminator(rng.standard_normal((5, 4)),
                                  rng.standard_normal((5, 4)), disc, cfg))
    expect = 0.5 * (-np.log(0.8) - np.log(0.2))
    assert val == pytest.approx(expect, rel=1e-9)
    assert val == pytest.approx(0.916290731874155, rel=1e-9)


def test_discriminator_at_half_is_ln2():
    cfg = _cfg()
    disc = _const_disc(cfg, 0.5)
    z = np.random.default_rng(3).standard_normal((4, 4))
    assert _val(loss_discriminator(z, z.copy(), disc, cfg)) == pytest.approx(np.log(2.0), rel=1e-12)


def test_bce_clamp_keeps_loss_finite():
    cfg = _cfg()
    disc = init_discriminator(cfg, np.random.default_rng(4))
    # saturate the discriminator with a huge bias either way
    disc["disc_out_b"] = np.array([1e4])
    z = np.random.default_rng(5).standard_normal((3, 4))
    val = _val(loss_discriminator(z, z.copy(), disc, cfg))
    assert np.isfinite(val)
    assert val <= 0.5 * (-np.log(1 - 1e-7) - np.log(1e-7)) + 1e-9


def test_generator_total_decomposes():
    cfg = _cfg()
    rng = np.random.default_rng(6)
    gen = init_generator(cfg, rng)
    disc = init_discriminator(cfg, rng)
    masks = build_flow_masks(cfg)
    w = rng.standard_normal((2, 8, 3))
    lp = generator_forward(w, gen, masks, cfg, eps=rng.standard_normal((2, 4)))
    total, parts = loss_generator(lp, w, gen, disc, cfg, lam=1e-3, beta=0.5)
    assert _val(total) == pytest.approx(parts.mse + parts.sparsity + parts.adversarial,
                                        rel=1e-12)
    assert parts.mse > 0 and parts.sparsity > 0 and parts.adversarial > 0


def test_generator_batch_mse_is_per_window_mean():
    cfg = _cfg()
    rng = np.random.default_rng(7)
    gen = init_generator(cfg, rng)
    disc = init_discriminator(cfg, rng)
    masks = build_flow_masks(cfg)
    w = rng.standard_normal((4, 8, 3))
    lp = generator_forward(w, gen, masks, cfg)
    _, parts = loss_generator(lp, w, gen, disc, cfg, lam=0.0, beta=0.0)
    singles = []
    for i in range(4):
        lpi = generator_forward(w[i : i + 1], gen, masks, cfg)
        _, pi = loss_generator(lpi, w[i : i + 1], gen, disc, cfg, lam=0.0, beta=0.0)
        singles.append(pi.mse)
    assert parts.mse == pytest.approx(np.mean(singles), rel=1e-12)


def test_sparsity_switch_in_config_disables_term():
    cfg = _cfg(use_sparsity=False)
    rng = np.random.default_rng(8)
    gen = init_generator(cfg, rng)
    disc = init_discriminator(cfg, rng)
    masks = build_flow_masks(cfg)
    w = rng.standard_normal((1, 8, 3))
    lp = generator_forward(w, gen, masks, cfg)
    _, parts = loss_generator(lp, w, gen, disc, cfg, lam=1.0, beta=0.0)
    assert parts.sparsity == 0.0


def test_discriminator_loss_leaves_generator_untouched():
    """The frozen z_K enters as plain data: the backward pass reaches
    only discriminator parameters."""
    cfg = _cfg()
    rng = np.random.default_rng(9)
    gen = init_generator(cfg, rng)
    disc = init_discriminator(cfg, rng)
    masks = build_flow_masks(cfg)
    w = rng.standard_normal((3, 8, 3))

    def d_loss(disc_params):
        lp = generator_forward(w, gen, masks, cfg)  # gen as plain ndarrays
        zk = np.asarray(lp.zk)
        return loss_discriminator(rng.standard_normal((3, 4)), zk, disc_params, cfg)

    _, grads = ad.value_and_grad(d_loss, disc)
    assert set(grads) == set(disc)
    assert any(np.abs(g).max() > 0 for g in grads.values())


def test_generator_loss_gradient_reaches_all_arrays():
    cfg = _cfg()
    rng = np.random.default_rng(10)
    gen = init_generator(cfg, rng)
    disc = init_discriminator(cfg, rng)
    masks = build_flow_masks(cfg)
    w = rng.standard_normal((2, 8, 3))
    eps = rng.standard_normal((2, 4))

    def g_loss(params):
        lp = generator_forward(w, params, masks, cfg, eps=eps)
        total, _ = loss_generator(lp, w, params, disc, cfg, lam=1e-3, beta=0.5)
        return total

    _, grads = ad.value_and_grad(g_loss, gen)
    for name, g in grads.items():
        assert np.abs(g).max() > 0, f"no gradient reached {name}"
