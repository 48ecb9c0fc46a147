"""Network forward passes, autoregressive masking, flow invertibility,
and checkpoint serialization."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowad.autodiff as ad
from flowad.checkpoint import load_checkpoint, save_checkpoint
from flowad.data import NormStats
from flowad.errors import FlowadError, InputError
from flowad.fastpath import ScoringRuntime
from flowad.losses import loss_generator
from flowad.masks import build_masks, validate_masks
from flowad.model import (
    ModelConfig,
    build_flow_masks,
    decode,
    discriminate,
    encode,
    generator_forward,
    init_discriminator,
    init_generator,
    made_forward,
    maf_forward,
    maf_inverse,
    reparameterize,
)


def _zeroed(params):
    return {k: np.zeros_like(v) for k, v in params.arrays.items()}


def _cfg(**kw):
    base = dict(n_signals=3, window_len=8, hidden_size=5, latent_size=4,
                flow_layers=2, made_hidden=6, disc_widths=(6,))
    base.update(kw)
    return ModelConfig(**base)


# -- config ------------------------------------------------------------------


def test_config_defaults_double_sizes():
    cfg = ModelConfig(n_signals=12, window_len=150)
    assert cfg.hidden_size == 24
    assert cfg.latent_size == 24
    assert cfg.made_hidden == 48
    assert cfg.disc_widths == (48, 48)
    assert cfg.flow_layers == 3


def test_config_round_trip():
    cfg = _cfg()
    assert ModelConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg


def test_config_validation():
    with pytest.raises(InputError):
        ModelConfig(n_signals=0, window_len=10)
    with pytest.raises(InputError):
        ModelConfig(n_signals=2, window_len=10, flow_layers=-1)
    with pytest.raises(InputError):
        ModelConfig(n_signals=2, window_len=10, alpha_const=-1.0)


# -- masks -------------------------------------------------------------------


@pytest.mark.parametrize("D,H", [(2, 3), (3, 6), (8, 16), (24, 48), (5, 2), (64, 64)])
def test_mask_product_strictly_lower_triangular(D, H):
    m_enc, m_dec = build_masks(D, H)
    conn = m_enc @ m_dec
    for j in range(D):
        for i in range(D):
            if j >= i:
                assert conn[j, i] == 0


def test_mask_latent_one_is_bias_only():
    m_enc, m_dec = build_masks(1, 4)
    assert not m_enc.any() and not m_dec.any()


def test_validate_masks_rejects_full_connectivity():
    with pytest.raises(FlowadError):
        validate_masks(np.ones((3, 4)), np.ones((4, 3)))


def test_validate_masks_rejects_incomposable_shapes():
    with pytest.raises(FlowadError):
        validate_masks(np.ones((3, 4)), np.ones((5, 3)))


# -- encoder -----------------------------------------------------------------


def test_encode_zero_network_gives_zero_heads():
    cfg = _cfg()
    params = _zeroed(init_generator(cfg, np.random.default_rng(0)))
    mu, logvar = encode(np.ones((8, 3)), params, cfg)
    assert np.array_equal(np.asarray(mu), np.zeros(4))
    assert np.array_equal(np.asarray(logvar), np.zeros(4))


def test_encode_deterministic_and_shape_checked():
    cfg = _cfg()
    params = init_generator(cfg, np.random.default_rng(1)).arrays
    w = np.random.default_rng(2).standard_normal((8, 3))
    a1, b1 = encode(w, params, cfg)
    a2, b2 = encode(w.copy(), params, cfg)
    assert np.array_equal(np.asarray(a1), np.asarray(a2))
    assert np.array_equal(np.asarray(b1), np.asarray(b2))
    with pytest.raises(InputError):
        encode(np.zeros((7, 3)), params, cfg)


def test_encode_batch_matches_single():
    cfg = _cfg()
    params = init_generator(cfg, np.random.default_rng(3)).arrays
    ws = np.random.default_rng(4).standard_normal((3, 8, 3))
    mu_b, lv_b = encode(ws, params, cfg)
    for i in range(3):
        mu_s, lv_s = encode(ws[i], params, cfg)
        assert np.allclose(np.asarray(mu_b)[i], np.asarray(mu_s), atol=1e-14)
        assert np.allclose(np.asarray(lv_b)[i], np.asarray(lv_s), atol=1e-14)


# -- reparameterization ------------------------------------------------------


def test_reparameterize_hand_cases():
    mu = np.array([1.0, 2.0])
    logvar = np.array([2 * np.log(0.5), 2 * np.log(2.0)])
    z = reparameterize(mu, logvar, np.array([2.0, -1.0]))
    assert np.allclose(np.asarray(z), [2.0, 0.0], atol=1e-15)
    # eps omitted -> exactly mu, bitwise
    assert reparameterize(mu, logvar, None) is mu
    # mu=0, logvar=0 -> z0 = eps
    eps = np.array([0.3, -0.7])
    z = reparameterize(np.zeros(2), np.zeros(2), eps)
    assert np.array_equal(np.asarray(z), eps)


# -- MADE / flow -------------------------------------------------------------


def test_made_last_input_never_matters():
    cfg = _cfg()
    params = init_generator(cfg, np.random.default_rng(5)).arrays
    m_enc, m_dec = build_flow_masks(cfg)
    z = np.random.default_rng(6).standard_normal(4)
    layer = (params["flow0_enc_w"], params["flow0_enc_b"],
             params["flow0_dec_w"], params["flow0_dec_b"])
    out1 = made_forward(z, *layer, m_enc, m_dec)
    z2 = z.copy()
    z2[-1] += 123.0
    out2 = made_forward(z2, *layer, m_enc, m_dec)
    assert np.array_equal(np.asarray(out1), np.asarray(out2))


def test_made_output0_is_bias_only():
    cfg = _cfg()
    params = init_generator(cfg, np.random.default_rng(7)).arrays
    m_enc, m_dec = build_flow_masks(cfg)
    layer = (params["flow0_enc_w"], params["flow0_enc_b"],
             params["flow0_dec_w"], params["flow0_dec_b"])
    rng = np.random.default_rng(8)
    outs = [np.asarray(made_forward(rng.standard_normal(4), *layer, m_enc, m_dec))[0]
            for _ in range(5)]
    assert all(o == outs[0] for o in outs)


def test_made_all_ones_jacobian_strictly_lower_triangular():
    D, H = 3, 6
    m_enc, m_dec = build_masks(D, H)
    ones_ew, ones_eb = np.ones((D, H)), np.ones(H)
    ones_dw, ones_db = np.ones((H, D)), np.ones(D)
    z = np.random.default_rng(9).standard_normal(D)
    h = 1e-6
    base = np.asarray(made_forward(z, ones_ew, ones_eb, ones_dw, ones_db, m_enc, m_dec))
    for j in range(D):
        zp = z.copy()
        zp[j] += h
        col = (np.asarray(made_forward(zp, ones_ew, ones_eb, ones_dw, ones_db, m_enc, m_dec)) - base) / h
        for i in range(D):
            if j >= i:
                assert abs(col[i]) < 1e-7


@pytest.mark.parametrize("D", [3, 8, 24])
def test_made_jacobian_random_params(D):
    rng = np.random.default_rng(D)
    H = 2 * D
    m_enc, m_dec = build_masks(D, H)
    for _ in range(5):
        ew = rng.standard_normal((D, H))
        eb = rng.standard_normal(H)
        dw = rng.standard_normal((H, D))
        db = rng.standard_normal(D)
        z = rng.standard_normal(D)
        base = np.asarray(made_forward(z, ew, eb, dw, db, m_enc, m_dec))
        h = 1e-6
        for j in range(D):
            zp = z.copy()
            zp[j] += h
            col = (np.asarray(made_forward(zp, ew, eb, dw, db, m_enc, m_dec)) - base) / h
            assert np.abs(col[: j + 1]).max() < 1e-7  # outputs 0..j must ignore input j


def test_maf_zero_mades_is_identity():
    cfg = _cfg()
    params = _zeroed(init_generator(cfg, np.random.default_rng(0)))
    masks = build_flow_masks(cfg)
    z = np.random.default_rng(1).standard_normal(4)
    out = np.asarray(maf_forward(z, params, masks, cfg))
    assert np.array_equal(out, z)


def test_maf_bias_only_layer_adds_bias():
    cfg = _cfg(flow_layers=1)
    params = _zeroed(init_generator(cfg, np.random.default_rng(0)))
    c = np.array([0.5, -1.0, 2.0, 0.25])
    params["flow0_dec_b"] = c.copy()
    masks = build_flow_masks(cfg)
    z = np.random.default_rng(2).standard_normal(4)
    out = np.asarray(maf_forward(z, params, masks, cfg))
    assert np.allclose(out, z + c, atol=1e-15)


def test_maf_alpha_one_zero_mades_scales_e_squared():
    cfg = _cfg(flow_layers=2, alpha_const=1.0)
    params = _zeroed(init_generator(cfg, np.random.default_rng(0)))
    masks = build_flow_masks(cfg)
    z = np.random.default_rng(3).standard_normal(4)
    out = np.asarray(maf_forward(z, params, masks, cfg))
    assert np.allclose(out, np.exp(2.0) * z, rtol=1e-12)


def test_maf_inverse_identity_flow():
    cfg = _cfg()
    params = _zeroed(init_generator(cfg, np.random.default_rng(0)))
    masks = build_flow_masks(cfg)
    z = np.random.default_rng(4).standard_normal(4)
    assert np.array_equal(maf_inverse(z, params, masks, cfg), z)


def test_maf_inverse_bias_only_subtracts_in_reverse():
    cfg = _cfg(flow_layers=2)
    params = _zeroed(init_generator(cfg, np.random.default_rng(0)))
    params["flow0_dec_b"] = np.array([1.0, 0.0, 0.0, 0.0])
    params["flow1_dec_b"] = np.array([0.0, 2.0, 0.0, 0.0])
    masks = build_flow_masks(cfg)
    z = np.zeros(4)
    fwd = np.asarray(maf_forward(z, params, masks, cfg))
    assert np.allclose(fwd, [1.0, 2.0, 0.0, 0.0], atol=1e-15)
    back = maf_inverse(fwd, params, masks, cfg)
    assert np.allclose(back, z, atol=1e-15)


def test_maf_round_trip_100_random():
    cfg = _cfg(latent_size=6, made_hidden=12, flow_layers=3)
    params = init_generator(cfg, np.random.default_rng(10)).arrays
    masks = build_flow_masks(cfg)
    z = np.random.default_rng(11).standard_normal((100, 6))
    fwd = np.asarray(maf_forward(z, params, masks, cfg))
    back = maf_inverse(fwd, params, masks, cfg)
    assert np.abs(back - z).max() < 1e-9


# -- decoder -----------------------------------------------------------------


def test_decode_zero_weights_is_bias_broadcast():
    cfg = _cfg()
    params = _zeroed(init_generator(cfg, np.random.default_rng(0)))
    params["dec2_b"] = np.arange(24, dtype=np.float64)  # window_len*n = 8*3
    out = np.asarray(decode(np.ones(4), params, cfg))
    assert out.shape == (8, 3)
    assert np.array_equal(out.ravel(), np.arange(24, dtype=np.float64))


def test_decode_shape_and_determinism():
    cfg = _cfg()
    params = init_generator(cfg, np.random.default_rng(12)).arrays
    z = np.random.default_rng(13).standard_normal(4)
    out1 = np.asarray(decode(z, params, cfg))
    out2 = np.asarray(decode(z.copy(), params, cfg))
    assert out1.shape == (cfg.window_len, cfg.n_signals)
    assert np.array_equal(out1, out2)
    with pytest.raises(InputError):
        decode(np.zeros(5), params, cfg)


# -- full generator ----------------------------------------------------------


def test_generator_zero_network():
    cfg = _cfg()
    params = _zeroed(init_generator(cfg, np.random.default_rng(0)))
    params["dec2_b"] = np.full(24, 0.75)
    lp = generator_forward(np.ones((8, 3)), params, build_flow_masks(cfg), cfg)
    assert np.array_equal(np.asarray(lp.mu), np.zeros(4))
    assert np.array_equal(np.asarray(lp.zk), np.zeros(4))
    assert np.allclose(np.asarray(lp.reconstruction), 0.75)


def test_generator_flow_off_zk_equals_z0_and_ignores_made_params():
    cfg_off = _cfg(use_flow=False)
    rng = np.random.default_rng(14)
    params = init_generator(cfg_off, rng).arrays
    w = rng.standard_normal((8, 3))
    lp1 = generator_forward(w, params, None, cfg_off)
    assert np.array_equal(np.asarray(lp1.zk), np.asarray(lp1.z0))
    mutated = dict(params)
    for k in range(cfg_off.flow_layers):
        mutated[f"flow{k}_dec_b"] = params[f"flow{k}_dec_b"] + 100.0
    lp2 = generator_forward(w, mutated, None, cfg_off)
    assert np.array_equal(np.asarray(lp1.reconstruction), np.asarray(lp2.reconstruction))


def test_generator_eps_zero_bit_identical():
    cfg = _cfg()
    params = init_generator(cfg, np.random.default_rng(15)).arrays
    masks = build_flow_masks(cfg)
    w = np.random.default_rng(16).standard_normal((8, 3))
    lp1 = generator_forward(w, params, masks, cfg)
    lp2 = generator_forward(w, params, masks, cfg)
    for field in ("mu", "logvar", "z0", "zk", "reconstruction"):
        assert np.array_equal(np.asarray(getattr(lp1, field)), np.asarray(getattr(lp2, field)))


def test_generator_loss_tape_size_does_not_grow_with_window_len():
    # The LSTM is one graph node however many steps it runs; a per-step
    # tape would add nodes in proportion to window_len.
    counts = []
    for window_len in (10, 150):
        cfg = ModelConfig(n_signals=3, window_len=window_len)
        rng = np.random.default_rng(17)
        leaves = {k: ad.Tensor(v) for k, v in init_generator(cfg, rng).arrays.items()}
        disc = init_discriminator(cfg, rng).arrays
        x = rng.standard_normal((4, window_len, 3))
        eps = rng.standard_normal((4, cfg.latent_size))
        lp = generator_forward(x, leaves, build_flow_masks(cfg), cfg, eps)
        total, _ = loss_generator(lp, x, leaves, disc, cfg, lam=1e-4, beta=1.0)
        counts.append(len(ad._topo(total)))
    assert counts[0] == counts[1]


# -- discriminator -----------------------------------------------------------


def test_discriminate_zero_network_is_half():
    cfg = _cfg()
    params = _zeroed(init_discriminator(cfg, np.random.default_rng(0)))
    p = discriminate(np.ones(4), params, cfg)
    assert float(np.asarray(p)) == 0.5


def test_discriminate_in_open_unit_interval():
    cfg = _cfg()
    params = init_discriminator(cfg, np.random.default_rng(17)).arrays
    z = np.random.default_rng(18).standard_normal((50, 4)) * 10
    p = np.asarray(discriminate(z, params, cfg))
    assert p.shape == (50, 1)
    assert np.all((p > 0) & (p < 1))


def test_discriminate_monotone_in_output_bias():
    cfg = _cfg()
    params = init_discriminator(cfg, np.random.default_rng(19)).arrays
    z = np.random.default_rng(20).standard_normal(4)
    p_low = float(np.asarray(discriminate(z, params, cfg)))
    raised = dict(params)
    raised["disc_out_b"] = params["disc_out_b"] + 1.0
    p_high = float(np.asarray(discriminate(z, raised, cfg)))
    assert p_high > p_low


# -- checkpoint --------------------------------------------------------------


def _small_checkpoint(tmp_path, calibration=None, meta=None):
    cfg = _cfg()
    rng = np.random.default_rng(21)
    gen = init_generator(cfg, rng)
    disc = init_discriminator(cfg, rng)
    stats = NormStats(mean=rng.standard_normal(3), std=np.abs(rng.standard_normal(3)) + 0.1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, gen, disc, stats, calibration=calibration, meta=meta)
    return path, cfg, gen, disc, stats


def test_checkpoint_round_trip_bitwise(tmp_path):
    path, cfg, gen, disc, stats = _small_checkpoint(tmp_path, meta={"note": "x"})
    ck = load_checkpoint(path)
    assert ck.config == cfg
    for name, arr in gen.arrays.items():
        assert np.array_equal(ck.generator.arrays[name], arr)
    for name, arr in disc.arrays.items():
        assert np.array_equal(ck.discriminator.arrays[name], arr)
    assert np.array_equal(ck.norm_stats.mean, stats.mean)
    assert np.array_equal(ck.norm_stats.std, stats.std)
    assert ck.calibration is None
    assert ck.meta == {"note": "x"}


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    path, cfg, gen, disc, stats = _small_checkpoint(tmp_path)
    ck = load_checkpoint(path)
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(path2, ck.config, ck.generator, ck.discriminator, ck.norm_stats,
                    calibration=ck.calibration, meta=ck.meta)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_carries_calibration(tmp_path):
    from flowad.detection import CalibrationStats

    cal = CalibrationStats(mu=3.5, sigma=1.25, eps_mode="zero", n_windows=10)
    path, *_ = _small_checkpoint(tmp_path, calibration=cal)
    ck = load_checkpoint(path)
    back = CalibrationStats.from_dict(ck.calibration)
    assert back.mu == 3.5 and back.sigma == 1.25 and back.n_windows == 10


def test_checkpoint_corruption_detected(tmp_path):
    path, *_ = _small_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(InputError, match="digest"):
        load_checkpoint(path)


def _rewrite_header(path, header: bytes):
    raw = path.read_bytes()
    payload = raw[12 + int.from_bytes(raw[8:12], "little"):]
    path.write_bytes(raw[:8] + len(header).to_bytes(4, "little") + header + payload)


def test_checkpoint_header_not_json(tmp_path):
    path, *_ = _small_checkpoint(tmp_path)
    _rewrite_header(path, b'{"format_version": 1,')
    with pytest.raises(InputError, match="not valid JSON"):
        load_checkpoint(path)


def test_checkpoint_header_truncated(tmp_path):
    path, *_ = _small_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:60])
    with pytest.raises(InputError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["format_version", "model_config", "norm_stats", "arrays",
                                 "payload_sha256"])
def test_checkpoint_header_missing_key(tmp_path, key):
    path, *_ = _small_checkpoint(tmp_path)
    raw = path.read_bytes()
    header = json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])
    del header[key]
    _rewrite_header(path, json.dumps(header).encode())
    with pytest.raises(InputError, match=f"lacks {key}"):
        load_checkpoint(path)


def test_checkpoint_header_missing_nested_key(tmp_path):
    path, *_ = _small_checkpoint(tmp_path)
    raw = path.read_bytes()
    header = json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])
    del header["arrays"][0]["shape"]
    _rewrite_header(path, json.dumps(header).encode())
    with pytest.raises(InputError, match="malformed.*shape"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """A valid checkpoint's bytes, and a scratch path to write damaged copies to."""
    path, *_ = _small_checkpoint(tmp_path_factory.mktemp("ckpt"), meta={"resolved_config": {}})
    return path.read_bytes(), path.with_name("damaged.ckpt")


@st.composite
def _damaged(draw, raw):
    hlen = int.from_bytes(raw[8:12], "little")
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    # Mostly in the header: any payload flip is a digest mismatch.
    where = st.one_of(st.integers(0, 12 + hlen - 1), st.integers(0, len(raw) - 1))
    for i in draw(st.lists(where, min_size=1, max_size=4)):
        out[i] ^= draw(st.integers(1, 255))
    return bytes(out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_input_error(checkpoint_file, data):
    # A checkpoint that loads must be one the scoring runtime can run.
    raw, path = checkpoint_file
    path.write_bytes(data.draw(_damaged(raw)))
    try:
        ckpt = load_checkpoint(path)
    except InputError:
        return
    runtime = ScoringRuntime.from_checkpoint(ckpt)
    runtime.l1_error(np.zeros((ckpt.config.window_len, ckpt.config.n_signals)))


def test_checkpoint_bad_magic_and_missing(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(InputError, match="not a checkpoint"):
        load_checkpoint(bad)
    with pytest.raises(InputError, match="not found"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_checkpoint_rejects_mismatched_layout(tmp_path):
    cfg = _cfg()
    rng = np.random.default_rng(22)
    gen = init_generator(cfg, rng)
    disc = init_discriminator(cfg, rng)
    del gen.arrays["mu_w"]
    stats = NormStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(InputError, match="layout"):
        save_checkpoint(tmp_path / "x.ckpt", cfg, gen, disc, stats)


def test_checkpoint_rejects_nonfinite(tmp_path):
    cfg = _cfg()
    rng = np.random.default_rng(23)
    gen = init_generator(cfg, rng)
    disc = init_discriminator(cfg, rng)
    gen.arrays["mu_w"][0, 0] = np.nan
    stats = NormStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(InputError, match="non-finite"):
        save_checkpoint(tmp_path / "x.ckpt", cfg, gen, disc, stats)
