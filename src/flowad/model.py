"""The window model: LSTM encoder with distribution heads, reparameterized
base latent, masked autoregressive flow stack, linear decoder, and the MLP
discriminator.

Every forward function is written against the dispatching ops in
`autodiff`, so one code path serves both differentiable training (params
given as Tensors) and plain numpy execution (params given as ndarrays).
Inputs accept a single window/vector or a leading batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import InputError
from .masks import build_masks


@dataclass(frozen=True)
class ModelConfig:
    n_signals: int
    window_len: int
    hidden_size: int | None = None  # default 2*n_signals
    latent_size: int | None = None  # default 2*n_signals
    flow_layers: int = 3
    made_hidden: int | None = None  # default 2*latent_size
    disc_widths: tuple[int, ...] | None = None  # default (2*latent, 2*latent)
    alpha_const: float = 0.0
    use_sparsity: bool = True
    use_flow: bool = True

    def __post_init__(self):
        if self.n_signals < 1 or self.window_len < 1:
            raise InputError("n_signals and window_len must be >= 1")
        if self.flow_layers < 0:
            raise InputError("flow_layers must be >= 0")
        if self.alpha_const < 0:
            raise InputError("alpha_const must be non-negative")
        hid = self.hidden_size if self.hidden_size is not None else 2 * self.n_signals
        lat = self.latent_size if self.latent_size is not None else 2 * self.n_signals
        made = self.made_hidden if self.made_hidden is not None else 2 * lat
        disc = self.disc_widths if self.disc_widths is not None else (2 * lat, 2 * lat)
        disc = tuple(int(w) for w in disc)
        if hid < 1 or lat < 1 or made < 1 or any(w < 1 for w in disc):
            raise InputError("all layer sizes must be >= 1")
        object.__setattr__(self, "hidden_size", int(hid))
        object.__setattr__(self, "latent_size", int(lat))
        object.__setattr__(self, "made_hidden", int(made))
        object.__setattr__(self, "disc_widths", disc)


# Encoder-side parameter names: the sparsity penalty covers these.
ENCODER_PARAM_NAMES = ("lstm_w", "lstm_b", "mu_w", "mu_b", "logvar_w", "logvar_b")


@dataclass
class GeneratorParams:
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class DiscriminatorParams:
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class LatentPass:
    """Every intermediate the losses need, batched along axis 0."""

    mu: object
    logvar: object
    z0: object
    zk: object
    reconstruction: object


def generator_array_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every generator array, in checkpoint order."""
    n, H, D, M = cfg.n_signals, cfg.hidden_size, cfg.latent_size, cfg.made_hidden
    shapes = {"lstm_w": (n + H, 4 * H), "lstm_b": (4 * H,), "mu_w": (H, D), "mu_b": (D,),
              "logvar_w": (H, D), "logvar_b": (D,)}
    for k in range(cfg.flow_layers):
        shapes |= {f"flow{k}_enc_w": (D, M), f"flow{k}_enc_b": (M,),
                   f"flow{k}_dec_w": (M, D), f"flow{k}_dec_b": (D,)}
    TN = cfg.window_len * n
    return shapes | {"dec1_w": (D, H), "dec1_b": (H,), "dec2_w": (H, TN), "dec2_b": (TN,)}


def discriminator_array_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every discriminator array, in checkpoint order."""
    shapes, prev = {}, cfg.latent_size
    for i, w in enumerate(cfg.disc_widths):
        shapes |= {f"disc{i}_w": (prev, w), f"disc{i}_b": (w,)}
        prev = w
    return shapes | {"disc_out_w": (prev, 1), "disc_out_b": (1,)}


def _init_uniform(shapes: dict, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws in `shapes` order; a
    bias takes the fan-in of the weight matrix before it."""
    arrays = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            fan_in = shape[0]
        bound = 1.0 / math.sqrt(fan_in)
        arrays[name] = rng.uniform(-bound, bound, size=shape)
    return arrays


def init_generator(cfg: ModelConfig, rng: np.random.Generator) -> GeneratorParams:
    return GeneratorParams(arrays=_init_uniform(generator_array_shapes(cfg), rng))


def init_discriminator(cfg: ModelConfig, rng: np.random.Generator) -> DiscriminatorParams:
    return DiscriminatorParams(arrays=_init_uniform(discriminator_array_shapes(cfg), rng))


def build_flow_masks(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """One validated mask pair; every flow layer shares the same structure."""
    return build_masks(cfg.latent_size, cfg.made_hidden)


# -- forward passes --------------------------------------------------------


def _batched_windows(window) -> tuple[np.ndarray, bool]:
    x = np.asarray(window, dtype=np.float64)
    if x.ndim == 2:
        return x[None], True
    if x.ndim == 3:
        return x, False
    raise InputError(f"window must be (T, N) or (B, T, N), got shape {x.shape}")


def _batched_vec(z) -> tuple[object, bool]:
    if z.ndim == 1:
        return ad.reshape(z, (1, z.shape[0])), True
    if z.ndim == 2:
        return z, False
    raise InputError("latent input must be a vector or a batch of vectors")


def encode(window, params: Mapping, cfg: ModelConfig):
    """LSTM over T_W steps; final hidden state feeds the mu/logvar heads."""
    x, single = _batched_windows(window)
    _, T, n = x.shape
    if T != cfg.window_len or n != cfg.n_signals:
        raise InputError(
            f"window shape {(T, n)} does not match config "
            f"{(cfg.window_len, cfg.n_signals)}"
        )
    h = ad.lstm(x, params["lstm_w"], params["lstm_b"], cfg.hidden_size)
    mu = ad.add(ad.matmul(h, params["mu_w"]), params["mu_b"])
    logvar = ad.add(ad.matmul(h, params["logvar_w"]), params["logvar_b"])
    if single:
        D = cfg.latent_size
        return ad.reshape(mu, (D,)), ad.reshape(logvar, (D,))
    return mu, logvar


def reparameterize(mu, logvar, eps=None):
    """z_0 = mu + exp(logvar/2) * eps; eps=None means the zero vector."""
    if eps is None:
        return mu
    sigma = ad.exp(ad.mul(logvar, 0.5))
    return ad.add(mu, ad.mul(sigma, np.asarray(eps, dtype=np.float64)))


def made_forward(z, enc_w, enc_b, dec_w, dec_b, m_enc, m_dec):
    """Masked single-hidden-layer network; output i sees only inputs < i."""
    zb, single = _batched_vec(z)
    hidden = ad.relu(ad.add(ad.matmul(zb, ad.mul(enc_w, m_enc)), enc_b))
    out = ad.add(ad.matmul(hidden, ad.mul(dec_w, m_dec)), dec_b)
    if single:
        return ad.reshape(out, (out.shape[1],))
    return out


def maf_forward(z0, params: Mapping, masks, cfg: ModelConfig):
    """z_k = z_{k-1} * exp(alpha) + mu_k(z_{k-1}) for k = 1..K."""
    z = z0
    if not cfg.use_flow or cfg.flow_layers == 0:
        return z
    m_enc, m_dec = masks
    scale = math.exp(cfg.alpha_const)
    for k in range(cfg.flow_layers):
        mu_k = made_forward(
            z,
            params[f"flow{k}_enc_w"],
            params[f"flow{k}_enc_b"],
            params[f"flow{k}_dec_w"],
            params[f"flow{k}_dec_b"],
            m_enc,
            m_dec,
        )
        if scale == 1.0:
            z = ad.add(z, mu_k)
        else:
            z = ad.add(ad.mul(z, scale), mu_k)
    return z


def maf_inverse(z_k, params: Mapping, masks, cfg: ModelConfig) -> np.ndarray:
    """Coordinate-by-coordinate inverse of maf_forward; numpy only."""
    z = np.asarray(z_k, dtype=np.float64)
    single = z.ndim == 1
    zb = z[None] if single else z.copy()
    if cfg.use_flow and cfg.flow_layers > 0:
        m_enc, m_dec = masks
        scale = math.exp(cfg.alpha_const)
        D = zb.shape[1]
        for k in reversed(range(cfg.flow_layers)):
            layer = (
                np.asarray(params[f"flow{k}_enc_w"], dtype=np.float64),
                np.asarray(params[f"flow{k}_enc_b"], dtype=np.float64),
                np.asarray(params[f"flow{k}_dec_w"], dtype=np.float64),
                np.asarray(params[f"flow{k}_dec_b"], dtype=np.float64),
            )
            for r in range(zb.shape[0]):
                y = zb[r].copy()
                x = np.zeros(D)
                for i in range(D):
                    # mu[i] depends only on x[:i], which are already solved.
                    mu = made_forward(x, *layer, m_enc, m_dec)
                    x[i] = (y[i] - mu[i]) / scale
                zb[r] = x
    return zb[0] if single else zb


def decode(z_k, params: Mapping, cfg: ModelConfig):
    """z_K -> linear(hidden_size) -> relu -> linear(T_W*N) -> reshape."""
    zb, single = _batched_vec(z_k)
    if zb.shape[1] != cfg.latent_size:
        raise InputError(
            f"latent length {zb.shape[1]} does not match config {cfg.latent_size}"
        )
    h = ad.relu(ad.add(ad.matmul(zb, params["dec1_w"]), params["dec1_b"]))
    flat = ad.add(ad.matmul(h, params["dec2_w"]), params["dec2_b"])
    if single:
        return ad.reshape(flat, (cfg.window_len, cfg.n_signals))
    return ad.reshape(flat, (zb.shape[0], cfg.window_len, cfg.n_signals))


def generator_forward(window, params: Mapping, masks, cfg: ModelConfig, eps=None) -> LatentPass:
    """encode -> reparameterize -> flow -> decode, keeping intermediates."""
    mu, logvar = encode(window, params, cfg)
    z0 = reparameterize(mu, logvar, eps)
    zk = maf_forward(z0, params, masks, cfg)
    recon = decode(zk, params, cfg)
    return LatentPass(mu=mu, logvar=logvar, z0=z0, zk=zk, reconstruction=recon)


def discriminate(z, params: Mapping, cfg: ModelConfig):
    """MLP with rectifier hiddens and sigmoid output; returns (B, 1) probs."""
    zb, single = _batched_vec(z)
    h = zb
    for i in range(len(cfg.disc_widths)):
        h = ad.relu(ad.add(ad.matmul(h, params[f"disc{i}_w"]), params[f"disc{i}_b"]))
    p = ad.sigmoid(ad.add(ad.matmul(h, params["disc_out_w"]), params["disc_out_b"]))
    if single:
        return ad.reshape(p, ())
    return p
