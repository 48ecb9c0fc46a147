"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamWState:
    """Moments and hyperparameters for one parameter set (the Adam betas
    and eps are the module constants).

    `lr` may be reassigned between steps (the training loop applies the
    epoch schedule); moments persist across the change.
    """

    lr: float
    weight_decay: float = 0.0
    step: int = 0
    decay_exempt: frozenset[str] = frozenset()
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_init(
    params: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0, decay_exempt=()
) -> AdamWState:
    state = AdamWState(lr=lr, weight_decay=weight_decay, decay_exempt=frozenset(decay_exempt))
    for name, p in params.items():
        state.m[name] = np.zeros_like(p, dtype=np.float64)
        state.v[name] = np.zeros_like(p, dtype=np.float64)
    return state


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
):
    """One decoupled-weight-decay Adam step; params mutate in place.

    Decay multiplies the parameter by (1 - lr * wd) before the moment
    update is applied, and never touches names in state.decay_exempt.
    """
    if set(grads) != set(state.m):
        raise InputError("gradient names do not match optimizer state")
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise InputError(f"gradient shape mismatch for '{name}'")
        if state.weight_decay and name not in state.decay_exempt:
            p *= 1.0 - state.lr * state.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
    return params, state
