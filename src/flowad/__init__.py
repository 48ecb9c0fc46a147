"""Streaming multivariate time-series anomaly detection.

An adversarial autoencoder whose latent code is reshaped by a masked
autoregressive flow, trained on normal data only, with an L1 sparsity
penalty on the encoder. Windows are scored by standardized
reconstruction error against statistics calibrated on normal data.

The names below are re-exported lazily (PEP 562): `import flowad` loads
none of the modules, and a name's module is imported on its first access,
so a command that never trains never compiles the training code.
"""

import importlib

# The public names by the module that defines them.
_NAMES = {
    "data": ("NormStats", "Record", "Window", "WindowingConfig", "sliding_windows",
             "window_count"),
    "detection": ("CalibrationStats", "DetectorConfig", "StreamDetector", "Verdict",
                  "calibrate"),
    "errors": ("DatasetError", "FlowadError", "InputError", "NonFiniteError", "StreamError"),
    "evaluation": ("auroc", "evaluate", "iqr_mean", "roc_curve", "trapezoid_auc"),
    "fastpath": ("ScoringRuntime",),
    "model": ("ModelConfig", "init_discriminator", "init_generator"),
    "synth": ("SynthConfig", "synth_generate"),
    "training": ("TrainConfig", "TrainResult", "train"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


__version__ = "0.1.0"

__all__ = [
    "CalibrationStats",
    "DatasetError",
    "DetectorConfig",
    "FlowadError",
    "InputError",
    "ModelConfig",
    "NonFiniteError",
    "NormStats",
    "Record",
    "ScoringRuntime",
    "StreamDetector",
    "StreamError",
    "SynthConfig",
    "TrainConfig",
    "TrainResult",
    "Verdict",
    "Window",
    "WindowingConfig",
    "auroc",
    "calibrate",
    "evaluate",
    "init_discriminator",
    "init_generator",
    "iqr_mean",
    "roc_curve",
    "sliding_windows",
    "synth_generate",
    "train",
    "trapezoid_auc",
    "window_count",
]
