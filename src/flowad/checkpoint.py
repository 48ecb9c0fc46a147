"""Versioned checkpoint container.

Layout: an 8-byte magic, a little-endian uint32 header length, a JSON
header, then the raw bytes of every array (C order, little-endian
float64) in the order the header declares. The header carries a
format version, the full model config, normalization stats, optional
calibration stats, a sha256 digest of the payload, and caller-supplied
metadata. Nothing time- or host-dependent is written, so identical
runs produce identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import build_config
from .data import NormStats, require_file
from .errors import InputError
from .model import ModelConfig, discriminator_array_shapes, generator_array_shapes

# CPython's built-in SHA-256, as `random` takes its sha512: `hashlib` maps
# OpenSSL's libcrypto (about 3.6 MB resident) for this one digest.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

MAGIC = b"FLOWCKPT"
FORMAT_VERSION = 1
_HEADER_KEYS = ("format_version", "model_config", "norm_stats", "arrays", "payload_sha256")


@dataclass
class Checkpoint:
    config: ModelConfig
    generator: dict[str, np.ndarray]
    discriminator: dict[str, np.ndarray]
    norm_stats: NormStats
    calibration: dict | None = None
    meta: dict | None = None


def save_checkpoint(path, ckpt: Checkpoint) -> Path:
    """Write `ckpt` to `path`; `load_checkpoint` returns what this writes,
    and saving a loaded checkpoint reproduces its bytes."""
    manifest = []
    chunks = []
    for group, layout, arrays in (
        ("generator", generator_array_shapes(ckpt.config), ckpt.generator),
        ("discriminator", discriminator_array_shapes(ckpt.config), ckpt.discriminator),
    ):
        if set(layout) != set(arrays):
            raise InputError(f"{group} arrays do not match the config's layout")
        for name in layout:
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            if arr.shape != layout[name]:
                raise InputError(f"{group} array '{name}' has shape {arr.shape}, "
                                 f"its model_config wants {layout[name]}")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"array '{name}' contains non-finite values")
            manifest.append({"group": group, "name": name, "shape": list(arr.shape)})
            chunks.append(arr.tobytes())
    payload = b"".join(chunks)

    header = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(ckpt.config),
        "norm_stats": ckpt.norm_stats.to_dict(),
        "calibration": ckpt.calibration,
        "arrays": manifest,
        "payload_sha256": sha256(payload).hexdigest(),
        "meta": ckpt.meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(payload)
    return path


def _config_from_header(header) -> ModelConfig:
    """The header's model_config, held to the rule config files follow."""
    try:
        return build_config(ModelConfig, header, "model_config")
    except InputError as e:
        raise InputError(f"checkpoint header: {e}") from None


def load_checkpoint(path) -> Checkpoint:
    path = require_file(path, "checkpoint")
    raw = path.read_bytes()
    if raw[:8] != MAGIC:
        raise InputError(f"not a checkpoint file: {path}")
    hlen = int.from_bytes(raw[8:12], "little")
    if len(raw) < 12 + hlen:
        raise InputError(f"checkpoint header is truncated: {path}")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode())
    except ValueError as e:  # undecodable bytes or malformed JSON
        raise InputError(f"checkpoint header is not valid JSON: {e}") from None
    if not isinstance(header, dict):
        raise InputError("checkpoint header must be a JSON object")
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise InputError(f"checkpoint header lacks {', '.join(missing)}")
    if header["format_version"] != FORMAT_VERSION:
        raise InputError(
            f"unsupported checkpoint format version {header['format_version']}"
        )
    payload = raw[12 + hlen :]
    if sha256(payload).hexdigest() != header["payload_sha256"]:
        raise InputError("checkpoint payload digest mismatch; file is corrupted")

    try:
        config = _config_from_header(header)
        norm_stats = NormStats.from_dict(header["norm_stats"])
        layouts = {"generator": generator_array_shapes(config),
                   "discriminator": discriminator_array_shapes(config)}
        arrays = {group: {} for group in layouts}
        offset = 0
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            nbytes = count * 8
            arr = np.frombuffer(payload[offset : offset + nbytes], dtype="<f8").reshape(shape)
            offset += nbytes
            arrays[entry["group"]][entry["name"]] = np.array(arr)  # own, writable copy
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"checkpoint header is malformed: {e!r}") from None
    if offset != len(payload):
        raise InputError("checkpoint payload size does not match its manifest")
    # The digest covers the payload only, so check the header against it.
    for group, want in layouts.items():
        got = {name: arr.shape for name, arr in arrays[group].items()}
        if got != want:
            bad = sorted(map(str, set(got) ^ set(want))) or [k for k in want if got[k] != want[k]]
            raise InputError(
                f"checkpoint {group} arrays do not match its model_config: {', '.join(bad)}"
            )
    mean, std = norm_stats.mean, norm_stats.std
    n = config.n_signals
    if not (mean.shape == std.shape == (n,) and np.isfinite(mean).all()
            and np.isfinite(std).all() and (std > 0).all()):
        raise InputError(f"checkpoint norm_stats must hold {n} finite means and stds > 0")
    meta = header.get("meta", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("resolved_config", {}), dict):
        raise InputError("checkpoint meta and its resolved_config must be JSON objects")
    # `cli` takes a stride from here when the config gives none; a
    # windowing that is not an object fails as stride 0.
    windowing = meta.get("resolved_config", {}).get("windowing", {})
    stride = windowing.get("stride") if isinstance(windowing, dict) else 0
    if stride is not None and not (type(stride) is int and 1 <= stride <= config.window_len):
        raise InputError("checkpoint resolved_config.windowing must be an object whose "
                         f"stride is an int in 1..{config.window_len}")

    return Checkpoint(
        config=config,
        generator=arrays["generator"],
        discriminator=arrays["discriminator"],
        norm_stats=norm_stats,
        calibration=header.get("calibration"),
        meta=meta,
    )
