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

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import NormStats, require_file
from .errors import InputError
from .model import (
    DiscriminatorParams,
    GeneratorParams,
    ModelConfig,
    discriminator_array_shapes,
    generator_array_shapes,
)

MAGIC = b"FLOWCKPT"
FORMAT_VERSION = 1
_HEADER_KEYS = ("format_version", "model_config", "norm_stats", "arrays", "payload_sha256")


@dataclass
class Checkpoint:
    config: ModelConfig
    generator: GeneratorParams
    discriminator: DiscriminatorParams
    norm_stats: NormStats
    calibration: dict | None = None
    meta: dict | None = None


def _calibration_to_dict(cal) -> dict | None:
    if cal is None:
        return None
    if isinstance(cal, dict):
        return cal
    return cal.to_dict()


def save_checkpoint(
    path,
    config: ModelConfig,
    generator: GeneratorParams,
    discriminator: DiscriminatorParams,
    norm_stats: NormStats,
    calibration=None,
    meta: dict | None = None,
) -> Path:
    gen_names = list(generator_array_shapes(config))
    disc_names = list(discriminator_array_shapes(config))
    if set(gen_names) != set(generator.arrays):
        raise InputError("generator arrays do not match the config's layout")
    if set(disc_names) != set(discriminator.arrays):
        raise InputError("discriminator arrays do not match the config's layout")

    manifest = []
    chunks = []
    for group, names, arrays in (
        ("generator", gen_names, generator.arrays),
        ("discriminator", disc_names, discriminator.arrays),
    ):
        for name in names:
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"array '{name}' contains non-finite values")
            manifest.append({"group": group, "name": name, "shape": list(arr.shape)})
            chunks.append(arr.tobytes())
    payload = b"".join(chunks)

    header = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(config),
        "norm_stats": norm_stats.to_dict(),
        "calibration": _calibration_to_dict(calibration),
        "arrays": manifest,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(payload)
    return path


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
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise InputError("checkpoint payload digest mismatch; file is corrupted")

    try:
        config = ModelConfig(**header["model_config"])
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

    return Checkpoint(
        config=config,
        generator=GeneratorParams(arrays=arrays["generator"]),
        discriminator=DiscriminatorParams(arrays=arrays["discriminator"]),
        norm_stats=norm_stats,
        calibration=header.get("calibration"),
        meta=meta,
    )
