"""JSON config files: one object of sections (model, windowing, train,
synth, detect), each checked against the type hints of the dataclass it
builds, so that a wrong key or type exits 2 naming it."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import types
import typing

from .data import require_file
from .errors import InputError


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(require_file(path, "config file").read_text())
    except json.JSONDecodeError as e:
        raise InputError(f"config file is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise InputError("config file must contain a JSON object")
    return cfg


def config_section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise InputError(f"config section '{name}' must be an object")
    return dict(sec)


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type of a field annotated `hint`: an
    int takes no bool or float, a float also takes an int but not the NaN
    or Infinity that `json.loads` accepts, a tuple takes a list of its
    item type, and `X | None` also takes null."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def build_config(cls, cfg: dict, name: str, flags: dict | None = None, **values):
    """The dataclass `cls` built from config section `name`, with `values`
    and then every flag in `flags` that was given (not None) replacing the
    file's value. A bad value is named by its flag if a flag gave it, else
    as a key of the section."""
    given = {k: v for k, v in (flags or {}).items() if v is not None}
    sec = {k: v for k, v in config_section(cfg, name).items() if k not in given}
    sec.update(values)

    def where(key) -> str:
        return f"--{key.replace('_', '-')}" if key in given else f"{name} config"

    hints = typing.get_type_hints(cls)
    for key, value in [*sec.items(), *given.items()]:
        if key not in hints:
            raise InputError(f"bad {where(key)}: unknown key '{key}'")
        if not _fits(value, hints[key]):
            expected = re.sub(r"<class '(\w+)'>", r"\1", str(hints[key]))
            raise InputError(f"bad {where(key)}: {key} must be {expected}, got {value!r}")
    for f in dataclasses.fields(cls):
        if f.name not in sec and f.default is f.default_factory is dataclasses.MISSING:
            raise InputError(f"bad {name} config: missing key '{f.name}'")
    key = None
    try:  # the file's values first, then one flag at a time, so a rejection has one source
        built = cls(**sec)
        for key, value in given.items():
            built = dataclasses.replace(built, **{key: value})
    except InputError as e:
        raise InputError(f"bad {where(key)}: {e}") from None
    return built
