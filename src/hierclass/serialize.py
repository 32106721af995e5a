"""Bit-exact JSON encoding of numeric arrays, strict config readers, and
atomic file helpers.

Arrays are stored as base64 of their little-endian float64 bytes in C
order, alongside the shape, so save/load round-trips are exact on every
platform.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .nets import Layer, Mlp


def array_to_json(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "f64le": base64.b64encode(data).decode("ascii")}


def array_from_json(obj: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(obj["f64le"])
        arr = np.frombuffer(raw, dtype="<f8").astype(float).reshape(obj["shape"])
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"bad array encoding: {exc}") from None
    return arr


def mlp_to_json(mlp: Mlp) -> dict:
    return {
        "layers": [
            {
                "activation": layer.activation,
                "weights": array_to_json(layer.weights),
                "bias": array_to_json(layer.bias),
            }
            for layer in mlp.layers
        ]
    }


def mlp_from_json(obj: dict) -> Mlp:
    try:
        layers = tuple(
            Layer(
                array_from_json(l["weights"]),
                array_from_json(l["bias"]),
                l["activation"],
            )
            for l in obj["layers"]
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"bad network encoding: {exc}") from None
    return Mlp(layers)


def check_keys(obj, names, what: str, optional=()) -> None:
    """Require an object holding every key in ``names`` and nothing outside
    ``names`` and ``optional``; a missing or unknown key is a DataError
    naming it."""
    if not isinstance(obj, dict):
        raise DataError(f"{what}: expected an object, got {type(obj).__name__}")
    missing = [n for n in names if n not in obj]
    if missing:
        raise DataError(f"{what}: missing keys {missing}")
    unknown = sorted(set(obj) - set(names) - set(optional))
    if unknown:
        raise DataError(f"{what}: unknown keys {unknown}")


def config_from_json(cls, obj, what: str):
    """Rebuild the config dataclass ``cls`` from its ``asdict`` form.

    The object must hold exactly the dataclass's fields, so a saved config
    never silently picks up a default; nested config fields are read the
    same way.
    """
    names = [f.name for f in fields(cls)]
    check_keys(obj, names, what)
    types = typing.get_type_hints(cls)
    values = {
        n: config_from_json(types[n], obj[n], f"{what}.{n}") if is_dataclass(types[n]) else obj[n]
        for n in names
    }
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what}: {exc}") from None


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of_json(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def sha256_of_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str | Path, obj, indent: int = 2) -> None:
    atomic_write_text(path, json.dumps(obj, indent=indent) + "\n")


def load_json(path: str | Path):
    try:
        with Path(path).open(encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
