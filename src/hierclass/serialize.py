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
from contextlib import contextmanager
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


def json_integer(value, key: str) -> int:
    """``value``, read under ``key``, as an int: a JSON number without a
    fraction, not a bool; a ValueError naming ``key`` otherwise."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def json_number(value, key: str) -> float:
    """``value``, read under ``key``, as a float: a JSON number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def json_string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


JSON_READERS = {int: json_integer, float: json_number, str: json_string}


def config_from_json(cls, obj, what: str):
    """Rebuild the config dataclass ``cls`` from its ``asdict`` form.

    The object must hold exactly the dataclass's fields, each of its type
    hint's JSON type, so a saved config never silently picks up a default
    or a value of another type; nested config fields are read the same way.
    """
    names = [f.name for f in fields(cls)]
    check_keys(obj, names, what)
    types = typing.get_type_hints(cls)
    try:
        values = {
            n: config_from_json(types[n], obj[n], f"{what}.{n}") if is_dataclass(types[n])
            else JSON_READERS[types[n]](obj[n], n)
            for n in names
        }
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what}: {exc}") from None


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of_json(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def sha256_of_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None):
    """A text file to write ``path`` through: a temp file in the target
    directory, renamed over ``path`` when the block ends without an error
    and deleted when it does not, so ``path`` is never left half written.
    The file gets the mode a plain ``open`` would give it: 0o666 less the
    umask."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def atomic_write_json(path: str | Path, obj, indent: int = 2) -> None:
    atomic_write_text(path, json.dumps(obj, indent=indent) + "\n")


def read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def load_json(path: str | Path, data: bytes | None = None):
    """The JSON in ``path``, parsed from ``data`` when its bytes were read already."""
    try:
        return json.loads((read_bytes(path) if data is None else data).decode("utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise DataError(f"{path}: invalid JSON: {exc}") from None
