"""Structured serialization and stable hashing of harness values.

The campaign layer (``repro.campaign``) persists scenario results to
disk and keys them by content, so it needs two things this module
provides for arbitrary harness values (result dataclasses, NumPy
arrays, configuration objects, nested containers):

* :func:`to_jsonable` / :func:`from_jsonable` - a reversible encoding
  into JSON-compatible structures.  Arrays are either inlined (base64,
  self-contained JSON) or collected into a side table destined for an
  ``.npz`` payload; dataclasses round-trip by import path (fields
  added after a payload was written decode to their defaults, so
  evolving spec dataclasses stay readable, and a field the dataclass
  no longer declares raises ``TypeError``); enum members round-trip
  by import path *and value* (an ``IntEnum`` is an ``int``, but
  decaying it would lose the type - e.g. the ``Severity`` of a
  ``LintFinding``); callables round-trip as ``module:qualname``
  references; anything else falls back to pickle.
* :func:`stable_hash` - a SHA-256 over the canonical (sorted-keys)
  JSON encoding, used as the content address of a scenario.  The
  declarative spec layer (``LinkSpec``, ``NetworkSpec`` and their
  nested specs) is designed to hash through this path with no pickle
  fallback, which is what makes campaign cache keys portable.

Encoded markers all use ``__tag__``-style keys; plain dicts whose keys
could collide with a marker are escaped through ``__map__``, so any
JSON-representable input survives the round trip unchanged.

Limitations (enforced with :class:`UnserializableError`): lambdas and
other non-importable callables cannot be encoded, because the decode
side resolves callables by import path.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import hashlib
import importlib
import inspect
import json
import pickle
from typing import Any, Mapping, MutableMapping

import numpy as np


class UnserializableError(TypeError):
    """A value cannot be encoded reversibly (e.g. a lambda)."""


_TAGS = ("__tuple__", "__set__", "__complex__", "__bytes__",
         "__ndarray__", "__npz__", "__dataclass__", "__callable__",
         "__enum__", "__seedseq__", "__pickle__", "__map__")


def callable_spec(fn: Any) -> str:
    """``module:qualname`` reference of an importable callable."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise UnserializableError(f"callable {fn!r} has no import path")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise UnserializableError(
            f"callable {module}:{qualname} is not importable by name "
            "(lambdas/closures cannot be serialized; use a top-level "
            "function)")
    return f"{module}:{qualname}"


def resolve_callable(spec: str) -> Any:
    """Inverse of :func:`callable_spec`."""
    module_name, _, qualname = spec.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _encode_array(arr: np.ndarray,
                  arrays: MutableMapping[str, np.ndarray] | None) -> Any:
    if arr.dtype == object:
        raise UnserializableError("object-dtype arrays are not supported")
    if arrays is not None:
        name = f"a{len(arrays)}"
        arrays[name] = arr
        return {"__npz__": name}
    data = base64.b64encode(np.ascontiguousarray(arr).tobytes())
    return {"__ndarray__": {"dtype": arr.dtype.str,
                            "shape": list(arr.shape),
                            "data": data.decode("ascii")}}


def _decode_array(obj: Mapping[str, Any],
                  arrays: Mapping[str, np.ndarray] | None) -> np.ndarray:
    if "__npz__" in obj:
        if arrays is None:
            raise ValueError("array payload table required to decode "
                             f"reference {obj['__npz__']!r}")
        return np.asarray(arrays[obj["__npz__"]])
    spec = obj["__ndarray__"]
    raw = base64.b64decode(spec["data"])
    arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
    return arr.reshape(spec["shape"]).copy()


def to_jsonable(value: Any,
                arrays: MutableMapping[str, np.ndarray] | None = None
                ) -> Any:
    """Encode *value* into JSON-compatible structures.

    Args:
        value: any supported value (see module docstring).
        arrays: if given, NumPy arrays are appended to this mapping and
            referenced by name (the caller stores them in an ``.npz``
            payload); if ``None``, arrays are inlined as base64 so the
            JSON document is self-contained.
    """
    # Enum members must be caught before the primitive check: an
    # IntEnum *is* an int, but decaying it to one would lose the type
    # (e.g. the Severity of a LintFinding).
    if isinstance(value, enum.Enum):
        return {"__enum__": callable_spec(type(value)),
                "value": to_jsonable(value.value, arrays)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return _encode_array(value, arrays)
    if isinstance(value, np.generic):
        # NumPy scalars decay to the equivalent Python scalar.
        return to_jsonable(value.item(), arrays)
    if isinstance(value, np.random.SeedSequence):
        entropy = value.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(e) for e in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return {"__seedseq__": {
            "entropy": entropy,
            "spawn_key": [int(k) for k in value.spawn_key],
            "pool_size": int(value.pool_size)}}
    if isinstance(value, tuple):
        return {"__tuple__": [to_jsonable(v, arrays) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"__set__": [to_jsonable(v, arrays) for v in
                            sorted(value, key=repr)]}
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, list):
        return [to_jsonable(v, arrays) for v in value]
    if isinstance(value, Mapping):
        items = list(value.items())
        if all(isinstance(k, str) and k not in _TAGS for k, _v in items):
            return {k: to_jsonable(v, arrays) for k, v in items}
        return {"__map__": [[to_jsonable(k, arrays),
                             to_jsonable(v, arrays)] for k, v in items]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: to_jsonable(getattr(value, f.name), arrays)
                  for f in dataclasses.fields(value)}
        return {"__dataclass__": callable_spec(type(value)),
                "fields": fields}
    if isinstance(value, type) or inspect.isroutine(value):
        # Functions, methods and classes round-trip by import path;
        # *callable instances* (filters, nonlinearities) fall through
        # to the pickle path below, which captures their state.
        return {"__callable__": callable_spec(value)}
    try:
        blob = pickle.dumps(value, protocol=4)
    except Exception as exc:  # pragma: no cover - exotic objects
        raise UnserializableError(
            f"cannot serialize {type(value).__name__}: {exc}") from exc
    return {"__pickle__": base64.b64encode(blob).decode("ascii")}


def from_jsonable(obj: Any,
                  arrays: Mapping[str, np.ndarray] | None = None) -> Any:
    """Inverse of :func:`to_jsonable`."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [from_jsonable(v, arrays) for v in obj]
    if not isinstance(obj, Mapping):
        raise ValueError(f"unexpected encoded node: {obj!r}")
    if "__ndarray__" in obj or "__npz__" in obj:
        return _decode_array(obj, arrays)
    if "__seedseq__" in obj:
        spec = obj["__seedseq__"]
        entropy = spec["entropy"]
        if isinstance(entropy, list):
            entropy = [int(e) for e in entropy]
        return np.random.SeedSequence(
            entropy=entropy, spawn_key=tuple(spec["spawn_key"]),
            pool_size=int(spec["pool_size"]))
    if "__tuple__" in obj:
        return tuple(from_jsonable(v, arrays) for v in obj["__tuple__"])
    if "__set__" in obj:
        return set(from_jsonable(v, arrays) for v in obj["__set__"])
    if "__complex__" in obj:
        re, im = obj["__complex__"]
        return complex(re, im)
    if "__bytes__" in obj:
        return base64.b64decode(obj["__bytes__"])
    if "__map__" in obj:
        return {from_jsonable(k, arrays): from_jsonable(v, arrays)
                for k, v in obj["__map__"]}
    if "__dataclass__" in obj:
        cls = resolve_callable(obj["__dataclass__"])
        instance = cls.__new__(cls)
        # Seed defaults first so fields added after the payload was
        # written still exist on the decoded object; a field removed
        # since then means the document describes something else.
        names = set()
        for f in dataclasses.fields(cls):
            names.add(f.name)
            if f.default is not dataclasses.MISSING:
                object.__setattr__(instance, f.name, f.default)
            elif f.default_factory is not dataclasses.MISSING:
                object.__setattr__(instance, f.name, f.default_factory())
        for name, encoded in obj["fields"].items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__} has no field "
                                f"{name!r}")
            object.__setattr__(instance, name,
                               from_jsonable(encoded, arrays))
        return instance
    if "__enum__" in obj:
        cls = resolve_callable(obj["__enum__"])
        return cls(from_jsonable(obj["value"], arrays))
    if "__callable__" in obj:
        return resolve_callable(obj["__callable__"])
    if "__pickle__" in obj:
        return pickle.loads(base64.b64decode(obj["__pickle__"]))
    return {k: from_jsonable(v, arrays) for k, v in obj.items()}


def dump_tagged(tag: str, payload: Any, *, indent: int | None = None) -> str:
    """Encode *payload* as a format-tagged JSON document.

    Standalone documents (``repro trace --format json``, ``repro
    stats --format json``) carry an explicit format marker, so version
    skew and foreign files are a clean error instead of a silent
    mis-parse.  The payload goes through :func:`to_jsonable` (arrays
    inlined), so result dataclasses round-trip exactly.
    """
    return json.dumps({"format": tag, "payload": to_jsonable(payload)},
                      indent=indent, sort_keys=True)


def load_tagged(tag: str, text: str) -> Any:
    """Inverse of :func:`dump_tagged`.

    Raises:
        ValueError: the document is not valid JSON or its format
            marker is not *tag* (torn writes and a changed format
            marker both land here).
        TypeError: the payload holds a dataclass field that its class
            no longer declares (see :func:`from_jsonable`).
    """
    doc = json.loads(text)
    if not isinstance(doc, Mapping) or doc.get("format") != tag:
        found = doc.get("format") if isinstance(doc, Mapping) else None
        raise ValueError(f"expected a {tag!r} document, found "
                         f"{found!r}")
    return from_jsonable(doc["payload"])


def canonical_json(value: Any) -> str:
    """Deterministic JSON text of *value* (sorted keys, no whitespace,
    arrays inlined) - the hashing pre-image."""
    return json.dumps(to_jsonable(value), sort_keys=True,
                      separators=(",", ":"))


def stable_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of *value*.

    Stable across processes and platforms for the supported value
    types; for pickle-fallback objects it is stable as long as the
    object's pickled state is (true for the plain attribute-holder
    classes used in this repository).
    """
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
