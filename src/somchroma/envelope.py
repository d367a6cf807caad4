"""The envelope every JSON artifact carries: its ``kind`` and schema version.

Writers start each payload from ``envelope(kind)``; the one decoder of each
artifact kind calls ``check_envelope`` before it reads any other field, and
reads its fields with ``field``, its array fields with ``finite_matrix`` and
its label fields with ``string_list``. An array field holds a numpy array when
the payload comes straight from its writer, and a list when it was read back
from JSON; the readers take either.
"""

import numpy as np

SCHEMA_VERSION = 1


def envelope(kind: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind}


def check_envelope(payload: dict, kind: str) -> None:
    """Raise ValueError unless ``payload`` is a ``kind`` payload of this schema version."""
    found = payload if isinstance(payload, dict) else {}  # any JSON value can arrive
    if found.get("kind") != kind or found.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"schema version mismatch: expected {kind} v{SCHEMA_VERSION}, got "
            f"kind={found.get('kind')!r} schema_version={found.get('schema_version')!r}"
        )


def field(payload: dict, kind: str, key: str):
    """``payload[key]``; a missing key raises a ValueError naming ``<kind>.<key>``."""
    if key not in payload:
        raise ValueError(f"{kind}.{key} is missing")
    return payload[key]


def finite_matrix(payload: dict, kind: str, key: str, width: int) -> np.ndarray:
    """``payload[key]`` as a finite M x ``width`` float array.

    Errors name the field as ``<kind>.<key>``.
    """
    name = f"{kind}.{key}"
    raw = field(payload, kind, key)
    try:
        values = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an Mx{width} array of numbers") from None
    if values.ndim != 2 or values.shape[1] != width:
        raise ValueError(f"{name} must be an Mx{width} array, got shape {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"{name} must be finite; row {bad[0]} is {values[bad[0]].tolist()}")
    return values


def string_list(payload: dict, kind: str, key: str, optional: bool = False) -> list[str] | None:
    """``payload[key]`` as a list of strings; an ``optional`` field may also be null or missing.

    Errors name the field as ``<kind>.<key>``.
    """
    if optional and payload.get(key) is None:
        return None
    value = field(payload, kind, key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{kind}.{key} must be a list of strings")
    return value
