"""The envelope every JSON artifact carries: its ``kind`` and schema version.

Writers start each payload from ``envelope(kind)``; the one decoder of each
artifact kind calls ``check_envelope`` before it reads any other field, and
reads its fields with ``field`` and its array fields with ``finite_matrix``.
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
