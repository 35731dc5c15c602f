"""Deterministic JSON shared by the CLI and the sampler report."""

from __future__ import annotations

import numpy as np


def dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 9 significant digits."""
    if isinstance(obj, dict):
        body = ",".join(f"{dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.9g}"
    raise TypeError(f"cannot serialize {type(obj)!r}")
