"""One to_dict for every report: its dataclass fields, in order, as plain JSON.

A field's metadata says where the JSON differs from the field: {"json": None}
leaves it out, a string renames it, and "*" merges a dict field's items into
the report's own keys. Tuples and Point2 become lists, and named rows
(NamedTuples) become dicts keyed by the row's JSON names, its fields unless
it lists others; any other value is kept as it is, so ints stay ints.
"""
from __future__ import annotations

from dataclasses import fields

from .geometry import Point2


def _plain(v):
    if isinstance(v, Point2):
        return [v.x, v.y]
    if hasattr(v, "_fields"):
        return {k: _plain(getattr(v, k)) for k in getattr(v, "JSON", v._fields)}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


class Report:
    """Base of the report dataclasses; to_dict as the module docstring says."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = f.metadata.get("json", f.name)
            if key == "*":
                out.update(_plain(getattr(self, f.name)))
            elif key is not None:
                out[key] = _plain(getattr(self, f.name))
        return out
