"""The config schema is the config dataclasses themselves.

``NetworkConfig`` nests ``VariantFlags`` and ``TrainConfig`` nests
``LossConfig``; flattening the nested configs in place gives each a flat
list of leaf fields.  Those leaf names are the ``config.txt`` keys and the
checkpoint's ``cfg/`` entries, and the dataclass defaults are the only
defaults.  ``RETIRED`` lists the fields that are gone.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import get_type_hints


# retired option -> the (config.txt value, FUD1 entry, FUD1 value) that remains, None if
# never written: files written before the removal load; any other value is an error
RETIRED = {"upsample_mode": ("bilinear", "cfg/upsample_bilinear", 1.0),
           "channel_branch_includes_sl": ("false", "cfg/channel_branch_includes_sl", 0.0),
           "side_weights": (None, None, None)}


def leaf_types(cls) -> dict:
    """{name: annotated type} of every leaf field of a config class, in field order."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        kind = hints[f.name]
        out.update(leaf_types(kind) if is_dataclass(kind) else {f.name: kind})
    return out


def leaf_items(cfg):
    """Yields (name, value) for every leaf field of a config, in field order."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from leaf_items(value)
        else:
            yield f.name, value


def build(cls, values):
    """A config from a flat {leaf name: value} dict; missing keys keep their defaults."""
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            kwargs[f.name] = build(hints[f.name], values)
        elif f.name in values:
            kwargs[f.name] = values[f.name]
    return cls(**kwargs)
