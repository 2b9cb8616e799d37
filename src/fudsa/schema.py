"""The config schema is the config dataclasses themselves.

``NetworkConfig`` and ``TrainConfig`` are flat: their fields are the
``config.txt`` keys and the checkpoint's ``cfg/`` entries, in field order,
and the dataclass defaults are the only defaults.  ``RETIRED`` lists the
fields that are gone.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_type_hints


# retired option -> the (config.txt value, FUD1 entry, FUD1 value) that remains, None if
# never written: files written before the removal load; any other value is an error
RETIRED = {"upsample_mode": ("bilinear", "cfg/upsample_bilinear", 1.0),
           "channel_branch_includes_sl": ("false", "cfg/channel_branch_includes_sl", 0.0),
           "side_weights": (None, None, None),
           "input_channels": ("1", "cfg/input_channels", 1),
           "reduction": ("4", "cfg/reduction", 4),
           "sdc_dilations": ("1,2,4", "cfg/sdc_dilations", (1, 2, 4)),
           "min_delta": ("1e-05", None, None),
           "alpha": ("0.7", None, None),
           "beta": ("0.3", None, None),
           "gamma": ("1.3333333333333333", None, None),
           "smooth": ("1e-06", None, None)}


def leaf_types(cls) -> dict:
    """{name: annotated type} of every field of a config class, in field order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def leaf_items(cfg):
    """(name, value) of every field of a config, in field order."""
    return ((f.name, getattr(cfg, f.name)) for f in fields(cfg))


def build(cls, values):
    """A config from a {field name: value} dict; missing keys keep their defaults."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
