"""Named configurations for the worked examples the CLI ships with."""

from __future__ import annotations

import copy

import numpy as np

from .cluster import linear_cluster_4
from .errors import ConfigError

_FLIP4 = {
    "modes": {"family": "flip", "n": 4, "grid_points": 4096, "domain": [0.0, 1.0], "lo_index": 0},
    "pixels": {"count": 4},
}

#: Preset fragments; user-supplied config keys override these on a deep merge.
PRESETS: dict[str, dict] = {
    "identity": {
        **copy.deepcopy(_FLIP4),
        "opo_phases": [0.0, 0.0, 0.0, 0.0],
        "target": {"identity": True},
    },
    "lin4": {
        **copy.deepcopy(_FLIP4),
        "opo_phases": [0.0, -np.pi / 2, -np.pi / 2, 0.0],
        "target": {"named": "lin4"},
        "enumerate": True,
    },
    "fourier": {
        **copy.deepcopy(_FLIP4),
        "opo_phases": [0.0, 0.0, -np.pi / 2, np.pi / 2],
        "target": {"gate": {"name": "fourier", "theta_3": 0.0}},
        "enumerate": True,
    },
    "displacement": {
        **copy.deepcopy(_FLIP4),
        "opo_phases": [0.0, 0.0, -np.pi / 2, np.pi / 2],
        "target": {"gate": {"name": "displacement", "s": 0.0, "theta_3": 0.0}},
        "enumerate": True,
    },
    "cz2": {
        "detection": {
            "matrix": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        },
        "target": {"graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]}},
    },
}

#: Builders for targets referenced by name.
NAMED_TARGETS = {
    "lin4": linear_cluster_4,
}


def deep_merge(base: dict, override: dict) -> dict:
    """Recursively merge ``override`` into ``base`` (override wins)."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


#: The forms a ``target`` block can take; exactly one is given.
_TARGET_FORMS = frozenset({"matrix", "graph", "gate", "named", "identity"})


def expand_preset(config: dict) -> dict:
    """Replace a ``preset`` key with its fragment, user keys winning.

    ``target`` is a choice block: when the user picks a different target form
    than the preset, the preset's form is dropped rather than merged in.
    Likewise a user ``modes`` block replaces a preset's explicit ``detection``
    matrix.
    """
    if "preset" not in config:
        return copy.deepcopy(config)
    name = config["preset"]
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    user = {k: v for k, v in config.items() if k != "preset"}
    merged = deep_merge(PRESETS[name], user)
    user_forms = _TARGET_FORMS & set(user.get("target", {}))
    if user_forms and isinstance(merged.get("target"), dict):
        merged["target"] = {
            k: v for k, v in merged["target"].items() if k in user_forms
        }
    if "modes" in user and "detection" not in user:
        merged.pop("detection", None)
    merged["preset"] = name
    return merged
