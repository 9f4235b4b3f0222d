"""Named configurations for the worked examples the CLI ships with."""

from __future__ import annotations

import copy

import numpy as np

from .cluster import linear_cluster_4

_FLIP4 = {
    "modes": {"family": "flip", "n": 4, "grid_points": 4096, "domain": [0.0, 1.0], "lo_index": 0},
    "pixels": {"count": 4},
}

#: Preset fragments; ``cli.merge`` lays the user's config over them.
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


#: The forms a ``target`` block can take; exactly one is given.
_TARGET_FORMS = frozenset({"matrix", "graph", "gate", "named", "identity"})
