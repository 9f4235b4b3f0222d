"""Named configurations for the worked examples the CLI ships with.

A preset states only what differs from a default: the mode count, the OPO
dephasings and the target. Every other key takes its default where it is read.
"""

from __future__ import annotations

import numpy as np

from .cluster import linear_cluster_4

_FLIP4 = {"modes": {"n": 4}}
_GATE_OPO = [0.0, 0.0, -np.pi / 2, np.pi / 2]

#: Preset fragments; ``cli.merge`` lays the user's config over them.
PRESETS: dict[str, dict] = {
    "identity": {**_FLIP4, "target": {"identity": True}},
    "lin4": {
        **_FLIP4,
        "opo_phases": [0.0, -np.pi / 2, -np.pi / 2, 0.0],
        "target": {"named": "lin4"},
    },
    "fourier": {**_FLIP4, "opo_phases": _GATE_OPO, "target": {"gate": {"name": "fourier"}}},
    "displacement": {
        **_FLIP4,
        "opo_phases": _GATE_OPO,
        "target": {"gate": {"name": "displacement"}},
    },
    "cz2": {
        "detection": {"matrix": {"re": [[1.0, 0.0], [0.0, 1.0]]}},
        "target": {"graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]}},
    },
}

#: Builders for targets referenced by name.
NAMED_TARGETS = {
    "lin4": linear_cluster_4,
}


#: The forms a ``target`` block can take; exactly one is given.
_TARGET_FORMS = frozenset({"matrix", "graph", "gate", "named", "identity"})
