"""Command-line front end: synthesize / cluster / gate / simulate.

Configs are JSON documents validated against the per-command key schema
``ALLOWED_KEYS``: unknown keys are rejected and every accepted key is read.
A ``preset`` is merged under the user's config by :func:`merge`: user keys
win, a block listed in ``_CHOICES`` takes one of its alternatives (the one
the user picks displaces the preset's other ones, and two alternatives from
the user are a usage error), and the preset's keys the command does not read
are dropped. Integer leaves (``_INT_KEYS``) must be JSON integers, real
leaves (``_REAL_KEYS``) JSON numbers, boolean leaves (``_BOOL_KEYS``) JSON
booleans, path leaves (``_PATH_KEYS``) strings and array leaves
(``_ARRAY_KEYS``) rectangular arrays of numbers. ``optimizer`` takes only
``max_iters`` and ``restarts``, each at least 1; its seed is ``seed`` and its
tolerance ``tolerances.feasibility``.
The schema also gives each command its flags: ``--seed``, ``--branch`` and
``--tol`` exist only where the command reads ``seed``, ``branch`` and
``tolerances`` (``synthesize`` and ``gate`` take all three, ``simulate``
``--seed`` and ``--branch``, ``cluster`` none), and a given flag overrides
its config value. ``cluster`` reads only ``graph`` and ``freedom.matrix`` and
reports the graph's algebra; ``synthesize`` on a ``target.graph`` is the one
route from a graph to a detector. ``gate`` is ``synthesize`` on a gate target,
whose report carries the compiled ``program``, plus one run of that program
on the synthesized detector when ``r`` is given. Report builders put arrays
in the report as they are; ``_write_report`` encodes them with
:func:`mat_to_json` (complex arrays as ``{"re", "im"}``, real arrays as
nested lists) and stamps each report with ``schema_version``, ``command``
and ``timing``. Each value is written once, in the block that owns it:
``Delta_LO`` as each solution's ``phases``, the tolerance as
``feasibility.tol`` and a gate's angles and offsets in ``program``.
``simulate`` writes a CSV of its samples only when the config names a
``csv_path``. Exit codes:
0 success, 2 infeasible target in ``synthesize`` or ``gate`` (with the best
approximate result still reported), 1 usage or validation error; ``cluster``
and ``simulate`` never exit 2.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import cluster as cluster_mod
from . import gsim, mbqc, modes, synth
from .errors import ConfigError, MPHDError
from .matcore import DEFAULT_TOL, DiagonalUnitary, as_complex_matrix

SCHEMA_VERSION = 1

log = logging.getLogger("mphd")

_COMMON_KEYS = {"preset", "modes", "pixels", "opo_phases", "detection"}
_SYNTH_KEYS = _COMMON_KEYS | {"tolerances", "seed", "target", "optimizer", "branch", "enumerate"}
#: The top-level keys each command reads; also the source of its flags.
ALLOWED_KEYS = {
    "synthesize": _SYNTH_KEYS,
    "cluster": {"graph", "freedom"},
    "gate": _SYNTH_KEYS | {"r", "input_squeezing"},
    "simulate": _COMMON_KEYS
    | {"seed", "target", "solution", "solution_report", "branch", "plan", "r", "shots", "csv_path"},
}

#: Blocks merged key by key and checked against these keys; other values are leaves.
_NESTED_KEYS = {
    "modes": {"n", "lo_index", "file"},
    "pixels": {"boundaries"},
    "detection": {"matrix"},
    "target": {"matrix", "graph", "gate", "identity"},
    "graph": {"adjacency", "edges", "n"},
    "gate": {"name", "s", "theta_3"},
    "tolerances": {"feasibility"},
    "optimizer": {"max_iters", "restarts"},
    "plan": {"angles", "offsets", "gains"},
    "solution": {"phases", "gains"},
    "freedom": {"matrix"},
}

#: Per block (``None``: the top level), the alternatives of which a config gives one.
_CHOICES = {
    None: ({"detection"}, {"modes", "pixels", "opo_phases"}),
    "modes": ({"file"}, {"n"}),
    "graph": ({"adjacency"}, {"edges", "n"}),
    "target": tuple({form} for form in sorted(_NESTED_KEYS["target"])),
}

#: Leaves that must be JSON integers, numbers, booleans or file paths, in any block.
_INT_KEYS = {"n", "lo_index", "seed", "shots", "max_iters", "restarts"}
_REAL_KEYS = {"r", "input_squeezing", "theta_3", "s", "feasibility"}
_BOOL_KEYS = {"enumerate", "identity"}
_PATH_KEYS = {"file", "solution_report", "csv_path"}
#: Leaves that must be numbers or (nested) lists of them, in any block; ``null`` leaves them unset.
_ARRAY_KEYS = {"phases", "gains", "angles", "offsets", "adjacency", "opo_phases", "boundaries"}

#: Flags by the schema key they override: (flag, type, nested key or None, help).
_FLAGS = {
    "seed": ("--seed", int, None, "override the config seed"),
    "branch": ("--branch", str, None, "square-root branch bits, e.g. 1001"),
    "tolerances": ("--tol", float, "feasibility", "override the feasibility tolerance"),
}


def merge(base: dict, user: dict, allowed: set, block: str | None = None) -> dict:
    """Lay the ``user`` config ``block`` over the preset's ``base`` one.

    User keys must lie in ``allowed`` and give at most one alternative of each
    ``_CHOICES`` entry; the alternative the user picks displaces the base's
    other ones, and base keys outside ``allowed`` are dropped. Blocks named in
    ``_NESTED_KEYS`` merge recursively; any other user value replaces the
    base's whole, and must be an integer under a ``_INT_KEYS`` name, a number
    under a ``_REAL_KEYS`` one, a boolean under a ``_BOOL_KEYS`` one and a
    string under a ``_PATH_KEYS`` one; a non-null value under an ``_ARRAY_KEYS``
    name must be a rectangular array of numbers.
    """
    where = f"config.{block}" if block else "config"
    if not isinstance(user, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if unknown := set(user) - allowed:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )
    alternatives = _CHOICES.get(block.rpartition(".")[2] if block else None, ())
    picked = [alt for alt in alternatives if alt & set(user)]
    if len(picked) > 1:
        given = [sorted(alt & set(user)) for alt in picked]
        raise ConfigError(f"{where} gives {given}: alternatives, of which one is read")
    keep = allowed - (set().union(*alternatives) - picked[0] if picked else set())
    out = {key: copy.deepcopy(value) for key, value in base.items() if key in keep}
    for key, value in user.items():
        name = f"{block}.{key}" if block else key
        if key in _NESTED_KEYS:
            sub = out.get(key) if isinstance(out.get(key), dict) else {}
            value = merge(sub, value, _NESTED_KEYS[key], name)
        elif key in _INT_KEYS and type(value) is not int:
            raise ConfigError(f"config.{name} must be an integer, got {value!r}")
        elif key in _REAL_KEYS and type(value) not in (int, float):
            raise ConfigError(f"config.{name} must be a number, got {value!r}")
        elif key in _BOOL_KEYS and type(value) is not bool:
            raise ConfigError(f"config.{name} must be true or false, got {value!r}")
        elif key in _PATH_KEYS and not isinstance(value, str):
            raise ConfigError(f"config.{name} must be a file path, got {value!r}")
        elif key in _ARRAY_KEYS and value is not None:
            _real_array(value, f"config.{name}")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# matrix (de)serialization

def mat_to_json(obj):
    """The report encoder, ``json``'s ``default``: arrays and numpy scalars to JSON values."""
    if isinstance(obj, np.generic):
        return obj.item()
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return {"re": obj.real.tolist(), "im": obj.imag.tolist()} if np.iscomplexobj(obj) else obj.tolist()


def mat_from_json(doc, context: str = "matrix") -> np.ndarray:
    """Decode ``{"re", "im"}`` (``im`` optional) into a complex array; errors name ``context``."""
    if not isinstance(doc, dict) or "re" not in doc:
        raise ConfigError(f"{context} must be an object with 're' (and optional 'im') arrays")
    re, im = (_real_array(doc.get(key, 0.0), f"{context}.{key}") for key in ("re", "im"))
    if "im" in doc and re.shape != im.shape:
        raise ConfigError(f"{context}: 're' and 'im' shapes differ")
    return re + 1j * im


def _real_array(value, where: str) -> np.ndarray:
    """Nested lists of JSON numbers (not booleans or strings) as a float array."""
    try:
        if _all_numbers(value):
            return np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged nesting, an integer beyond float
        pass
    raise ConfigError(f"{where} must be a rectangular array of numbers")


def _all_numbers(value) -> bool:
    return all(map(_all_numbers, value)) if isinstance(value, list) else type(value) in (int, float)


# ---------------------------------------------------------------------------
# presets: the worked examples, stating only what differs from a default (the
# mode count, the OPO dephasings and the target); every other key takes its
# default where it is read

_FLIP4 = {"modes": {"n": 4}}
_GATE_OPO = [0.0, 0.0, -np.pi / 2, np.pi / 2]

#: Preset fragments; :func:`merge` lays the user's config over them.
PRESETS: dict[str, dict] = {
    "identity": {**_FLIP4, "target": {"identity": True}},
    "lin4": {
        **_FLIP4,
        "opo_phases": [0.0, -np.pi / 2, -np.pi / 2, 0.0],
        "target": {"matrix": mat_to_json(cluster_mod.linear_cluster_4())},
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


# ---------------------------------------------------------------------------
# config resolution

def _resolve_detection(config):
    """Build the detection front end from the config; return (setup, echo).

    An explicit detection.matrix stands for G itself, with identity
    dephasings; ``merge`` keeps it and the modes/pixels/opo keys apart.
    """
    if "detection" in config:
        if "matrix" not in config["detection"]:
            raise ConfigError("config.detection needs a 'matrix'")
        g = as_complex_matrix(
            mat_from_json(config["detection"]["matrix"], "detection.matrix"), "detection.matrix"
        )
        setup = modes.DetectionSetup(u_t=g, delta_opo=DiagonalUnitary.identity(g.shape[1]), g=g)
        return setup, {"detection": {"matrix": g}}
    if "modes" not in config:
        unread = sorted({"pixels", "opo_phases"} & set(config))
        raise ConfigError(
            "config needs either 'detection.matrix' or a 'modes' block"
            + (f"; {unread} would be ignored" if unread else "")
        )
    mode_cfg = config["modes"]
    if "file" in mode_cfg:
        basis = modes.load_mode_basis(mode_cfg["file"])
    else:
        basis = modes.flip_mode_basis(mode_cfg.get("n", 4))
    lo_index = mode_cfg.get("lo_index", 0)
    boundaries = config.get("pixels", {}).get("boundaries")
    if boundaries is None:
        partition = modes.PixelPartition.equal(basis.n_modes)
    elif (count := np.size(boundaries) - 1) != basis.n_modes:
        raise ConfigError(f"pixels gives {count} pixels for {basis.n_modes} modes; G must be square")
    else:
        partition = modes.PixelPartition(boundaries)
    opo = config.get("opo_phases")
    if opo is not None and np.size(opo) != basis.n_modes:
        raise ConfigError(f"opo_phases gives {np.size(opo)} dephasings for {basis.n_modes} modes")
    setup = modes.detection_setup(basis, lo_index, partition, opo)
    echo = {
        "modes": {
            "family": "file" if "file" in mode_cfg else "flip",
            "n": basis.n_modes,
            "lo_index": lo_index,
        },
        "pixels": {"boundaries": partition.boundaries},
        "opo_phases": setup.delta_opo.phases,
        "u_t": setup.u_t.astype(complex),  # {"re", "im"} for a real basis too
        "g": setup.g,
    }
    return setup, echo


def _graph_adjacency(doc) -> np.ndarray:
    if "adjacency" in doc:
        return cluster_mod.validate_adjacency(np.asarray(doc["adjacency"], dtype=float))
    if "edges" in doc:
        edges, n = doc["edges"], doc.get("n", 0)
        if not isinstance(edges, list) or n < 0:
            raise ConfigError("graph.edges must be a list and graph.n a non-negative integer")
        for edge in edges:
            if not (
                isinstance(edge, list)
                and len(edge) in (2, 3)
                and all(type(k) is int and k >= 0 for k in edge[:2])
                and all(type(w) in (int, float) for w in edge[2:])
            ):
                raise ConfigError(f"graph edge {edge!r} is not [i, j(, weight)] with i, j >= 0")
        n = n or max((max(e[:2]) + 1 for e in edges), default=0)
        if n < 1 or any(max(e[:2]) >= n for e in edges):
            raise ConfigError(f"graph needs at least one vertex and edge indices below n = {n}")
        v = np.zeros((n, n))
        for edge in edges:
            v[edge[0], edge[1]] = v[edge[1], edge[0]] = float(edge[2]) if len(edge) > 2 else 1.0
        return cluster_mod.validate_adjacency(v)
    raise ConfigError("graph needs 'adjacency' or 'edges'")


def _resolve_target(config, g):
    """Materialize the target block: ``(u_th, echo, program)``.

    ``program`` is the compiled :class:`~mphd.mbqc.GateProgram` of a gate
    target and ``None`` for every other form.
    """
    tdoc = config.get("target")
    if tdoc is None:
        raise ConfigError("config is missing the 'target' block")
    if tdoc.get("identity"):
        return np.asarray(g, dtype=complex).copy(), {"identity": True}, None
    if "matrix" in tdoc:
        u = mat_from_json(tdoc["matrix"], "target.matrix")
        return u, {"matrix": u}, None
    if "graph" in tdoc:
        v = _graph_adjacency(tdoc["graph"])
        u = cluster_mod.cluster_unitary(v).u
        return u, {"graph": {"adjacency": v}, "matrix": u}, None
    if "gate" not in tdoc:
        given = "config.target.identity is false; " if "identity" in tdoc else ""
        raise ConfigError(f"{given}target needs one of: {', '.join(sorted(_NESTED_KEYS['target']))}")
    name, theta_3 = tdoc["gate"].get("name"), float(tdoc["gate"].get("theta_3", 0.0))
    if name == "fourier":
        program = mbqc.fourier_program(theta_3)
    elif name == "displacement":
        program = mbqc.displacement_program(float(tdoc["gate"].get("s", 0.0)), theta_3)
    else:
        raise ConfigError(f"unknown gate name {name!r}; available: fourier, displacement")
    return program.u_th, {"gate": {"name": name}, "matrix": program.u_th}, program


def _solution_to_json(sol: synth.SynthesisSolution) -> dict:
    doc = {"phases": sol.delta_lo.phases, "gains": sol.gains}
    if np.isfinite(sol.residual):
        doc["residual"] = sol.residual
    if sol.branch_id is not None:
        doc["branch"] = "".join(str(b) for b in sol.branch_id)
    return doc


def _solution_from_config(config) -> synth.SynthesisSolution:
    if "solution" in config:
        if {"solution_report", "branch"} & set(config):
            raise ConfigError("an inline 'solution' takes no 'solution_report' or 'branch'")
        doc = config["solution"]
    elif "solution_report" in config:
        path, branch = config["solution_report"], config.get("branch")
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        report = report if isinstance(report, dict) else {}
        listed = report.get("solutions", [])
        if not isinstance(listed, list):
            raise ConfigError(f"report {path}: solutions must be a JSON list, got {listed!r}")
        sols = {f"solutions[{i}]": s for i, s in enumerate(listed)}
        if not sols and branch is None and isinstance(report.get("approx"), dict):
            # an infeasible target's best fit
            sols = {"approx.solution": report["approx"].get("solution", {})}
        for name, sol in sols.items():
            if not isinstance(sol, dict):
                raise ConfigError(f"report {path}: {name} must be a JSON object, got {sol!r}")
        matches = [s for s in sols.values() if branch is None or s.get("branch") == branch]
        if not matches:
            wanted = "no solutions" if branch is None else f"no solution with branch {branch!r}"
            raise ConfigError(f"report {path} holds {wanted}")
        doc = matches[0]
    else:
        raise ConfigError("simulate needs 'solution' (inline) or 'solution_report'")
    if missing := {"phases", "gains"} - set(doc):
        raise ConfigError(f"solution is missing {sorted(missing)}")
    return synth.SynthesisSolution(
        delta_lo=DiagonalUnitary(_real_array(doc["phases"], "solution.phases")),
        gains=_real_array(doc["gains"], "solution.gains"),
        residual=float("nan"),
    )


def _parse_branch(text, n) -> tuple:
    text = str(text)
    if len(text) != n or set(text) - {"0", "1"}:
        raise ConfigError(f"branch must be {n} bits of 0/1, got {text!r}")
    return tuple(map(int, text))


# ---------------------------------------------------------------------------
# commands

def cmd_synthesize(config: dict) -> tuple[dict, int]:
    """Compile the target onto the detector; a gate target also reports its program.

    With ``r`` (read by ``gate`` only), the gate program runs on the detector
    of the lead solution, ``O . Delta_LO . G``, and the report gains its
    ``verification`` block.
    """
    tol = float(config.get("tolerances", {}).get("feasibility", DEFAULT_TOL))
    setup, det_echo = _resolve_detection(config)
    g = setup.g
    u_th, target_echo, program = _resolve_target(config, g)
    report: dict = {"config": {**det_echo, "target": target_echo}}
    fre = synth.feasibility(u_th, g, tol)
    report["feasibility"] = {
        "feasible": fre.feasible,
        "offdiag_residual": fre.offdiag_residual,
        "modulus_residual": fre.modulus_residual,
        "tol": fre.tol,
        "d_candidate": fre.d_candidate,
    }
    if fre.feasible:
        if config.get("branch") is not None:
            bits = _parse_branch(config["branch"], fre.dim)
            sols = [synth.solve_exact(fre, g, u_th, bits)]
        elif config.get("enumerate", fre.dim <= 8):
            sols = synth.enumerate_solutions(fre, g, u_th)
        else:
            sols = [synth.solve_exact(fre, g, u_th)]
        report["solutions"] = [_solution_to_json(s) for s in sols]
        lead, code = sols[0], 0
    else:
        result = synth.solve_approx(
            u_th, g, seed=config.get("seed", 0), tol=tol, **config.get("optimizer", {})
        )
        report["approx"] = {
            "residual": result.solution.residual,
            "iterations": result.iterations,
            "converged": result.converged,
            "objective_trace": result.objective_trace,
            "solution": _solution_to_json(result.solution),
        }
        report["solutions"] = []
        lead, code = result.solution, 2
    if program is not None:
        report["program"] = {
            "name": program.name,
            **dataclasses.asdict(program.plan),
            "target_gate": program.target_gate,
        }
    if "r" in config:
        r, r_in = float(config["r"]), float(config.get("input_squeezing", 1.0))
        output, verification = gsim.run_gate_program(
            dataclasses.replace(program, u_th=lead.unitary(g)),
            gsim.squeezed_input(1, r_in, ["q"]),
            r,
            seed=config.get("seed", 0),
        )
        report["verification"] = {
            "r": r,
            "input_squeezing": r_in,
            **dataclasses.asdict(verification),
            "output_mean": output.mean,
            "output_cov": output.cov,
        }
    return report, code


def cmd_cluster(config: dict) -> tuple[dict, int]:
    """Report the graph's algebra: ``A``, ``X_s``, the freedom ``O_f`` and ``U``."""
    if "graph" not in config:
        raise ConfigError("cluster command needs a 'graph' block")
    v = _graph_adjacency(config["graph"])
    solution = cluster_mod.cluster_unitary(v, config.get("freedom", {}).get("matrix"))
    validation = cluster_mod.validate_cluster(solution.u, v)
    report = {
        "config": {"graph": {"adjacency": v}},
        "a": solution.a,
        "x_s": solution.x_s,
        "freedom": solution.orthogonal_freedom,
        "u": solution.u,
        "validation": dataclasses.asdict(validation),
    }
    return report, 0


def cmd_gate(config: dict) -> tuple[dict, int]:
    if "gate" not in config.get("target", {}):
        raise ConfigError("gate command needs target.gate (fourier | displacement)")
    if "r" not in config and "input_squeezing" in config:
        raise ConfigError("config.input_squeezing is read only with 'r'")
    return cmd_synthesize(config)


def cmd_simulate(config: dict) -> tuple[dict, int]:
    setup, det_echo = _resolve_detection(config)
    csv_path = config.get("csv_path")
    sol = _solution_from_config(config)
    n = setup.g.shape[0]
    pdoc = config.get("plan", {})
    plan = mbqc.MeasurementPlan(
        angles=pdoc.get("angles", [0.0] * n),
        offsets=pdoc.get("offsets"),
        gains=pdoc.get("gains"),
    )
    r = float(config.get("r", 1.0))
    shots = config.get("shots", 1000)
    seed = config.get("seed", 0)
    result = gsim.simulate_mphd(setup, sol, plan, r, shots, seed)
    if csv_path is not None:
        gsim.export_samples_csv(result, csv_path)
    report: dict = {
        "config": {
            **det_echo,
            "plan": dataclasses.asdict(plan),
            "r": r,
            "shots": shots,
            "seed": seed,
        },
        "solution": _solution_to_json(sol),
        "csv_path": csv_path,
        "sample_mean": result.sample_mean,
        "sample_cov": result.sample_cov,
        "analytic_mean": result.analytic_mean,
        "analytic_cov": result.analytic_cov,
        "staged_vs_direct_residual": result.staged_vs_direct_residual,
    }
    if "target" in config:
        u_th, target_echo, _ = _resolve_target(config, setup.g)
        report["config"]["target"] = target_echo
        report["solution"]["residual"] = synth.verify_solution(sol, u_th, setup.g)
    return report, 0


COMMANDS = {
    "synthesize": cmd_synthesize,
    "cluster": cmd_cluster,
    "gate": cmd_gate,
    "simulate": cmd_simulate,
}


def _write_report(report: dict, command: str, out_path, elapsed: float) -> None:
    report.update(schema_version=SCHEMA_VERSION, command=command, timing={"seconds": elapsed})
    text = json.dumps(report, indent=2, sort_keys=True, default=mat_to_json)
    if out_path is None or out_path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mphd",
        description="Synthesize and verify multi-pixel homodyne detection networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, allowed in ALLOWED_KEYS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        for key, (flag, kind, _, text) in _FLAGS.items():
            if key in allowed:
                p.add_argument(flag, dest=key, type=kind, metavar=flag[2:].upper(), help=text)
    return parser


def run(argv=None) -> int:
    level = os.environ.get("MPHD_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; 2 means infeasible here
        return 1 if exc.code else 0
    started = time.perf_counter()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        preset = PRESETS.get(str(user["preset"])) if "preset" in user else {}
        if preset is None:
            raise ConfigError(f"unknown preset {user['preset']!r}; available: {sorted(PRESETS)}")
        config = merge(preset, user, ALLOWED_KEYS[args.command])
        for key, (_, _, nested, _) in _FLAGS.items():
            value = getattr(args, key, None)
            if value is not None:
                config[key] = {**config.get(key, {}), nested: value} if nested else value
        log.info("running %s with config %s", args.command, args.config)
        report, code = COMMANDS[args.command](config)
    except (MPHDError, OSError, ValueError, TypeError, MemoryError) as exc:
        log.debug("%s failed", args.command, exc_info=True)
        sys.stderr.write(f"mphd {args.command}: error: {exc}\n")
        return 1
    _write_report(report, args.command, args.out, time.perf_counter() - started)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
