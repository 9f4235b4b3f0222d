"""The four workloads: job lists, inputs and program-side set-up.

A workload has three parts:

* ``inputs(rng)``: what the benchmark itself draws once per run from the seed
  (untimed);
* ``setup(inputs)``: the program-side work the jobs share (timed as part of
  ``setup_s``);
* ``cycle(ctx, rng)``: one pass through the fixed list of job groups, with
  fresh seeded inputs for each pass (drawn untimed, before the pass).

A job is one request a user would make. Its ``call`` is timed; its ``check``
runs afterwards, untimed, and raises ``CheckError`` on a wrong output. Jobs
call ``mphd`` through module attributes at call time, so the traced run sees
them through its wrappers. ``fault`` names a known program fault: such a job
fails on every run and is counted in ``failed``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from checks import CheckError, require
from oracle import circuit_unitary_float


@dataclass
class Job:
    group: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    fault: str | None = None


def haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def haar_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))[None, :]


def planted(rng, g):
    """A feasible target U = O . Delta . G with its planted parameters."""
    n = g.shape[0]
    o = haar_orthogonal(rng, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    return o, phi, checks.mphd_unitary(o, phi, g)


def weighted_graph(rng, n: int, density: float = 0.3) -> np.ndarray:
    upper = np.triu(rng.uniform(0.2, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    return upper + upper.T


def path_graph(rng, n: int) -> np.ndarray:
    v = np.zeros((n, n))
    idx = np.arange(n - 1)
    v[idx, idx + 1] = v[idx + 1, idx] = rng.uniform(0.5, 1.5)
    return v


def repeat(spec):
    """Expand [(group, count), ...] into the cycle's group order."""
    return [group for group, count in spec for _ in range(count)]


# ---------------------------------------------------------------------------
# compile: graph-state generators and planted exact targets

class Compile:
    """Exact compilation: cluster_unitary on graphs, feasibility/enumeration/solve_exact on planted targets."""

    name = "compile"
    FLIP_N = (4, 8, 16, 32, 64)
    EXACT_BRANCHES = 16
    CYCLE = [
        ("exact-16", 2), ("exact-32", 2), ("exact-64", 4), ("enum-4", 2), ("graph-8", 2),
        ("graph-20", 28), ("enum-8", 2), ("enum-10", 2),
        ("graph-32", 4), ("enum-12", 3), ("graph-40", 1),
    ]

    def __init__(self, mphd, workdir, sizes=None):
        self.mphd = mphd
        self.cycle_spec = sizes or self.CYCLE

    def inputs(self, rng):
        return {n: rng.uniform(0.0, 2 * np.pi, n) for n in self.FLIP_N}

    def setup(self, opo):
        m = self.mphd
        return {
            n: m.detection_setup(m.flip_mode_basis(n), 0, m.PixelPartition.equal(n), opo[n]).g
            for n in self.FLIP_N
        }

    def cycle(self, fronts, rng):
        jobs = []
        for group in repeat(self.cycle_spec):
            kind, n = group.split("-")
            n = int(n)
            if kind == "graph":
                v = weighted_graph(rng, n) if rng.random() < 0.75 else path_graph(rng, n)
                jobs.append(self._graph(group, v))
            else:
                g = fronts[n] if n in fronts else haar_unitary(rng, n)
                o, phi, u = planted(rng, g)
                if kind == "enum":
                    jobs.append(self._enumerate(group, g, o, phi, u))
                else:
                    bits = rng.integers(0, 2, (self.EXACT_BRANCHES, n))
                    jobs.append(self._exact(group, g, o, phi, u, bits))
        return jobs

    def _graph(self, group, v):
        def check(sol):
            checks.check_cluster(v, sol.a, sol.x, sol.u)
        return Job(group, lambda: self.mphd.cluster_unitary(v), check)

    def _enumerate(self, group, g, o, phi, u):
        m = self.mphd

        def call():
            report = m.feasibility(u, g)
            sols = m.enumerate_solutions(report, g, u)
            return report, sols, [m.verify_solution(s, u, g) for s in sols]

        def check(out):
            report, sols, dists = out
            require(report.feasible, "feasibility: planted target reported infeasible")
            checks.check_enumeration(sols, o, phi, g, u)
            require(max(dists) <= 1e-9 * np.sqrt(u.shape[0]), "verify_solution: an exact branch has a large residual")
        return Job(group, call, check)

    def _exact(self, group, g, o, phi, u, bits):
        m = self.mphd

        def call():
            report = m.feasibility(u, g)
            sols = [m.solve_exact(report, g, u, b) for b in bits]
            return report, sols, [m.verify_solution(s, u, g) for s in sols]

        def check(out):
            report, sols, dists = out
            require(report.feasible, "feasibility: planted target reported infeasible")
            for b, sol, dist in zip(bits, sols, dists):
                require(sol.branch_id == tuple(int(x) for x in b), "solve_exact: wrong branch id")
                checks.check_exact(sol, o, phi, g, u)
                checks.check_distance(dist, sol, g, u)
        return Job(group, call, check)


# ---------------------------------------------------------------------------
# approx: the alternating optimizer

class Approx:
    """solve_approx at its defaults on Haar, planted and cz2 problems."""

    name = "approx"
    CYCLE = [
        ("cz2-2", 3), ("planted-8", 3), ("haar-2", 1), ("planted-24", 13), ("planted-32", 4), ("haar-3", 1),
    ]

    def __init__(self, mphd, workdir, sizes=None):
        self.mphd = mphd
        self.cycle_spec = sizes or self.CYCLE

    def inputs(self, rng):
        return None

    def setup(self, _):
        # the cz2 problem: the two-mode cluster generator on a trivial front end
        return self.mphd.cluster_unitary(np.array([[0.0, 1.0], [1.0, 0.0]])).u

    def cycle(self, u_cz2, rng):
        jobs = []
        for group in repeat(self.cycle_spec):
            kind, n = group.split("-")
            n = int(n)
            if kind == "cz2":
                g, u = np.eye(2, dtype=complex), u_cz2
            elif kind == "planted":
                g = haar_unitary(rng, n)
                u = planted(rng, g)[2]
            else:
                g, u = haar_unitary(rng, n), haar_unitary(rng, n)
            jobs.append(self._job(group, u, g, int(rng.integers(2**31)), kind == "planted"))
        return jobs

    def _job(self, group, u, g, seed, is_planted):
        def check(res):
            sol = res.solution
            checks.check_approx(sol.gains, sol.delta_lo.phases, sol.residual, res.objective_trace, res.iterations, u, g, is_planted)
        return Job(group, lambda: self.mphd.solve_approx(u, g, seed=seed), check)


# ---------------------------------------------------------------------------
# verify: Gaussian simulation of compiled detectors

class Verify:
    """simulate_mphd, CSV export, gate programs and homodyne chains."""

    name = "verify"
    SIM_N = (4, 8, 16, 32)
    CHAIN_N = (8, 12, 16)
    GATE_R = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    FAULT_GATE_R = (12.0, 16.0, 20.0)
    FAULT_SIM_R = (8.0, 10.0)
    R_IN = 1.0
    CHAIN_R = 1.0
    LIN4_OPO = (0.0, -np.pi / 2, -np.pi / 2, 0.0)
    CYCLE = [
        ("gate-fault", 3), ("sim-fault", 2), ("chain-8", 2), ("chain-12", 2), ("chain-16", 2),
        ("gate-fourier", 8), ("gate-displacement", 8),
        ("sim-16-20000", 4), ("sim-32-10000", 4), ("sim-8-50000", 3),
        ("sim-4-1000000", 1), ("sim-4-10000", 1), ("csv", 1),
    ]

    def __init__(self, mphd, workdir, sizes=None):
        self.mphd = mphd
        self.workdir = workdir
        self.cycle_spec = sizes or self.CYCLE

    def inputs(self, rng):
        return {
            "opo": {n: rng.uniform(0.0, 2 * np.pi, n) for n in self.SIM_N},
            "planted": {n: (haar_orthogonal(rng, n), rng.uniform(-np.pi, np.pi, n)) for n in self.SIM_N},
            "s": rng.uniform(-2.0, 2.0),
        }

    def setup(self, inp):
        m = self.mphd
        ctx = {"fronts": {}, "solutions": {}, "full": {}, "chains": {}}
        for n in self.SIM_N:
            setup = m.detection_setup(m.flip_mode_basis(n), 0, m.PixelPartition.equal(n), inp["opo"][n])
            o, phi = inp["planted"][n]
            u = checks.mphd_unitary(o, phi, setup.g)
            ctx["fronts"][n] = setup
            ctx["solutions"][n] = m.solve_exact(m.feasibility(u, setup.g), setup.g, u)
            ctx["full"][n] = u
        lin4_setup = m.detection_setup(m.flip_mode_basis(4), 0, m.PixelPartition.equal(4), list(self.LIN4_OPO))
        lin4 = m.linear_cluster_4()
        ctx["lin4"] = (lin4_setup, m.enumerate_solutions(m.feasibility(lin4, lin4_setup.g), lin4_setup.g, lin4)[9])
        ctx["fourier"] = m.fourier_program()
        ctx["displacement"] = m.displacement_program(inp["s"])
        ctx["input"] = m.squeezed_input(1, self.R_IN, ["q"])
        for n in self.CHAIN_N:
            u = m.cluster_unitary(m.path_adjacency(n)).u
            state = m.apply(m.symplectic_from_unitary(u), m.squeezed_input(n, self.CHAIN_R))
            s = checks.symplectic(u)
            ctx["chains"][n] = (state, np.zeros(2 * n), s @ checks.squeezed_cov(n, self.CHAIN_R) @ s.T)
        return ctx

    def cycle(self, ctx, rng):
        jobs, last = [], {}
        fault_r = {"gate-fault": iter(self.FAULT_GATE_R), "sim-fault": iter(self.FAULT_SIM_R)}
        for group in repeat(self.cycle_spec):
            parts = group.split("-")
            if group in ("gate-fourier", "gate-displacement"):
                seeds = rng.integers(2**31, size=len(self.GATE_R))
                jobs.append(self._gate(group, ctx[parts[1]], ctx["input"], self.GATE_R, seeds))
            elif group == "gate-fault":
                jobs.append(self._gate(group, ctx["fourier"], ctx["input"], [next(fault_r[group])], [1],
                                       fault="run_gate_program loses precision in the Schur-complement step at large r"))
            elif group == "sim-fault":
                jobs.append(self._lin4_fault(ctx["lin4"], next(fault_r[group])))
            elif parts[0] == "chain":
                n = int(parts[1])
                jobs.append(self._chain(group, ctx["chains"][n], rng.uniform(0.0, np.pi, n - 1), rng.integers(2**31, size=n - 1)))
            elif parts[0] == "sim":
                n, shots = int(parts[1]), int(parts[2])
                plan = self.mphd.MeasurementPlan(
                    angles=rng.uniform(0.0, np.pi, n), offsets=rng.normal(0.0, 1.0, n), gains=rng.uniform(1.0, 2.0, n)
                )
                r = float(rng.choice([0.5, 1.0, 1.5]))
                jobs.append(self._simulate(group, ctx, n, plan, r, shots, int(rng.integers(2**31)), last))
            else:
                jobs.append(self._csv(group, last))
        return jobs

    def _gate(self, group, program, inp, r_values, seeds, fault=None):
        """One program run over a sweep of cluster squeezing values."""
        def call():
            return [self.mphd.run_gate_program(program, inp, r, seed=int(seed)) for r, seed in zip(r_values, seeds)]

        def check(out):
            for r, (state, ver) in zip(r_values, out):
                checks.check_gate(state.mean, state.cov, program.plan.offsets, program.plan.gains, r, self.R_IN, ver.cov_distance)
        return Job(group, call, check, fault)

    def _lin4_fault(self, lin4, r):
        setup, sol = lin4
        plan = self.mphd.MeasurementPlan(angles=[0.0] * 4)

        def check(res):
            checks.check_simulation(res, checks.mphd_unitary(sol.gains, sol.delta_lo.phases, setup.g), plan, r, 1000)
        return Job("sim-fault", lambda: self.mphd.simulate_mphd(setup, sol, plan, r, 1000, seed=7), check,
                   fault="simulate_mphd rejects its own covariance at r >= 8 (absolute symmetry tolerance)")

    def _chain(self, group, chain, angles, seeds):
        state, mean0, cov0 = chain

        def call():
            records, current = [], state
            for theta, seed in zip(angles, seeds):
                rec, current = self.mphd.homodyne_measure(current, 0, theta, rng_seed=int(seed))
                records.append(rec)
            return records, current

        def check(out):
            checks.check_chain(out[0], out[1], mean0, cov0, angles)
        return Job(group, call, check)

    def _simulate(self, group, ctx, n, plan, r, shots, seed, last):
        def call():
            last["result"] = self.mphd.simulate_mphd(ctx["fronts"][n], ctx["solutions"][n], plan, r, shots, seed=seed)
            return last["result"]

        def check(res):
            checks.check_simulation(res, ctx["full"][n], plan, r, shots)
        return Job(group, call, check)

    def _csv(self, group, last):
        path = os.path.join(self.workdir, "samples.csv")

        def call():
            self.mphd.export_samples_csv(last["result"], path)
            return last["result"]

        def check(res):
            checks.check_csv(path, res)
        return Job(group, call, check)


# ---------------------------------------------------------------------------
# cli: one child interpreter per call

class Cli:
    """python -m mphd.cli synthesize | cluster | gate | simulate, one child per call."""

    name = "cli"
    CYCLE = [
        ("cluster", 6), ("synthesize-lin4", 2), ("synthesize-fourier", 2), ("synthesize-cz2", 2),
        ("gate-fourier", 2), ("gate-displacement", 2), ("simulate", 4),
    ]
    SHOTS = 5000

    def __init__(self, mphd, workdir, sizes=None, env=None, in_process=False):
        self.mphd = mphd
        self.workdir = workdir
        self.cycle_spec = sizes or self.CYCLE
        self.env = env
        self.in_process = in_process
        self.count = 0

    def _path(self, stem):
        self.count += 1
        return os.path.join(self.workdir, f"{stem}-{self.count}.json")

    def _write_config(self, config):
        path = self._path("config")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path

    def _call(self, argv) -> int:
        if self.in_process:
            return self.mphd.cli.run(argv)
        return subprocess.run([sys.executable, "-m", "mphd.cli", *argv], env=self.env, cwd=self.workdir,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120).returncode

    def invoke(self, command, config_path, out_path):
        """One CLI call; returns (exit code, report or None)."""
        code = self._call([command, "--config", config_path, "--out", out_path])
        report = None
        if os.path.exists(out_path):
            with open(out_path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(out_path)
        return code, report

    def inputs(self, rng):
        return self._write_config({"preset": "lin4"})

    def setup(self, config_path):
        report_path = os.path.join(self.workdir, "lin4-report.json")
        code = self._call(["synthesize", "--config", config_path, "--out", report_path])
        if code != 0:
            raise CheckError(f"set-up synthesize exited {code}")
        with open(report_path, "r", encoding="utf-8") as fh:
            return report_path, json.load(fh)

    def cycle(self, ctx, rng):
        report_path, lin4_report = ctx
        jobs = []
        for group in repeat(self.cycle_spec):
            kind = group.split("-")
            if kind[0] == "cluster":
                n = int(rng.integers(3, 7))
                v = weighted_graph(rng, n, density=0.6)
                jobs.append(self._job(group, "cluster", {"graph": {"adjacency": v.tolist()}}, 0,
                                      lambda rep, v=v: check_cluster_report(rep, v)))
            elif kind[0] == "synthesize":
                preset = kind[1]
                config = {"preset": preset}
                if preset == "cz2":
                    config["seed"] = int(rng.integers(2**31))
                jobs.append(self._job(group, "synthesize", config, 2 if preset == "cz2" else 0,
                                      lambda rep, p=preset: check_synthesize_report(rep, p)))
            elif kind[0] == "gate":
                config = {"preset": kind[1], "r": 6.0, "seed": int(rng.integers(2**31))}
                if kind[1] == "displacement":
                    config["target"] = {"gate": {"name": "displacement", "s": float(rng.uniform(-2.0, 2.0))}}
                jobs.append(self._job(group, "gate", config, 0, check_gate_report))
            else:
                csv_path = self._path("samples").replace(".json", ".csv")
                config = {
                    "preset": "lin4", "solution_report": report_path,
                    "branch": "".join(map(str, rng.integers(0, 2, 4))),
                    "r": float(rng.choice([0.5, 1.0, 2.0])), "shots": self.SHOTS, "seed": int(rng.integers(2**31)),
                    "plan": {"angles": rng.uniform(0.0, np.pi, 4).tolist()}, "csv_path": csv_path,
                }
                jobs.append(self._job(group, "simulate", config, 0,
                                      lambda rep, c=config: check_simulate_report(rep, c, lin4_report)))
        return jobs

    def _job(self, group, command, config, expected_code, check_report):
        config_path = self._write_config(config)
        out_path = self._path("report")

        def check(out):
            code, report = out
            require(code == expected_code, f"cli {command}: exit {code}, expected {expected_code}")
            require(report is not None and report.get("schema_version") == 1, f"cli {command}: no report with schema_version 1")
            require(report.get("command") == command, f"cli {command}: report names command {report.get('command')!r}")
            check_report(report)
        return Job(group, lambda: self.invoke(command, config_path, out_path), check)


def _matrix(doc) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc.get("im", 0.0), dtype=float)


def _check_solutions(report, g, u, count=None):
    sols = report["solutions"]
    require(count is None or len(sols) == count, f"cli synthesize: {len(sols)} solutions, expected {count}")
    for doc in sols:
        checks.check_orthogonal(np.asarray(doc["gains"]), "cli solution")
        residual = np.linalg.norm(checks.mphd_unitary(doc["gains"], doc["phases"], g) - u)
        require(residual <= 1e-9 * np.sqrt(u.shape[0]), "cli synthesize: a solution does not reproduce the target")


def check_synthesize_report(report, preset):
    if preset == "cz2":
        g = _matrix(report["config"]["detection"]["matrix"])
        u = _matrix(report["config"]["target"]["matrix"])
        require(np.allclose(g, np.eye(2), atol=1e-15), "cli cz2: front end is not the identity")
        require(np.allclose(u, (np.eye(2) + 1j * np.array([[0, 1], [1, 0]])) / np.sqrt(2), atol=1e-12), "cli cz2: target is not (I + iV)/sqrt2")
        require(report["feasibility"]["feasible"] is False and report["solutions"] == [], "cli cz2: reported feasible")
        approx = report["approx"]
        sol = approx["solution"]
        checks.check_approx(sol["gains"], sol["phases"], approx["residual"], approx["objective_trace"],
                            approx["iterations"], u, g, planted=False)
        return
    g = _matrix(report["config"]["g"])
    u = _matrix(report["config"]["target"]["matrix"])
    require(np.linalg.norm(g.conj().T @ g - np.eye(4)) <= 1e-9, "cli synthesize: front end is not unitary")
    if preset == "fourier":
        require(np.abs(u - circuit_unitary_float()).max() <= 1e-12, "cli synthesize: fourier target differs from the closed form")
    require(report["feasibility"]["feasible"] is True, "cli synthesize: feasible target reported infeasible")
    _check_solutions(report, g, u, count=16)


def check_cluster_report(report, v):
    a = np.asarray(report["a"])
    x_s = np.asarray(report["x_s"])
    u = _matrix(report["u"])
    require(np.array_equal(np.asarray(report["config"]["graph"]["adjacency"]), v), "cli cluster: adjacency echo differs")
    checks.check_cluster(v, a, x_s, u)
    require(report["validation"]["passed"] is True, "cli cluster: validation did not pass")


def check_gate_report(report):
    ver = report["verification"]
    prog = report["program"]
    checks.check_gate(ver["output_mean"], ver["output_cov"], prog["offsets"], prog["gains"], ver["r"],
                      ver["input_squeezing"], ver["cov_distance"])
    g = _matrix(report["config"]["g"])
    u = _matrix(report["config"]["target"]["matrix"])
    _check_solutions(report, g, u, count=16)


def check_simulate_report(report, config, lin4_report):
    g = _matrix(report["config"]["g"])
    sol = report["solution"]
    chosen = [s for s in lin4_report["solutions"] if s["branch"] == config["branch"]]
    require(len(chosen) == 1, "cli simulate: branch missing from the synthesize report")
    require(np.array_equal(sol["gains"], chosen[0]["gains"]) and np.array_equal(sol["phases"], chosen[0]["phases"]),
            "cli simulate: solution differs from the report it was read from")
    plan = report["config"]["plan"]
    require(np.array_equal(plan["angles"], config["plan"]["angles"]), "cli simulate: plan angles differ from the config")
    u_full = checks.mphd_unitary(sol["gains"], sol["phases"], g)
    mean, cov = checks.expected_measurement(u_full, plan["angles"], plan["gains"], plan["offsets"], config["r"])
    require(np.abs(np.asarray(report["analytic_cov"]) - cov).max() <= 1e-9 * np.abs(cov).max(), "cli simulate: analytic covariance differs from the propagated one")
    require(sol["residual"] <= 1e-9, "cli simulate: solution residual against the lin4 target is large")
    angles, outcomes = checks.parse_csv(config["csv_path"], 4)
    os.remove(config["csv_path"])
    require(outcomes.shape == (config["shots"], 4), "cli simulate: csv is not shots x N rows")
    require(np.array_equal(angles, np.broadcast_to(plan["angles"], angles.shape)), "cli simulate: csv angles differ from the plan")
    sample_mean, sample_cov = outcomes.mean(axis=0), np.cov(outcomes, rowvar=False)
    require(np.abs(np.asarray(report["sample_mean"]) - sample_mean).max() <= 1e-9 * (1 + np.abs(sample_mean).max()), "cli simulate: sample mean differs from the csv")
    require(np.abs(np.asarray(report["sample_cov"]) - sample_cov).max() <= 1e-9 * (1 + np.abs(sample_cov).max()), "cli simulate: sample covariance differs from the csv")
    checks.check_moments(mean, cov, sample_mean, sample_cov, config["shots"], "cli simulate")


WORKLOADS = {cls.name: cls for cls in (Compile, Approx, Verify, Cli)}
