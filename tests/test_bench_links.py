"""Tier-1 guards on what the bench takes from ``mphd``.

The bench's tracer, decimal oracle and checks import only the standard
library, numpy and each other, so they load here by file path; nothing under
``bench/`` is imported as a package.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import mphd
from mphd.cli import run

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def load(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
        spec.loader.exec_module(module)
        return module

    return load


def test_traced_functions_exist(load):
    # a deleted or renamed public function would otherwise surface only in the bench
    missing = [
        f"mphd.{module}.{name}"
        for module, names in load("spans").TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mphd.{module}"), name, None))
    ]
    assert missing == []


def test_fourier_gate_matches_decimal_oracle(load):
    oracle = load("oracle")
    program, state = mphd.fourier_program(), mphd.squeezed_input(1, 1.0, ["q"])
    for r in range(21):
        output, _ = mphd.run_gate_program(program, state, float(r), seed=1)
        reference = oracle.gate_reference(float(r), 1.0)[0]
        assert np.linalg.norm(output.cov - reference) <= 1e-14, f"r = {r}"


def test_chain_built_as_the_bench_builds_it_passes_its_check(load, monkeypatch):
    # the call shapes of the bench's homodyne chains: an API change fails here, not only there
    monkeypatch.syspath_prepend(str(BENCH))
    checks = load("checks")
    n = 6
    u = mphd.cluster_unitary(mphd.path_adjacency(n)).u
    state = mphd.apply(mphd.symplectic_from_unitary(u), mphd.squeezed_input(n, 1.0))
    s = checks.symplectic(u)
    angles = np.random.default_rng(n).uniform(0.0, np.pi, n - 1)
    records, current = [], state
    for k, theta in enumerate(angles):
        rec, current = mphd.homodyne_measure(current, 0, theta, rng_seed=k)
        records.append(rec)
    checks.check_chain(records, current, np.zeros(2 * n), s @ checks.squeezed_cov(n, 1.0) @ s.T, angles)


def test_bench_product_matches_the_kernel(load, monkeypatch):
    # the bench checks compiled detectors with its own O . Delta . G: a drift of the method fails here
    monkeypatch.syspath_prepend(str(BENCH))
    checks = load("checks")
    n = 64
    rng = np.random.default_rng(n)
    opo = rng.uniform(0.0, 2 * np.pi, n)
    g = mphd.detection_setup(mphd.flip_mode_basis(n), 0, mphd.PixelPartition.equal(n), opo).g
    gains = np.linalg.qr(rng.normal(size=(n, n)))[0]
    phases = rng.uniform(-np.pi, np.pi, n)
    sol = mphd.SynthesisSolution(mphd.DiagonalUnitary(phases), gains, residual=0.0)
    assert np.abs(checks.mphd_unitary(gains, phases, g) - sol.unitary(g)).max() <= 1e-13


def test_cli_reports_pass_the_bench_report_checks(load, monkeypatch, tmp_path):
    # the bench's cli workload reads these report fields: a format change fails here, not only there
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = load("workloads")

    def report(name, command, config, code=0):
        config_path, out = tmp_path / f"{name}.config.json", tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config))
        assert run([command, "--config", str(config_path), "--out", str(out)]) == code
        return json.loads(out.read_text())

    synthesized = {}
    for preset in ("lin4", "fourier", "cz2"):
        doc = synthesized[preset] = report(preset, "synthesize", {"preset": preset, "seed": 3}, 2 * (preset == "cz2"))
        workloads.check_synthesize_report(doc, preset)
    v = np.array([[0.0, 0.4, 0.0, 0.9], [0.4, 0.0, 0.7, 0.0], [0.0, 0.7, 0.0, 0.3], [0.9, 0.0, 0.3, 0.0]])
    workloads.check_cluster_report(report("cluster", "cluster", {"graph": {"adjacency": v.tolist()}}), v)
    gate = {"preset": "displacement", "r": 6.0, "seed": 5, "target": {"gate": {"name": "displacement", "s": 0.8}}}
    workloads.check_gate_report(report("gate", "gate", gate))
    config = {
        "preset": "lin4", "solution_report": str(tmp_path / "lin4.json"), "branch": "1001", "r": 1.0,
        "shots": 5000, "seed": 7, "plan": {"angles": [0.3, 1.1, 2.0, 2.9]}, "csv_path": str(tmp_path / "samples.csv"),
    }
    workloads.check_simulate_report(report("simulate", "simulate", config), config, synthesized["lin4"])


@pytest.mark.parametrize("n, shots, csv", [(4, 1_000_000, False), (8, 50_000, True), (32, 10_000, True)])
def test_simulations_at_the_verify_shapes_pass_the_bench_checks(load, monkeypatch, tmp_path, n, shots, csv):
    # the verify workload's shapes span several sampling blocks; the bench's own gate on them runs here.
    # Its CSV parser holds one Python list per row, so the 4-million-row export is left to the bench.
    monkeypatch.syspath_prepend(str(BENCH))
    checks = load("checks")
    rng = np.random.default_rng(n)
    setup = mphd.detection_setup(mphd.flip_mode_basis(n), 0, mphd.PixelPartition.equal(n), rng.uniform(0.0, 2 * np.pi, n))
    o = np.linalg.qr(rng.normal(size=(n, n)))[0]
    u = checks.mphd_unitary(o, rng.uniform(-np.pi, np.pi, n), setup.g)
    sol = mphd.solve_exact(mphd.feasibility(u, setup.g), setup.g, u)
    plan = mphd.MeasurementPlan(
        angles=rng.uniform(0.0, np.pi, n), offsets=rng.normal(0.0, 1.0, n), gains=rng.uniform(1.0, 2.0, n)
    )
    res = mphd.simulate_mphd(setup, sol, plan, 1.5, shots, seed=n)
    checks.check_simulation(res, u, plan, 1.5, shots)
    if csv:
        mphd.export_samples_csv(res, tmp_path / "samples.csv")
        checks.check_csv(tmp_path / "samples.csv", res)
