"""Tests of the benchmark itself: small runs and checks that reject bad output.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import dataclasses
import os
import statistics
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

mphd = run.load_mphd()

SMALL = {
    "compile": [("exact-16", 1), ("exact-64", 1), ("enum-4", 1), ("enum-10", 1), ("graph-8", 1), ("graph-16", 1)],
    "approx": [("planted-3", 1), ("cz2-2", 1), ("haar-2", 1)],
    "verify": [("gate-fourier", 2), ("gate-displacement", 2), ("gate-fault", 3), ("sim-fault", 2),
               ("chain-8", 1), ("sim-8-2000", 1), ("sim-4-500", 1), ("csv", 1)],
    "cli": [("cluster", 1), ("synthesize-lin4", 1), ("synthesize-cz2", 1), ("gate-displacement", 1), ("simulate", 1)],
}
FAULTS_PER_PASS = {"compile": 0, "approx": 0, "verify": 5, "cli": 0}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_passes_every_check(name):
    result = run.run_workload(name, seed=5, seconds=0, trace=0, sizes=SMALL[name], min_jobs=1, setup_repeats=1)
    passes = sum(count for _, count in SMALL[name])
    assert result["correct"] is True
    assert result["attempted"] == passes
    assert result["failed"] == FAULTS_PER_PASS[name]
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", ["compile", "cli"])
def test_traced_run_reports_every_layer(name):
    from spans import COUNTS, TRACED

    result = run.run_workload(name, seed=5, seconds=0, trace=1, sizes=SMALL[name], min_jobs=2, setup_repeats=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    expected = {f"{m}.{f}.{s}" for m, fs in TRACED.items() for f in fs for s in ("calls", "busy_s", "self_s")}
    expected |= set(COUNTS) | {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert set(metrics) == expected
    for key in expected:
        if key.endswith(".self_s"):
            assert metrics[key]["value"] <= metrics[key[:-6] + "busy_s"]["value"] + 1e-12
    if name == "compile":
        assert metrics["cluster.solve_a.calls"]["value"] == 2
        assert metrics["synth.branches"]["value"] == 2 * workloads.Compile.EXACT_BRANCHES + 2**4 + 2**10
    else:
        assert metrics["cli.run.calls"]["value"] == 1 + 5  # set-up synthesize plus one pass
        assert metrics["cli.cmd_synthesize.calls"]["value"] == 1 + 2 + 1  # gate calls cmd_synthesize
        assert metrics["cli.interpreter_start_s"]["value"] > 0


def test_host_speed_reference_samples_on_schedule():
    host = run.HostSpeed()
    host.due()
    host.due()  # within REF_EVERY_S of the first sample: skipped
    assert len(host.times) == 1
    host.sample()
    assert len(host.times) == 2 and min(host.times) > 0
    assert host.scale == pytest.approx(run.REF_NOMINAL_S / statistics.median(host.times))


def test_tracer_patches_every_lookup_and_restores():
    from spans import Tracer

    original = mphd.synth.procrustes_best_orthogonal
    tracer = Tracer()
    tracer.install()
    try:
        assert mphd.synth.procrustes_best_orthogonal is not original
        assert mphd.procrustes_best_orthogonal is mphd.synth.procrustes_best_orthogonal
        assert mphd.cli.COMMANDS["gate"] is mphd.cli.cmd_gate
        mphd.solve_approx(np.eye(2), np.eye(2), restarts=1)
    finally:
        tracer.uninstall()
    assert mphd.synth.procrustes_best_orthogonal is original
    totals = tracer.layer_totals()
    assert totals["synth.solve_approx"][0] == 1
    assert totals["matcore.procrustes_best_orthogonal"][0] >= 2
    assert totals["synth.solve_approx"][2] < totals["synth.solve_approx"][1]


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.run_workload("compile", seed=1, seconds=0, trace=0)
    assert exc.value.code not in (0, None)


# ---------------------------------------------------------------------------
# each check rejects a corrupted output

RNG = np.random.default_rng(7)


def test_cluster_check_rejects_perturbed_gain_matrix():
    v = workloads.weighted_graph(RNG, 8)
    sol = mphd.cluster_unitary(v)
    checks.check_cluster(v, sol.a, sol.x, sol.u)
    with pytest.raises(CheckError):
        checks.check_cluster(v, sol.a + 1e-6 * np.eye(8), sol.x, sol.u)


def _planted_report(n=4):
    g = workloads.haar_unitary(RNG, n)
    o, phi, u = workloads.planted(RNG, g)
    return g, o, phi, u, mphd.feasibility(u, g)


def test_exact_check_rejects_flipped_gain_column():
    g, o, phi, u, report = _planted_report()
    sol = mphd.solve_exact(report, g, u, [1, 0, 1, 0])
    checks.check_exact(sol, o, phi, g, u)
    gains = sol.gains.copy()
    gains[:, 1] *= -1
    with pytest.raises(CheckError):
        checks.check_exact(dataclasses.replace(sol, gains=gains), o, phi, g, u)


def test_enumeration_check_rejects_missing_planted_branch():
    g, o, phi, u, report = _planted_report()
    sols = mphd.enumerate_solutions(report, g, u)
    checks.check_enumeration(sols, o, phi, g, u)
    other_o, other_phi = workloads.haar_orthogonal(RNG, 4), RNG.uniform(-np.pi, np.pi, 4)
    with pytest.raises(CheckError):
        checks.check_enumeration(sols, other_o, other_phi, g, checks.mphd_unitary(other_o, other_phi, g))
    with pytest.raises(CheckError, match="branch ids"):
        checks.check_enumeration(sols[:-1] + sols[:1], o, phi, g, u)


def test_distance_check_rejects_wrong_residual():
    g, o, phi, u, report = _planted_report()
    sol = mphd.solve_exact(report, g, u)
    checks.check_distance(mphd.verify_solution(sol, u, g), sol, g, u)
    with pytest.raises(CheckError):
        checks.check_distance(1e-3, sol, g, u)


def _approx_case():
    g, u = workloads.haar_unitary(RNG, 3), workloads.haar_unitary(RNG, 3)
    res = mphd.solve_approx(u, g, seed=1)
    sol = res.solution
    args = dict(gains=sol.gains, phases=sol.delta_lo.phases, residual=sol.residual, trace=res.objective_trace,
                iterations=res.iterations, u=u, g=g, planted=False)
    checks.check_approx(**args)
    return args


def test_approx_check_rejects_flipped_gain_column():
    args = _approx_case()
    gains = args["gains"].copy()
    gains[:, 0] *= -1
    own = np.linalg.norm(checks.mphd_unitary(gains, args["phases"], args["g"]) - args["u"])
    with pytest.raises(CheckError, match="Procrustes"):
        checks.check_approx(**{**args, "gains": gains, "residual": own, "trace": list(args["trace"][:-1]) + [own]})


def test_approx_check_rejects_off_minimum_phase():
    args = _approx_case()
    phases = args["phases"].copy()
    phases[1] += 1e-3
    b = (np.exp(1j * phases)[:, None] * args["g"] @ args["u"].conj().T).real
    p, _, qt = np.linalg.svd(b)
    gains = qt.T @ p.T  # Procrustes-optimal for the moved phases, so only the phase check can object
    own = np.linalg.norm(checks.mphd_unitary(gains, phases, args["g"]) - args["u"])
    with pytest.raises(CheckError, match="coordinate minimiser"):
        checks.check_approx(**{**args, "gains": gains, "phases": phases, "residual": own, "trace": [own]})


def test_approx_check_rejects_rising_trace_and_unmet_planted_target():
    args = _approx_case()
    with pytest.raises(CheckError, match="monotone"):
        checks.check_approx(**{**args, "trace": [args["trace"][-1] - 1e-3] + list(args["trace"]),
                               "iterations": args["iterations"] + 1})
    with pytest.raises(CheckError, match="planted"):
        checks.check_approx(**{**args, "planted": True})


def _simulation():
    setup = mphd.detection_setup(mphd.flip_mode_basis(4), 0, mphd.PixelPartition.equal(4), RNG.uniform(0, 6, 4))
    o, phi, u = workloads.planted(RNG, setup.g)
    sol = mphd.solve_exact(mphd.feasibility(u, setup.g), setup.g, u)
    plan = mphd.MeasurementPlan(angles=RNG.uniform(0, np.pi, 4), offsets=RNG.normal(size=4), gains=RNG.uniform(1, 2, 4))
    res = mphd.simulate_mphd(setup, sol, plan, 1.0, 4000, seed=3)
    checks.check_simulation(res, u, plan, 1.0, 4000)
    return res, u, plan


def test_simulation_check_rejects_perturbed_covariance_and_biased_samples():
    res, u, plan = _simulation()
    cov = res.analytic_cov.copy()
    cov[0, 1] = cov[1, 0] = cov[0, 1] * (1 + 1e-6) + 1e-6
    with pytest.raises(CheckError):
        checks.check_simulation(dataclasses.replace(res, analytic_cov=cov), u, plan, 1.0, 4000)
    shifted = res.outcomes + np.array([0.5, 0, 0, 0])
    biased = dataclasses.replace(res, outcomes=shifted, sample_mean=shifted.mean(axis=0))
    with pytest.raises(CheckError):
        checks.check_simulation(biased, u, plan, 1.0, 4000)


def test_csv_check_rejects_changed_value_and_bare_newlines(tmp_path):
    res, _, _ = _simulation()
    path = tmp_path / "s.csv"
    mphd.export_samples_csv(res, path)
    checks.check_csv(path, res)
    data = path.read_bytes()
    lines = data.split(b"\r\n")
    lines[5] = lines[5][:-1] + (b"0" if lines[5][-1:] != b"0" else b"1")
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(CheckError):
        checks.check_csv(path, res)
    path.write_bytes(data.replace(b"\r\n", b"\n"))
    with pytest.raises(CheckError):
        checks.check_csv(path, res)


def test_gate_check_rejects_perturbed_covariance_and_mean():
    program = mphd.displacement_program(0.8)
    state, ver = mphd.run_gate_program(program, mphd.squeezed_input(1, 1.0, ["q"]), 4.0, seed=2)
    args = (program.plan.offsets, program.plan.gains, 4.0, 1.0, ver.cov_distance)
    checks.check_gate(state.mean, state.cov, *args)
    with pytest.raises(CheckError):
        checks.check_gate(state.mean, state.cov + 1e-3 * np.eye(2), *args)
    with pytest.raises(CheckError):
        checks.check_gate(state.mean + 1e-3, state.cov, *args)


def test_gate_check_flags_the_large_r_fault():
    state, ver = mphd.run_gate_program(mphd.fourier_program(), mphd.squeezed_input(1, 1.0, ["q"]), 12.0, seed=1)
    with pytest.raises(CheckError):
        checks.check_gate(state.mean, state.cov, np.zeros(4), np.ones(4), 12.0, 1.0, ver.cov_distance)


def test_chain_check_rejects_perturbed_conditioned_state():
    n = 6
    u = mphd.cluster_unitary(mphd.path_adjacency(n)).u
    state = mphd.apply(mphd.symplectic_from_unitary(u), mphd.squeezed_input(n, 1.0))
    s = checks.symplectic(u)
    cov0 = s @ checks.squeezed_cov(n, 1.0) @ s.T
    angles = RNG.uniform(0, np.pi, n - 1)
    records, current = [], state
    for k, theta in enumerate(angles):
        rec, current = mphd.homodyne_measure(current, 0, theta, rng_seed=k)
        records.append(rec)
    checks.check_chain(records, current, np.zeros(2 * n), cov0, angles)
    bad = mphd.GaussianState(mean=current.mean, cov=current.cov * (1 + 1e-6))
    with pytest.raises(CheckError):
        checks.check_chain(records, bad, np.zeros(2 * n), cov0, angles)


def test_cli_report_checks_reject_corrupted_reports(tmp_path):
    cli = workloads.Cli(mphd, str(tmp_path), in_process=True)
    v = workloads.weighted_graph(RNG, 4, density=0.8)
    code, report = cli.invoke("cluster", cli._write_config({"graph": {"adjacency": v.tolist()}}), str(tmp_path / "c.json"))
    assert code == 0
    workloads.check_cluster_report(report, v)
    bad = copy.deepcopy(report)
    bad["a"][0][0] += 1e-6
    with pytest.raises(CheckError):
        workloads.check_cluster_report(bad, v)

    code, report = cli.invoke("synthesize", cli._write_config({"preset": "cz2", "seed": 4}), str(tmp_path / "z.json"))
    assert code == 2
    workloads.check_synthesize_report(report, "cz2")
    bad = copy.deepcopy(report)
    bad["approx"]["solution"]["gains"] = (-np.asarray(bad["approx"]["solution"]["gains"])).tolist()
    with pytest.raises(CheckError):
        workloads.check_synthesize_report(bad, "cz2")


def test_cli_gate_and_simulate_report_checks_reject_corrupted_reports(tmp_path):
    cli = workloads.Cli(mphd, str(tmp_path), in_process=True)
    code, report = cli.invoke("gate", cli._write_config({"preset": "fourier", "r": 6.0, "seed": 3}), str(tmp_path / "g.json"))
    assert code == 0
    workloads.check_gate_report(report)
    bad = copy.deepcopy(report)
    bad["verification"]["output_cov"][0][0] *= 1 + 1e-6
    with pytest.raises(CheckError, match="60-digit"):
        workloads.check_gate_report(bad)

    report_path, lin4 = cli.setup(cli._write_config({"preset": "lin4"}))
    csv_path = str(tmp_path / "s.csv")
    config = {"preset": "lin4", "solution_report": report_path, "branch": "1001", "r": 1.0, "shots": 2000,
              "seed": 5, "plan": {"angles": [0.1, 0.7, 1.3, 2.9]}, "csv_path": csv_path}
    code, report = cli.invoke("simulate", cli._write_config(config), str(tmp_path / "s.json"))
    assert code == 0
    data = open(csv_path, "rb").read()
    workloads.check_simulate_report(report, config, lin4)  # removes the csv
    with open(csv_path, "wb") as fh:
        fh.write(data)
    bad = copy.deepcopy(report)
    bad["sample_mean"][2] += 1e-3
    with pytest.raises(CheckError, match="sample mean differs from the csv"):
        workloads.check_simulate_report(bad, config, lin4)

