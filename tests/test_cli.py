import json
import logging
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mphd
import refvals as rv
from mphd.cli import (
    _CHOICES,
    _NESTED_KEYS,
    ALLOWED_KEYS,
    PRESETS,
    mat_from_json,
    merge,
    run,
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_command(tmp_path, command, doc, *extra, name="config.json", out="report.json"):
    cfg = write_config(tmp_path, doc, name)
    out_path = tmp_path / out
    code = run([command, "--config", cfg, "--out", str(out_path), *extra])
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report


#: A valid simulate config; most TestUsageErrors cases add one input it does not read.
IDENTITY_SIMULATION = {
    "preset": "identity",
    "solution": {"phases": [0.0] * 4, "gains": np.eye(4).tolist()},
    "shots": 2,
}
EDGE = {"graph": {"edges": [[0, 1]]}}
PATH4 = {"graph": {"edges": [[0, 1], [1, 2], [2, 3]]}}
IDENTITY_DETECTION = {"detection": {"matrix": {"re": np.eye(2).tolist()}}, "target": {"identity": True}}


def qr_orthogonal(n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q


class TestSynthesize:
    def test_lin4_preset(self, tmp_path):
        code, report = run_command(tmp_path, "synthesize", {"preset": "lin4"})
        assert code == 0
        assert report["feasibility"]["feasible"] is True
        assert len(report["solutions"]) == 16
        d = mat_from_json(report["feasibility"]["d_candidate"])
        np.testing.assert_allclose(np.diag(d), rv.D_LIN4, atol=1e-9)
        assert report["feasibility"]["offdiag_residual"] <= 1e-12
        # the published branch appears with its bits
        branches = {s["branch"]: s for s in report["solutions"]}
        printed = branches["1001"]
        np.testing.assert_allclose(np.asarray(printed["gains"]), rv.O_LIN4, atol=1e-12)

    def test_identity_preset(self, tmp_path):
        code, report = run_command(tmp_path, "synthesize", {"preset": "identity"})
        assert code == 0
        principal = report["solutions"][0]
        np.testing.assert_allclose(principal["phases"], 0.0, atol=1e-12)
        np.testing.assert_allclose(np.asarray(principal["gains"]), np.eye(4), atol=1e-12)

    def test_cz2_preset_infeasible(self, tmp_path):
        code, report = run_command(tmp_path, "synthesize", {"preset": "cz2", "seed": 3})
        assert code == 2
        assert report["feasibility"]["feasible"] is False
        approx = report["approx"]
        assert approx["residual"] == pytest.approx(np.sqrt(4 - 2 * np.sqrt(2)), abs=1e-6)
        trace = approx["objective_trace"]
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_branch_flag(self, tmp_path):
        code, report = run_command(
            tmp_path, "synthesize", {"preset": "lin4"}, "--branch", "1001"
        )
        assert code == 0
        assert len(report["solutions"]) == 1
        np.testing.assert_allclose(
            np.asarray(report["solutions"][0]["gains"]), rv.O_LIN4, atol=1e-12
        )

    def test_tol_flag_echoed(self, tmp_path):
        code, report = run_command(
            tmp_path, "synthesize", {"preset": "lin4"}, "--tol", "1e-7"
        )
        assert code == 0
        assert report["feasibility"]["tol"] == 1e-7

    def test_graph_target_feasibility_block(self, tmp_path):
        doc = {
            "modes": {"n": 4},
            "opo_phases": list(rv.OPO_LIN4),
            "target": PATH4,
        }
        code, report = run_command(tmp_path, "synthesize", doc)
        assert isinstance(report["feasibility"]["feasible"], bool)
        assert code == (0 if report["feasibility"]["feasible"] else 2)

    def test_non_finite_tol_flag_rejected(self, tmp_path, capsys):
        code, report = run_command(tmp_path, "synthesize", {"preset": "cz2"}, "--tol", "inf")
        assert (code, report) == (1, None)
        assert "tol must be positive" in capsys.readouterr().err

    def test_tol_flag_reaches_graph_target_feasibility_block(self, tmp_path):
        code, report = run_command(
            tmp_path, "synthesize", {"preset": "lin4", "target": PATH4}, "--tol", "1e-7"
        )
        assert code in (0, 2)
        assert report["feasibility"]["tol"] == 1e-7

    def test_cluster_u_compiles_as_matrix_target(self, tmp_path):
        # a user's own O_f reaches the detector by composition: cluster's u as target.matrix
        m = qr_orthogonal(4, seed=5)
        doc = {**PATH4, "freedom": {"matrix": m.tolist()}}
        _, cluster = run_command(tmp_path, "cluster", doc, out="cluster.json")
        code, report = run_command(
            tmp_path, "synthesize", {"preset": "lin4", "target": {"matrix": cluster["u"]}}
        )
        v = np.asarray(cluster["config"]["graph"]["adjacency"])
        g = mat_from_json(report["config"]["g"])
        fre = mphd.feasibility(mphd.cluster_unitary(v, m).u, g, mphd.DEFAULT_TOL)
        block = report["feasibility"]
        assert [block[k] for k in ("feasible", "offdiag_residual", "modulus_residual", "tol")] == [
            fre.feasible, fre.offdiag_residual, fre.modulus_residual, fre.tol
        ]
        np.testing.assert_array_equal(mat_from_json(block["d_candidate"]), fre.d_candidate)
        assert code == (0 if fre.feasible else 2)

    def test_explicit_matrix_target(self, tmp_path):
        doc = {
            "detection": {"matrix": {"re": np.eye(2).tolist()}},
            "target": {"matrix": {"re": [[0.0, 1.0], [1.0, 0.0]]}},
        }
        code, report = run_command(tmp_path, "synthesize", doc)
        assert code == 0  # a permutation is real orthogonal: feasible

    def test_preset_target_can_be_replaced(self, tmp_path):
        # a user-supplied target form displaces the preset's matrix target
        doc = {"preset": "lin4", "target": {"identity": True}}
        code, report = run_command(tmp_path, "synthesize", doc)
        assert code == 0
        principal = report["solutions"][0]
        np.testing.assert_allclose(np.asarray(principal["gains"]), np.eye(4), atol=1e-12)

    def test_preset_detection_can_be_replaced(self, tmp_path):
        doc = {"preset": "cz2", "modes": {"n": 2}, "pixels": {"boundaries": [0.0, 0.5, 1.0]}}
        code, report = run_command(tmp_path, "synthesize", doc)
        # with the two-mode flip-mode front end this target is feasible
        assert code == 0
        assert report["feasibility"]["feasible"] is True

    def test_ambiguous_target_rejected(self, tmp_path):
        doc = {
            "detection": {"matrix": {"re": np.eye(2).tolist()}},
            "target": {"identity": True, "matrix": {"re": np.eye(2).tolist()}},
        }
        code, _ = run_command(tmp_path, "synthesize", doc)
        assert code == 1

    def test_mode_basis_from_file(self, tmp_path):
        from mphd import flip_mode_basis, save_mode_basis

        basis_path = tmp_path / "basis.txt"
        save_mode_basis(flip_mode_basis(4), basis_path)
        doc = {
            "modes": {"file": str(basis_path)},
            "opo_phases": list(rv.OPO_LIN4),
            "target": PRESETS["lin4"]["target"],
        }
        code, report = run_command(tmp_path, "synthesize", doc)
        assert code == 0
        assert report["feasibility"]["feasible"] is True

    def test_file_basis_boundaries_are_fractions_of_the_detector(self, tmp_path, capsys):
        # a basis on [-1, 3] loads onto [0, 1]: its pixel edges are fractions, not the file's units
        rows = "".join(" ".join(map(repr, row.tolist())) + "\n" for row in mphd.flip_mode_basis(4).samples.T / 2)
        (tmp_path / "basis.txt").write_text(f"-1.0 3.0 4\n{rows}")
        doc = {"preset": "lin4", "modes": {"file": str(tmp_path / "basis.txt")}}
        _, flip = run_command(tmp_path, "synthesize", {"preset": "lin4"}, out="flip.json")
        code, report = run_command(tmp_path, "synthesize", {**doc, "pixels": {"boundaries": [0, 0.25, 0.5, 0.75, 1]}})
        assert code == 0
        assert report["config"]["g"] == flip["config"]["g"]
        code, report = run_command(
            tmp_path, "synthesize", {**doc, "pixels": {"boundaries": [-1, 0, 1, 2, 3]}}, out="lengths.json"
        )
        assert (code, report) == (1, None)
        assert "does not cover the detector [0, 1]" in capsys.readouterr().err

    def test_preset_keys_stay_allowed_on_either_route(self, tmp_path):
        # the preset fills in keys the user's route ignores; only user keys are checked
        basis_path = tmp_path / "basis.txt"
        mphd.save_mode_basis(mphd.flip_mode_basis(4), basis_path)
        doc = {"preset": "lin4", "modes": {"file": str(basis_path)}}
        code, report = run_command(tmp_path, "synthesize", doc)
        assert code == 0
        assert report["config"]["modes"]["family"] == "file"
        code, report = run_command(tmp_path, "synthesize", {"preset": "cz2", "modes": {"n": 2}})
        assert code == 0
        assert report["config"]["modes"]["n"] == 2

    def test_preset_front_end_follows_the_mode_count(self, tmp_path):
        doc = {"preset": "identity", "modes": {"n": 2}}
        code, report = run_command(tmp_path, "synthesize", doc)
        assert code == 0
        assert mat_from_json(report["config"]["g"]).shape == (2, 2)
        assert report["config"]["pixels"]["boundaries"] == [0.0, 0.5, 1.0]
        assert report["config"]["opo_phases"] == [0.0, 0.0]

    def test_opo_phases_of_another_length_are_named(self, tmp_path, capsys):
        doc = {"preset": "lin4", "modes": {"n": 2}, "target": {"identity": True}}
        code, report = run_command(tmp_path, "synthesize", doc)
        assert (code, report) == (1, None)
        assert "opo_phases gives 4 dephasings for 2 modes" in capsys.readouterr().err

    def test_non_unitary_front_end_is_named_g(self, tmp_path, capsys):
        # six equal pixels over eight flip segments; the identity target is G itself
        doc = {"preset": "identity", "modes": {"n": 6}}
        code, report = run_command(tmp_path, "synthesize", doc)
        assert (code, report) == (1, None)
        assert "error: g is not unitary" in capsys.readouterr().err

    def test_preset_detection_rejects_ignored_keys(self, tmp_path, capsys):
        # cz2 gives detection.matrix, so the user's pixels and opo_phases would go unread
        doc = {"preset": "cz2", "pixels": {"boundaries": [0, 0.5, 1]}, "opo_phases": [1, 2]}
        code, report = run_command(tmp_path, "synthesize", doc)
        assert (code, report) == (1, None)
        assert "['opo_phases', 'pixels'] would be ignored" in capsys.readouterr().err

    def test_preset_detection_matrix_replaced_whole(self, tmp_path):
        # a matrix is a leaf: the user's 3x3 one takes none of a base matrix's 'im' part
        base = {"detection": {"matrix": {"re": np.eye(2).tolist(), "im": [[0.0] * 2] * 2}}}
        user = {"detection": {"matrix": {"re": np.eye(3).tolist()}}}
        assert merge(base, user, ALLOWED_KEYS["synthesize"]) == user
        doc = {
            "preset": "cz2",
            "detection": {"matrix": {"re": np.eye(3).tolist()}},
            "target": {"identity": True},
        }
        code, report = run_command(tmp_path, "synthesize", doc)
        assert code == 0
        np.testing.assert_array_equal(mat_from_json(report["config"]["detection"]["matrix"]), np.eye(3))

    def test_preset_graph_edges_displace_its_adjacency(self, tmp_path):
        doc = {"preset": "cz2", "target": {"graph": {"edges": [[0, 1, 0.5]]}}, "seed": 1}
        code, report = run_command(tmp_path, "synthesize", doc)
        assert code == 2
        assert report["config"]["target"]["graph"]["adjacency"] == [[0.0, 0.5], [0.5, 0.0]]

    def test_pixel_boundaries_of_an_equal_split_match_the_count(self, tmp_path):
        _, counted = run_command(tmp_path, "synthesize", {"preset": "lin4"}, out="count.json")
        doc = {"preset": "lin4", "pixels": {"boundaries": [0.0, 0.25, 0.5, 0.75, 1.0]}}
        code, split = run_command(tmp_path, "synthesize", doc, out="split.json")
        assert code == 0
        np.testing.assert_allclose(
            mat_from_json(split["config"]["g"]), mat_from_json(counted["config"]["g"]), atol=1e-12
        )

    def test_enumerate_false_gives_the_principal_branch(self, tmp_path):
        code, report = run_command(tmp_path, "synthesize", {"preset": "lin4", "enumerate": False})
        assert code == 0
        assert [s["branch"] for s in report["solutions"]] == ["0000"]

    def test_report_to_stdout_without_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "identity"})
        assert run(["synthesize", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "synthesize"
        assert len(report["solutions"]) == 16

    def test_optimizer_keys_reach_the_approx_block(self, tmp_path, monkeypatch):
        calls = []
        solve = mphd.synth.solve_approx

        def spied(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(mphd.synth, "solve_approx", spied)
        doc = {"preset": "cz2", "seed": 3, "optimizer": {"max_iters": 1, "restarts": 2}}
        code, report = run_command(tmp_path, "synthesize", doc)
        assert code == 2
        assert calls == [{"seed": 3, "tol": 1e-9, "max_iters": 1, "restarts": 2}]
        assert report["approx"]["iterations"] == 1
        assert report["approx"]["converged"] is False

    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run_command(tmp_path, "synthesize", {"preset": "lin4", "shotz": 5})
        assert code == 1

    def test_unknown_preset(self, tmp_path):
        code, _ = run_command(tmp_path, "synthesize", {"preset": "lin5"})
        assert code == 1

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run(["synthesize", "--config", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert run(["synthesize", "--config", str(tmp_path / "absent.json")]) == 1


class TestCluster:
    def test_three_path(self, tmp_path):
        code, report = run_command(
            tmp_path, "cluster", {"graph": {"edges": [[0, 1], [1, 2]]}}
        )
        assert code == 0
        np.testing.assert_allclose(np.asarray(report["a"]), rv.A_PATH3, atol=1e-12)
        np.testing.assert_allclose(np.asarray(report["x_s"]), rv.XS_PATH3, atol=1e-12)
        assert report["validation"]["passed"] is True

    def test_single_vertex(self, tmp_path):
        code, report = run_command(tmp_path, "cluster", {"graph": {"adjacency": [[0.0]]}})
        assert code == 0
        np.testing.assert_allclose(mat_from_json(report["u"]), [[1.0]], atol=1e-12)

    def test_freedom_matrix(self, tmp_path):
        m = qr_orthogonal(3, seed=5)
        doc = {"graph": {"edges": [[0, 1], [1, 2]]}, "freedom": {"matrix": m.tolist()}}
        code, report = run_command(tmp_path, "cluster", doc)
        assert code == 0
        x = mat_from_json(report["u"]).real
        np.testing.assert_allclose(x, np.asarray(report["x_s"]) @ m, atol=1e-12)
        np.testing.assert_array_equal(report["freedom"], m)

    def test_empty_freedom_is_identity(self, tmp_path):
        code, report = run_command(tmp_path, "cluster", {**EDGE, "freedom": {}})
        assert code == 0
        np.testing.assert_array_equal(report["freedom"], np.eye(2))

    def test_edge_weight_not_counted_as_vertex(self, tmp_path):
        code, report = run_command(tmp_path, "cluster", {"graph": {"edges": [[0, 1, 3]]}})
        assert code == 0
        assert np.asarray(report["a"]).shape == (2, 2)

    def test_fractional_edge_weight(self, tmp_path):
        code, report = run_command(tmp_path, "cluster", {"graph": {"edges": [[0, 1, 2.5]]}})
        assert code == 0
        assert np.asarray(report["a"]).shape == (2, 2)
        np.testing.assert_array_equal(
            report["config"]["graph"]["adjacency"], [[0.0, 2.5], [2.5, 0.0]]
        )

    @pytest.mark.parametrize(
        "graph",
        [
            {"edges": [[0.5, 1]]},
            {"edges": [[0]]},
            {"edges": [[-1, 1]]},
            {"edges": [[0, 1, "x"]]},
            {"edges": []},
            {"edges": [[0, 3]], "n": 2},
            {"edges": [[0, 1]], "n": "two"},
            {"edges": [[0, 1]], "n": -1},
        ],
    )
    def test_bad_edge_list_is_config_error(self, tmp_path, graph):
        code, report = run_command(tmp_path, "cluster", {"graph": graph})
        assert code == 1
        assert report is None


class TestGate:
    def test_fourier_report(self, tmp_path):
        code, report = run_command(tmp_path, "gate", {"preset": "fourier"})
        assert code == 0
        u_th = mat_from_json(report["config"]["target"]["matrix"])
        np.testing.assert_allclose(u_th, rv.GATE_TARGET, atol=1e-12)
        assert len(report["solutions"]) == 16
        deltas = [
            np.abs(np.exp(1j * np.asarray(s["phases"])) - rv.DELTA_GATE).max()
            for s in report["solutions"]
        ]
        assert min(deltas) <= 1e-12

    def test_displacement_zero_matches_fourier(self, tmp_path):
        _, four = run_command(tmp_path, "gate", {"preset": "fourier"}, name="f.json", out="f_rep.json")
        _, disp = run_command(
            tmp_path, "gate", {"preset": "displacement"}, name="d.json", out="d_rep.json"
        )
        assert four["config"]["target"]["matrix"] == disp["config"]["target"]["matrix"]
        assert four["solutions"] == disp["solutions"]

    @pytest.mark.parametrize("r", [6.0, 6])  # a JSON integer is a number
    def test_fourier_with_verification(self, tmp_path, r):
        doc = {"preset": "fourier", "r": r, "seed": 2}
        code, report = run_command(tmp_path, "gate", doc)
        assert code == 0
        ver = report["verification"]
        assert ver["passed"] is True
        assert ver["cov_distance"] < 1e-2
        assert ver["mean_distance"] < 1e-4

    def test_approximate_gate_verifies_the_synthesized_detector(self, tmp_path):
        # theta_3 = 0.4 is infeasible over the flip-mode detector: the fitted one fails the gate
        doc = {"preset": "fourier", "target": {"gate": {"theta_3": 0.4}}, "r": 6.0}
        code, report = run_command(tmp_path, "gate", doc)
        assert code == 2
        assert report["verification"]["passed"] is False
        assert report["verification"]["cov_distance"] > 1.0

    def test_program_built_once(self, tmp_path, monkeypatch):
        calls = []
        build = mphd.mbqc.build_u_tf

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(mphd.mbqc, "build_u_tf", counted)
        code, report = run_command(tmp_path, "gate", {"preset": "fourier", "r": 6.0})
        assert code == 0
        assert report["verification"]["passed"] is True
        assert len(calls) == 1

    def test_synthesize_on_a_gate_target_reports_the_gate_program(self, tmp_path):
        doc = {"preset": "displacement", "target": {"gate": {"s": 1.5}}}
        code, synthesized = run_command(tmp_path, "synthesize", doc, out="s.json")
        assert code == 0
        _, gated = run_command(tmp_path, "gate", doc, out="g.json")
        assert synthesized["program"] == gated["program"]
        assert synthesized["program"]["offsets"] == [0.0, 0.0, 1.5, 0.0]
        assert "verification" not in synthesized
        assert (synthesized["command"], gated["command"]) == ("synthesize", "gate")
        for report in (synthesized, gated):
            for key in ("command", "timing", "program", "verification"):
                report.pop(key, None)
        assert synthesized == gated

    def test_gate_requires_gate_target(self, tmp_path):
        code, _ = run_command(tmp_path, "gate", {"preset": "lin4"})
        assert code == 1


class TestSimulate:
    @pytest.fixture()
    def lin4_solution(self, tmp_path):
        _, report = run_command(
            tmp_path, "synthesize", {"preset": "lin4"}, name="synth.json", out="synth_rep.json"
        )
        return report["solutions"][9]

    def test_round_trip_residual(self, tmp_path, lin4_solution):
        doc = {
            "preset": "lin4",
            "solution": {"phases": lin4_solution["phases"], "gains": lin4_solution["gains"]},
            "r": 2.0,
            "shots": 10,
            "seed": 7,
            "csv_path": str(tmp_path / "samples.csv"),
        }
        code, report = run_command(tmp_path, "simulate", doc)
        assert code == 0
        assert abs(report["solution"]["residual"] - lin4_solution["residual"]) <= 1e-15
        assert report["staged_vs_direct_residual"] <= 1e-10

    def test_csv_and_determinism(self, tmp_path, lin4_solution):
        doc = {
            "preset": "lin4",
            "solution": {"phases": lin4_solution["phases"], "gains": lin4_solution["gains"]},
            "r": 2.0,
            "shots": 5,
            "seed": 7,
            "csv_path": str(tmp_path / "samples.csv"),
        }
        code_a, rep_a = run_command(tmp_path, "simulate", doc, out="rep_a.json")
        code_b, rep_b = run_command(tmp_path, "simulate", doc, out="rep_b.json")
        assert code_a == code_b == 0
        rep_a.pop("timing")
        rep_b.pop("timing")
        assert rep_a == rep_b
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "shot,mode,angle,outcome"
        assert len(lines) == 1 + 5 * 4

    def test_single_shot_csv(self, tmp_path, lin4_solution):
        doc = {
            "preset": "lin4",
            "solution": {"phases": lin4_solution["phases"], "gains": lin4_solution["gains"]},
            "shots": 1,
            "csv_path": str(tmp_path / "one.csv"),
        }
        code, _ = run_command(tmp_path, "simulate", doc)
        assert code == 0
        lines = (tmp_path / "one.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_solution_report_reference(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "lin4"}, "synth.json")
        synth_out = tmp_path / "synth_rep.json"
        assert run(["synthesize", "--config", cfg, "--out", str(synth_out)]) == 0
        doc = {
            "preset": "lin4",
            "solution_report": str(synth_out),
            "branch": "1001",
            "shots": 3,
            "csv_path": str(tmp_path / "s.csv"),
        }
        code, report = run_command(tmp_path, "simulate", doc)
        assert code == 0
        assert report["solution"]["residual"] <= 1e-9

    def test_infeasible_report_feeds_its_approximate_solution(self, tmp_path):
        code, synthesized = run_command(
            tmp_path, "synthesize", {"preset": "cz2", "seed": 3}, name="synth.json", out="synth_rep.json"
        )
        assert (code, synthesized["solutions"]) == (2, [])
        doc = {"preset": "cz2", "solution_report": str(tmp_path / "synth_rep.json"), "shots": 3}
        code, report = run_command(tmp_path, "simulate", doc)
        assert code == 0
        assert report["solution"] == synthesized["approx"]["solution"]
        code, report = run_command(tmp_path, "simulate", {**doc, "branch": "00"}, out="branch.json")
        assert (code, report) == (1, None)

    @pytest.mark.parametrize(
        "synthesized, branch, message",
        [
            ({"solutions": [1]}, "0000", "solutions[0] must be a JSON object"),
            ({"solutions": [{"branch": "0000"}, 1]}, None, "solutions[1] must be a JSON object"),
            ({"solutions": [], "approx": {"solution": [1]}}, None, "approx.solution must be a JSON object"),
            ({"solutions": 5}, None, "solutions must be a JSON list"),
            ({"solutions": [{"phases": ["a", 0, 0, 0], "gains": np.eye(4).tolist()}]}, None, "solution.phases must be"),
            ({"solutions": [{"phases": [0] * 4, "gains": "x"}]}, None, "solution.gains must be a rectangular array"),
        ],
        ids=["with-branch", "without-branch", "approx", "not-a-list", "phases-not-numbers", "gains-not-numbers"],
    )
    def test_malformed_report_entries_are_named(self, tmp_path, capsys, synthesized, branch, message):
        (tmp_path / "synth_rep.json").write_text(json.dumps(synthesized))
        doc = {"preset": "identity", "solution_report": str(tmp_path / "synth_rep.json"), "shots": 2}
        code, report = run_command(tmp_path, "simulate", {**doc, "branch": branch} if branch else doc)
        assert (code, report) == (1, None)
        assert message in capsys.readouterr().err

    def test_simulate_requires_solution(self, tmp_path):
        code, _ = run_command(tmp_path, "simulate", {"preset": "lin4"})
        assert code == 1

    def test_branch_flag_selects_solution(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "lin4"}, "synth.json")
        synth_out = tmp_path / "synth_rep.json"
        assert run(["synthesize", "--config", cfg, "--out", str(synth_out)]) == 0
        chosen = [s for s in json.loads(synth_out.read_text())["solutions"] if s["branch"] == "1001"]
        doc = {"preset": "lin4", "solution_report": str(synth_out), "shots": 3}
        code, report = run_command(tmp_path, "simulate", doc, "--branch", "1001")
        assert code == 0
        assert report["solution"]["gains"] == chosen[0]["gains"]
        assert report["solution"]["phases"] == chosen[0]["phases"]

    def test_no_csv_without_csv_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, report = run_command(tmp_path, "simulate", IDENTITY_SIMULATION)
        assert code == 0
        assert report["csv_path"] is None
        assert not list(tmp_path.glob("*.csv"))

    def test_explicit_detection_matrix(self, tmp_path):
        g = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        doc = {
            "detection": {"matrix": {"re": g.tolist()}},
            "target": {"matrix": {"re": np.eye(2).tolist()}},
            "solution": {"phases": [0.0, 0.0], "gains": g.T.tolist()},
            "r": 1.0,
            "shots": 4,
            "seed": 3,
            "csv_path": str(tmp_path / "g.csv"),
        }
        code, report = run_command(tmp_path, "simulate", doc)
        assert code == 0
        np.testing.assert_array_equal(mat_from_json(report["config"]["detection"]["matrix"]), g)
        assert report["solution"]["residual"] <= 1e-12
        assert report["staged_vs_direct_residual"] <= 1e-10
        assert np.asarray(report["analytic_cov"]).shape == (2, 2)
        lines = (tmp_path / "g.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "command, doc, flags",
        [
            ("synthesize", {"preset": "lin4", "modes": {"family": "hermite-gauss"}}, []),
            ("synthesize", {"preset": "lin4", "tolerances": {"structure": 1e-9}}, []),
            ("gate", {"preset": "fourier", "shots": 100}, []),
            ("cluster", {**EDGE, "seed": 3}, []),
            ("simulate", {**IDENTITY_SIMULATION, "tolerances": {"feasibility": 1e-9}}, []),
            ("simulate", {**IDENTITY_SIMULATION, "branch": "0000"}, []),
            ("simulate", {**IDENTITY_SIMULATION, "csv_path": ["s.csv"]}, []),
            ("cluster", EDGE, ["--seed", "4"]),
            ("cluster", EDGE, ["--branch", "1001"]),
            ("synthesize", {"preset": "lin4"}, ["--branch", "10x1"]),
            ("cluster", {**EDGE, "tolerances": {"feasibility": 1e-3}}, []),
            ("cluster", EDGE, ["--tol", "1e-3"]),
            ("simulate", IDENTITY_SIMULATION, ["--tol", "1e-7"]),
            ("synthesize", None, []),
            ("simulate", {**IDENTITY_SIMULATION, "solution": {"phases": [0.0] * 4}}, []),
            ("simulate", {**IDENTITY_SIMULATION, "detection": {}}, []),
            ("simulate", {"preset": "identity", "solution_report": "list.json", "shots": 2}, []),
            ("synthesize", {**IDENTITY_DETECTION, "pixels": {"boundaries": [0, 0.5, 1]}}, []),
            ("synthesize", {**IDENTITY_DETECTION, "opo_phases": [1, 2, 3]}, []),
            ("synthesize", {**IDENTITY_DETECTION, "modes": {"n": 2}}, []),
            (
                "synthesize",
                {"modes": {"file": "basis.txt", "n": 9}, "target": {"identity": True}},
                [],
            ),
            ("synthesize", {"preset": "cz2", "optimizer": {"seed": 3}}, []),
            ("synthesize", {"preset": "cz2", "optimizer": {"tol": 1e-6}}, []),
            ("cluster", {"graph": {"adjacency": [[0, 1], [1, 0]], "edges": [[0, 1]]}}, []),
            ("cluster", {**EDGE, "pixels": {"boundaries": [0, 0.5, 1]}}, []),
            ("synthesize", {"preset": ["lin4"]}, []),
            ("synthesize", {"preset": "lin4", "opo_phases": "abc"}, []),
            ("synthesize", {"preset": "lin4", "modes": {"n": "x"}}, []),
            ("cluster", {"graph": {"adjacency": [[0, "a"], ["a", 0]]}}, []),
            ("synthesize", {"preset": "lin4", "modes": 3}, []),
            ("synthesize", {**IDENTITY_DETECTION, "detection": {"matrix": {"im": [[0.0]]}}}, []),
            (
                "synthesize",
                {**IDENTITY_DETECTION, "detection": {"matrix": {"re": [[1.0]], "im": [[0, 0]]}}},
                [],
            ),
            ("cluster", {"graph": {"n": 3}}, []),
            ("synthesize", {"detection": IDENTITY_DETECTION["detection"]}, []),
            ("synthesize", {"preset": "lin4", "target": {"named": "lin5"}}, []),
            ("synthesize", {**IDENTITY_DETECTION, "target": {}}, []),
            ("gate", {"preset": "fourier", "target": {"gate": {"name": "cz"}}}, []),
            ("cluster", {"freedom": {"matrix": [[1.0]]}}, []),
            ("synthesize", ["lin4"], []),
            ("synthesize", {"preset": "lin4", "modes": {"n": 2.7}}, []),
            ("synthesize", {"preset": "lin4", "modes": {"n": True}}, []),
            ("simulate", {**IDENTITY_SIMULATION, "shots": 2.9}, []),
            ("synthesize", {"preset": "cz2", "seed": 1.5}, []),
            ("synthesize", {"preset": "lin4", "modes": {"file": 0}}, []),
            ("simulate", {"preset": "identity", "solution_report": 0, "shots": 2}, []),
            ("synthesize", {"preset": "cz2", "optimizer": {"restarts": 0, "max_iters": -3}}, []),
            ("gate", {"preset": "fourier", "input_squeezing": 0.3}, []),
            ("cluster", {**EDGE, "modes": {"n": 2}}, []),
            ("cluster", {**EDGE, "detection": IDENTITY_DETECTION["detection"]}, []),
            ("cluster", {**EDGE, "modes": {"n": 2}, "opo_phases": [0.1, 0.2]}, []),
            ("cluster", {**EDGE, "preset": "cz2"}, []),
            ("synthesize", {"preset": "lin4", "enumerate": "false"}, []),
            ("synthesize", {"preset": "lin4", "target": {"identity": "no"}}, []),
            ("synthesize", {"preset": "lin4", "target": {"identity": False}}, []),
            ("simulate", {**IDENTITY_SIMULATION, "plan": {"angles": []}}, []),
        ],
        ids=[
            "family", "structure", "gate-shots", "cluster-seed", "simulate-tolerances",
            "inline-solution-branch", "csv-path-type", "cluster--seed", "cluster--branch",
            "branch-not-bits",
            "cluster-tolerances", "cluster--tol",
            "simulate--tol", "no--config", "solution-without-gains", "detection-without-matrix",
            "solution-report-list-root", "detection-with-pixels", "detection-with-opo-phases",
            "detection-with-modes", "modes-file-with-n",
            "optimizer-seed", "optimizer-tol",
            "graph-adjacency-with-edges", "cluster-pixels-without-modes",
            "preset-not-a-name", "opo-phases-not-numbers", "modes-n-not-a-number",
            "adjacency-not-numbers", "modes-not-an-object", "matrix-without-re",
            "re-im-shapes-differ", "graph-without-edges", "no-target", "unknown-named-target",
            "empty-target", "unknown-gate", "cluster-without-graph",
            "list-root", "modes-n-fraction", "modes-n-bool",
            "shots-fraction", "seed-fraction", "modes-file-number", "solution-report-number",
            "optimizer-counts-below-1", "input-squeezing-without-r",
            "cluster-modes", "cluster-detection", "cluster-opo-phases", "cluster-preset",
            "enumerate-string", "identity-string", "identity-false", "plan-without-modes",
        ],
    )
    def test_exits_1_with_message(self, tmp_path, monkeypatch, capsys, command, doc, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[]")
        mphd.save_mode_basis(mphd.flip_mode_basis(4), tmp_path / "basis.txt")
        if doc is None:
            code, report = run([command, *flags]), None
        else:
            code, report = run_command(tmp_path, command, doc, *flags)
        assert code == 1
        assert report is None
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("synthesize", {"preset": "lin4", "modes": {"n": 2.7}}, "config.modes.n must be an integer"),
            ("synthesize", {"preset": "cz2", "optimizer": {"restarts": 1.0}}, "config.optimizer.restarts must be"),
            ("synthesize", {"preset": "cz2", "target": {"graph": {"edges": [], "n": True}}}, "config.target.graph.n"),
            ("simulate", {**IDENTITY_SIMULATION, "csv_path": ["s.csv"]}, "config.csv_path must be a file path"),
            ("synthesize", {"preset": "lin4", "target": {"identity": "no"}}, "config.target.identity must be true"),
            ("synthesize", {"preset": "lin4", "target": {"identity": False}}, "config.target.identity is false"),
            ("simulate", {**IDENTITY_SIMULATION, "plan": {"angles": []}}, "a measurement plan needs at least one mode"),
            ("gate", {"preset": "fourier", "r": True}, "config.r must be a number"),
            ("gate", {"preset": "fourier", "r": "6"}, "config.r must be a number"),
            ("gate", {"preset": "fourier", "r": 6, "input_squeezing": "1"}, "config.input_squeezing must be"),
            ("gate", {"preset": "fourier", "target": {"gate": {"theta_3": False}}}, "config.target.gate.theta_3"),
            ("gate", {"preset": "displacement", "target": {"gate": {"s": "1.5"}}}, "config.target.gate.s must"),
            ("synthesize", {"preset": "lin4", "tolerances": {"feasibility": "1e-9"}}, "config.tolerances.feasibility"),
            ("simulate", {**IDENTITY_SIMULATION, "r": None}, "config.r must be a number"),
            ("synthesize", {"preset": "lin4", "target": {"matrix": {"re": "x"}}}, "target.matrix.re must be a rectangular"),
            ("synthesize", {"preset": "lin4", "target": {"matrix": {"re": [[1, 0], [0]]}}}, "target.matrix.re must be"),
            (
                "synthesize",
                {**IDENTITY_DETECTION, "detection": {"matrix": {"re": np.eye(2).tolist(), "im": [["0", 0], [0, 0]]}}},
                "detection.matrix.im must be a rectangular",
            ),
            ("synthesize", {**IDENTITY_DETECTION, "detection": {"matrix": {"re": [[1, 0], [True, 1]]}}}, "detection.matrix.re must"),
            ("synthesize", {**IDENTITY_DETECTION, "detection": {"matrix": {"re": [[1, 0], [0, 10**400]]}}}, "detection.matrix.re must"),
            # numpy refuses 1e15 x 4 outcomes (32 PB) at once, without allocating
            ("simulate", {**IDENTITY_SIMULATION, "shots": 10**15}, "mphd simulate: error: Unable to allocate"),
            *(
                ("simulate", {**IDENTITY_SIMULATION, block: {**IDENTITY_SIMULATION.get(block, {}), key: value}},
                 f"config.{block}.{key} must be a rectangular array of numbers")
                for block, key, value in [
                    ("solution", "phases", ["a", 0, 0, 0]),
                    ("solution", "gains", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, "a"]]),
                    ("plan", "angles", ["a", 0, 0, 0]),
                    ("plan", "offsets", [0, 0, [0], 0]),
                    ("plan", "gains", [1, 1, True, 1]),
                ]
            ),
            ("cluster", {"graph": {"adjacency": [[0, "a"], ["a", 0]]}}, "config.graph.adjacency must be a rectangular"),
            ("synthesize", {"preset": "cz2", "target": {"graph": {"adjacency": "x"}}}, "config.target.graph.adjacency must"),
            ("synthesize", {"preset": "lin4", "opo_phases": ["a", 0, 0, 0]}, "config.opo_phases must be a rectangular"),
            ("synthesize", {"preset": "lin4", "pixels": {"boundaries": [0, "a", 1]}}, "config.pixels.boundaries must be"),
        ],
    )
    def test_typed_leaves_name_their_dotted_key(self, tmp_path, capsys, command, doc, message):
        code, report = run_command(tmp_path, command, doc)
        assert (code, report) == (1, None)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plan, field",
        [({"angles": [np.nan, 0, 0, 0]}, "angles"), ({"gains": [1, np.nan, 1, 1]}, "gains"),
         ({"offsets": [0, 0, np.inf, 0]}, "offsets")],
        ids=["nan-angle", "nan-gain", "infinite-offset"],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_plan_is_refused(self, tmp_path, capsys, plan, field):
        code, report = run_command(tmp_path, "simulate", {**IDENTITY_SIMULATION, "plan": plan})
        assert (code, report) == (1, None)
        assert f"measurement {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"preset": "identity", "modes": {"n": 65}}, "need 1 to 64 flip modes, got 65"),
            ({"preset": "lin4", "pixels": {"boundaries": [0, 0.5, 1]}}, "pixels gives 2 pixels for 4 modes"),
            ({"preset": "lin4", "pixels": {"boundaries": [0, 1, 2, 3, 4]}}, "does not cover the detector [0, 1]"),
        ],
        ids=["modes-n-65", "pixels-boundaries", "boundaries-beyond-the-detector"],
    )
    def test_front_end_limits_are_named(self, tmp_path, capsys, doc, message):
        code, report = run_command(tmp_path, "synthesize", doc)
        assert (code, report) == (1, None)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"preset": "lin4", "modes": {"domain": [0, 2]}}, "unknown key(s) ['domain'] in config.modes"),
            ({"preset": "lin4", "pixels": {"count": 4}}, "unknown key(s) ['count'] in config.pixels"),
        ],
        ids=["modes-domain", "pixels-count"],
    )
    def test_detector_interval_and_pixel_count_are_not_keys(self, tmp_path, capsys, doc, message):
        # the detector is [0, 1] and the pixel count the mode count: neither is set
        code, report = run_command(tmp_path, "synthesize", doc)
        assert (code, report) == (1, None)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, flags",
        [
            ("synthesize", {"preset": "cz2", "seed": -1}, []),
            ("synthesize", {"preset": "cz2"}, ["--seed", "-1"]),
            ("gate", {"preset": "fourier", "r": 2.0, "seed": -1}, []),
            ("simulate", {**IDENTITY_SIMULATION, "seed": -1}, []),
        ],
        ids=["synthesize", "seed-flag", "gate", "simulate"],
    )
    def test_negative_seed_is_named(self, tmp_path, capsys, command, doc, flags):
        code, report = run_command(tmp_path, command, doc, *flags)
        assert (code, report) == (1, None)
        assert f"mphd {command}: error: seed must be a non-negative integer or None, got -1" in capsys.readouterr().err

    def test_input_squeezing_without_r_is_named(self, tmp_path, capsys):
        code, report = run_command(tmp_path, "gate", {"preset": "fourier", "input_squeezing": 0.3})
        assert (code, report) == (1, None)
        assert "config.input_squeezing is read only with 'r'" in capsys.readouterr().err

    def test_traceback_logged_at_debug(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="mphd")
        doc = {"preset": "lin4", "opo_phases": ["a", "b", "c", "d"]}
        code, _ = run_command(tmp_path, "synthesize", doc)
        assert code == 1
        assert [r.exc_info[0] for r in caplog.records if r.exc_info] == [mphd.ConfigError]

    def test_help_exits_0(self, capsys):
        assert run(["simulate", "--help"]) == 0
        assert "--branch" in capsys.readouterr().out


def leaf_paths(doc, prefix=""):
    """A report's dotted key paths to non-object values; ``solutions`` through its first entry."""
    paths = set()
    for key, value in doc.items():
        path = prefix + key
        if key == "solutions" and value:
            value, path = value[0], path + "[0]"
        paths |= leaf_paths(value, path + ".") if isinstance(value, dict) else {path}
    return paths


def complex_paths(*names):
    return {f"{name}.{part}" for name in names for part in ("re", "im")}


def prefixed(prefix, *keys):
    return {f"{prefix}.{key}" for key in keys}


_STAMP = {"schema_version", "command", "timing.seconds"}
_FLIP_CONFIG = prefixed(
    "config", "modes.n", "modes.family", "modes.lo_index", "pixels.boundaries", "opo_phases"
) | complex_paths("config.u_t", "config.g")
_SYNTHESIS = _STAMP | complex_paths("feasibility.d_candidate") | prefixed(
    "feasibility", "feasible", "offdiag_residual", "modulus_residual", "tol"
)
_EXACT = _SYNTHESIS | _FLIP_CONFIG | prefixed("solutions[0]", "phases", "gains", "residual", "branch")
_GATE = (
    _EXACT
    | complex_paths("config.target.matrix")
    | {"config.target.gate.name"}
    | prefixed("program", "name", "angles", "offsets", "gains", "target_gate")
)

#: Each report's key paths: every value sits once, in the block that owns it.
REPORT_PATHS = [
    pytest.param("synthesize", {"preset": "identity"}, _EXACT | {"config.target.identity"}, id="identity"),
    pytest.param("synthesize", {"preset": "lin4"}, _EXACT | complex_paths("config.target.matrix"), id="lin4"),
    pytest.param("synthesize", {"preset": "fourier"}, _GATE, id="fourier"),
    pytest.param("synthesize", {"preset": "displacement"}, _GATE, id="displacement"),
    pytest.param(
        "synthesize",
        {"preset": "cz2"},
        _SYNTHESIS
        | complex_paths("config.detection.matrix", "config.target.matrix")
        | {"config.target.graph.adjacency", "solutions"}
        | prefixed(
            "approx", "residual", "iterations", "converged", "objective_trace",
            "solution.phases", "solution.gains", "solution.residual",
        ),
        id="cz2",
    ),
    pytest.param(
        "gate",
        {"preset": "fourier", "r": 6, "seed": 2},
        _GATE
        | prefixed(
            "verification", "r", "input_squeezing", "outcomes", "input_transfer", "offset_displacement",
            "output_mean", "output_cov", "cov_distance", "mean_distance", "passed",
        ),
        id="gate-r",
    ),
    pytest.param(
        "cluster",
        {"graph": {"edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}},
        _STAMP
        | {"config.graph.adjacency", "a", "x_s", "freedom", "validation.passed"}
        | complex_paths("u")
        | prefixed(
            "validation.residuals", "unitary", "xTy_symmetric", "xxT_plus_yyT_equals_i", "xyT_symmetric", "y_equals_vx"
        ),
        id="cluster",
    ),
    pytest.param(
        "simulate",
        {"preset": "lin4", "shots": 10},
        _STAMP
        | _FLIP_CONFIG
        | complex_paths("config.target.matrix")
        | prefixed("config", "plan.angles", "plan.offsets", "plan.gains", "r", "shots", "seed")
        | prefixed("solution", "phases", "gains", "residual")
        | {"csv_path", "sample_mean", "sample_cov", "analytic_mean", "analytic_cov", "staged_vs_direct_residual"},
        id="simulate",
    ),
]


def old_display(m) -> list:
    """The 2-decimal display block reports once carried beside a matrix."""
    return [[f"{v.real:+.2f}{v.imag:+.2f}j" for v in row] for row in np.atleast_2d(np.asarray(m, dtype=complex))]


class TestReportKeys:
    @pytest.mark.parametrize("command, doc, paths", REPORT_PATHS)
    def test_each_report_holds_its_pinned_key_paths(self, tmp_path, command, doc, paths):
        if command == "simulate":
            run_command(tmp_path, "synthesize", {"preset": "lin4"}, name="synth.json", out="synth_rep.json")
            doc = {**doc, "solution_report": str(tmp_path / "synth_rep.json")}
        code, report = run_command(tmp_path, command, doc)
        assert code == (2 if doc.get("preset") == "cz2" else 0)
        held = leaf_paths(report)
        assert (sorted(held - paths), sorted(paths - held)) == ([], [])

    @pytest.mark.parametrize("branch", [None, "1001"])
    def test_a_report_with_the_old_copies_still_feeds_simulate(self, tmp_path, branch):
        _, report = run_command(tmp_path, "synthesize", {"preset": "lin4"}, name="synth.json", out="trimmed.json")
        config, feasibility = report["config"], report["feasibility"]
        config["tolerance"] = feasibility["tol"]
        config["u_t_display"] = old_display(mat_from_json(config["u_t"]))
        config["g_display"] = old_display(mat_from_json(config["g"]))
        config["target"]["display"] = old_display(mat_from_json(config["target"]["matrix"]))
        feasibility["d_display"] = old_display(mat_from_json(feasibility["d_candidate"]))
        for sol in report["solutions"]:
            diagonal = np.exp(1j * np.asarray(sol["phases"]))
            sol["delta_diag"] = {"re": [diagonal.real.tolist()], "im": [diagonal.imag.tolist()]}
            sol["delta_display"] = old_display(diagonal)[0]
            sol["gains_display"] = old_display(sol["gains"])
        (tmp_path / "old.json").write_text(json.dumps(report))
        chosen = next(s for s in report["solutions"] if branch in (None, s["branch"]))
        replies = []
        for source in ("trimmed.json", "old.json"):
            doc = {"preset": "lin4", "solution_report": str(tmp_path / source), "shots": 10, "seed": 4}
            code, reply = run_command(tmp_path, "simulate", {**doc, **({"branch": branch} if branch else {})})
            assert code == 0
            assert (reply["solution"]["phases"], reply["solution"]["gains"]) == (chosen["phases"], chosen["gains"])
            reply.pop("timing")
            replies.append(reply)
        assert replies[0] == replies[1]


class TestSchemaTables:
    def test_lin4_preset_states_the_four_mode_cluster(self):
        u = mat_from_json(PRESETS["lin4"]["target"]["matrix"])
        assert u.tobytes() == mphd.linear_cluster_4().tobytes()  # signed zeros included

    def test_choice_and_nested_keys_are_allowed_in_their_block(self):
        top = set().union(*ALLOWED_KEYS.values())
        inner = set().union(*_NESTED_KEYS.values())
        assert set(_NESTED_KEYS) <= top | inner
        for block, alternatives in _CHOICES.items():
            allowed = top if block is None else _NESTED_KEYS[block]
            assert block is None or block in top | inner
            for alternative in alternatives:
                assert alternative <= allowed, (block, alternative)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_merge_under_each_command_that_reads_a_target(self, name):
        preset = PRESETS[name]
        assert set(preset) <= set().union(*ALLOWED_KEYS.values())
        for command, allowed in ALLOWED_KEYS.items():
            if "target" in allowed:
                fragment = {key: value for key, value in preset.items() if key in allowed}
                assert merge({}, fragment, allowed) == fragment
                assert merge(preset, {"preset": name}, allowed) == {**fragment, "preset": name}


class TestHarness:
    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "identity"})
        # the child imports the same mphd as this process, installed or not
        package_root = str(Path(mphd.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "mphd.cli", "synthesize", "--config", cfg],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "MPHD_LOG": "INFO", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0
        # logging goes to stderr and leaves stdout as one JSON report
        report = json.loads(proc.stdout)
        assert report["schema_version"] == 1
        assert "running synthesize" in proc.stderr

    def test_seed_flag_overrides(self, tmp_path):
        doc = {"preset": "cz2", "seed": 3}
        _, rep_a = run_command(tmp_path, "synthesize", doc, "--seed", "11", out="a.json")
        _, rep_b = run_command(tmp_path, "synthesize", doc, "--seed", "11", out="b.json")
        rep_a.pop("timing")
        rep_b.pop("timing")
        assert rep_a == rep_b


class TestReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_library_quick_start_prints_what_its_comments_state(self, capsys):
        (block,) = re.findall(r"```python\n(.*?)```", self.README.read_text(), re.S)
        exec(block, {})
        residual, cov_distance = map(float, capsys.readouterr().out.split())
        assert residual < 1e-13
        assert cov_distance == pytest.approx(106 * np.exp(-2 * 6.0), rel=0.01)

    def test_command_line_examples_exit_as_stated(self, tmp_path, monkeypatch, capsys):
        # every echo/mphd pair of the README's "Command line" section, then its sim.json feed-back
        monkeypatch.chdir(tmp_path)
        text = self.README.read_text()
        section = text[text.index("## Command line") :].split("\n## ")[0]
        codes = []
        for lang, body in re.findall(r"```(\w*)\n(.*?)```", section, re.S):
            if lang == "json":
                (tmp_path / "sim.json").write_text(body)
            for line in body.splitlines() if lang == "bash" else []:
                line = line.partition("#")[0].partition(";")[0].strip()
                if echo := re.fullmatch(r"echo '(.*)' > (\S+)", line):
                    (tmp_path / echo[2]).write_text(echo[1])
                elif line.startswith("mphd "):
                    codes.append(run(shlex.split(line)[1:]))
        assert codes == [0, 0, 0, 2, 0], capsys.readouterr().err
        assert (tmp_path / "sim_report.json").exists() and (tmp_path / "samples.csv").exists()
