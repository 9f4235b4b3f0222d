import inspect
import types

import mphd

#: The public names of ``mphd``; growing or shrinking the API changes this list.
PUBLIC_NAMES = [
    "ApproxResult", "BEAM_SPLITTER", "CapacityError", "ClusterSolution", "ClusterValidation",
    "ConfigError", "DEFAULT_TOL", "DetectionSetup", "DiagonalUnitary", "DimensionError",
    "FOURIER_GATE", "FeasibilityError", "FeasibilityReport", "GateProgram", "GateVerification",
    "GaussianState", "HomodyneRecord", "InternalConsistencyError", "MPHDError",
    "MeasurementPlan", "ModeBasis", "PixelPartition", "SimulationResult",
    "SingularPixelError", "SingularityError", "SynthesisSolution", "ValidationError", "apply",
    "build_u_tf", "cluster_unitary", "compose", "detection_setup", "displacement_program",
    "enumerate_solutions", "export_samples_csv", "feasibility", "flip_mode_basis",
    "fourier_program", "frobenius_distance", "homodyne_measure", "is_real_orthogonal",
    "is_unitary", "linear_cluster_3", "linear_cluster_4", "load_mode_basis", "m_shear",
    "m_tele", "nullifier_variances", "omega", "path_adjacency", "pixel_modes",
    "procrustes_best_orthogonal", "quadrature_for_shear", "run_gate_program", "save_mode_basis",
    "simulate_mphd", "solve_a", "solve_approx", "solve_exact", "squeezed_input", "symmetric_x",
    "symplectic_from_unitary", "vacuum", "validate_cluster", "verify_solution", "wrap_angle",
]

#: The parameter names of each public callable but the exceptions; a new,
#: renamed or dropped parameter changes this map.
PUBLIC_SIGNATURES = {
    "ApproxResult": ("solution", "objective_trace", "iterations", "converged"),
    "ClusterSolution": ("a", "x", "y", "u", "orthogonal_freedom", "x_s"),
    "ClusterValidation": ("passed", "residuals"),
    "DetectionSetup": ("u_t", "delta_opo", "g"),
    "DiagonalUnitary": ("phases",),
    "FeasibilityReport": (
        "u_prime", "d_candidate", "offdiag_residual", "modulus_residual", "feasible", "tol"
    ),
    "GateProgram": ("plan", "target_gate", "u_th", "name"),
    "GateVerification": (
        "cov_distance", "mean_distance", "offset_displacement", "input_transfer",
        "outcomes", "passed"
    ),
    "GaussianState": ("mean", "cov"),
    "HomodyneRecord": ("mode", "angle", "outcome"),
    "MeasurementPlan": ("angles", "offsets", "gains"),
    "ModeBasis": ("samples",),
    "PixelPartition": ("boundaries",),
    "SimulationResult": (
        "outcomes", "angles", "sample_mean", "sample_cov", "analytic_mean", "analytic_cov",
        "direct_cov", "staged_vs_direct_residual"
    ),
    "SynthesisSolution": ("delta_lo", "gains", "residual", "branch_id"),
    "apply": ("s", "state"),
    "build_u_tf": ("theta_3",),
    "cluster_unitary": ("v", "freedom"),
    "compose": ("gates",),
    "detection_setup": ("basis", "lo_index", "partition", "opo_phases"),
    "displacement_program": ("s", "theta_3"),
    "enumerate_solutions": ("report", "g", "u_th"),
    "export_samples_csv": ("result", "path"),
    "feasibility": ("u_th", "g", "tol"),
    "flip_mode_basis": ("n_modes",),
    "fourier_program": ("theta_3",),
    "frobenius_distance": ("m1", "m2"),
    "homodyne_measure": ("state", "mode", "theta", "rng_seed"),
    "is_real_orthogonal": ("m", "tol"),
    "is_unitary": ("m", "tol"),
    "linear_cluster_3": (),
    "linear_cluster_4": (),
    "load_mode_basis": ("path",),
    "m_shear": ("s",),
    "m_tele": ("theta_in", "theta_1"),
    "nullifier_variances": ("state", "v"),
    "omega": ("n_modes",),
    "path_adjacency": ("n",),
    "pixel_modes": ("basis", "lo_index", "partition"),
    "procrustes_best_orthogonal": ("b",),
    "quadrature_for_shear": ("s",),
    "run_gate_program": ("program", "input_state", "r", "seed"),
    "save_mode_basis": ("basis", "path"),
    "simulate_mphd": ("setup", "sol", "plan", "r", "shots", "seed"),
    "solve_a": ("v",),
    "solve_approx": ("u_th", "g", "max_iters", "restarts", "seed", "tol"),
    "solve_exact": ("report", "g", "u_th", "branch"),
    "squeezed_input": ("n_modes", "r", "squeeze_axes"),
    "symmetric_x": ("a",),
    "symplectic_from_unitary": ("u",),
    "vacuum": ("n_modes",),
    "validate_cluster": ("u", "v"),
    "verify_solution": ("sol", "u_th", "g"),
    "wrap_angle": ("phi",),
}


def public_names():
    # submodules (mphd.cli once imported) are not API names
    return sorted(
        name
        for name, value in vars(mphd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names_are_pinned():
    assert public_names() == PUBLIC_NAMES


def test_public_signatures_are_pinned():
    signatures = {}
    for name in public_names():
        value = getattr(mphd, name)
        if callable(value) and not (isinstance(value, type) and issubclass(value, BaseException)):
            signatures[name] = tuple(inspect.signature(value).parameters)
    assert signatures == PUBLIC_SIGNATURES
