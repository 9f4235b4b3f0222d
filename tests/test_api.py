import types

import mphd

#: The public names of ``mphd``; growing or shrinking the API changes this list.
PUBLIC_NAMES = [
    "ApproxResult", "BEAM_SPLITTER", "CapacityError", "ClusterSolution", "ClusterValidation",
    "ConfigError", "DEFAULT_TOL", "DetectionSetup", "DiagonalUnitary", "DimensionError",
    "FOURIER_GATE", "FeasibilityError", "FeasibilityReport", "GateProgram", "GateVerification",
    "GaussianState", "HomodyneRecord", "InternalConsistencyError", "MPHDError", "MeasurementPlan",
    "ModeBasis", "PixelPartition", "ResolutionError", "SimulationResult", "SingularPixelError",
    "SingularityError", "SynthesisSolution", "ValidationError", "apply", "build_g", "build_u_tf",
    "cluster_unitary", "compose", "detection_matrix", "detection_setup", "displacement_program",
    "enumerate_solutions", "export_samples_csv", "feasibility", "flip_mode_basis",
    "fourier_program", "frobenius_distance", "homodyne_measure", "is_real_orthogonal",
    "is_unitary", "linear_cluster_3", "linear_cluster_4", "load_mode_basis", "m_shear", "m_tele",
    "nullifier_variances", "omega", "path_adjacency", "pixel_modes", "procrustes_best_orthogonal",
    "quadrature_for_shear", "run_gate_program", "save_mode_basis", "simulate_mphd", "solve_a",
    "solve_approx", "solve_exact", "squeezed_input", "symmetric_x", "symplectic_from_unitary",
    "vacuum", "validate_cluster", "verify_solution", "wrap_angle",
]


def test_public_names_are_pinned():
    # submodules (mphd.cli once imported) are not API names
    names = sorted(
        name
        for name, value in vars(mphd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
