"""Synthesis and Gaussian verification of multi-pixel homodyne detection networks.

The package compiles target unitary optical networks (cluster-state
generators, measurement-based Gaussian gate circuits) into detector-side
parameters: local-oscillator pixel phases and real orthogonal digital gains.
A finite-squeezing Gaussian covariance simulator verifies that the compiled
measurement reproduces the target network's statistics.
"""

from .cluster import (
    ClusterSolution,
    ClusterValidation,
    cluster_unitary,
    linear_cluster_3,
    linear_cluster_4,
    path_adjacency,
    solve_a,
    symmetric_x,
    validate_cluster,
)
from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    FeasibilityError,
    InternalConsistencyError,
    MPHDError,
    SingularityError,
    SingularPixelError,
    ValidationError,
)
from .gsim import (
    GateVerification,
    GaussianState,
    HomodyneRecord,
    SimulationResult,
    apply,
    export_samples_csv,
    homodyne_measure,
    nullifier_variances,
    omega,
    run_gate_program,
    simulate_mphd,
    squeezed_input,
    vacuum,
)
from .matcore import (
    DEFAULT_TOL,
    DiagonalUnitary,
    frobenius_distance,
    is_real_orthogonal,
    is_unitary,
    procrustes_best_orthogonal,
    symplectic_from_unitary,
    wrap_angle,
)
from .mbqc import (
    BEAM_SPLITTER,
    FOURIER_GATE,
    GateProgram,
    MeasurementPlan,
    build_u_tf,
    compose,
    displacement_program,
    fourier_program,
    m_shear,
    m_tele,
    quadrature_for_shear,
)
from .modes import (
    DetectionSetup,
    ModeBasis,
    PixelPartition,
    detection_setup,
    flip_mode_basis,
    load_mode_basis,
    pixel_modes,
    save_mode_basis,
)
from .synth import (
    ApproxResult,
    FeasibilityReport,
    SynthesisSolution,
    enumerate_solutions,
    feasibility,
    solve_approx,
    solve_exact,
    verify_solution,
)

__version__ = "0.1.0"
