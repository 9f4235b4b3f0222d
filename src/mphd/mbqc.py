"""Measurement-based gate calculus for single-mode Gaussian operations.

Mode ordering is fixed as (in, 1, 2, 3): the input mode is coupled by a
50/50 beam splitter to mode 1 of a three-mode linear cluster, modes in/1/2
are measured, and mode 3 carries the output. Gate matrices are real 2x2
symplectic maps acting on the quadrature pair (q, p).

The assembled four-mode unitary already contains the per-mode measurement
rotations ``D_meas = diag(e^{i theta_k})``, so at the detector every
measured quadrature is plain p-hat (local-oscillator phase 3*pi/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cluster import linear_cluster_3
from .errors import DimensionError, SingularityError, ValidationError
from .matcore import DiagonalUnitary, symplectic_from_unitary

#: Quadrature rotation implemented by the Fourier gate: (q, p) -> (-p, q).
FOURIER_GATE = np.array([[0.0, -1.0], [1.0, 0.0]])

#: 50/50 beam-splitter unitary coupling the input mode to cluster mode 1.
BEAM_SPLITTER = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)


def m_tele(theta_in: float, theta_1: float) -> np.ndarray:
    """Quadrature map induced by the two teleportation measurements.

    Singular when ``cos(theta_in - theta_1) = 0``; the choice
    ``theta_in = theta_1 = pi/2`` teleports the input exactly (identity map).
    """
    t_plus = theta_in + theta_1
    t_minus = theta_in - theta_1
    c_minus = np.cos(t_minus)
    if abs(c_minus) < 1e-12:
        raise SingularityError(
            f"teleportation map singular at theta_in - theta_1 = {t_minus!r}"
        )
    return (
        -np.array(
            [
                [np.cos(t_plus), np.sin(t_minus) - np.sin(t_plus)],
                [np.sin(t_minus) + np.sin(t_plus), np.cos(t_plus)],
            ]
        )
        / c_minus
    )


def m_shear(s: float) -> np.ndarray:
    """Quadrature map transferred to the neighbor by a sheared p measurement."""
    return np.array([[-float(s), -1.0], [1.0, 0.0]])


def quadrature_for_shear(s: float):
    """Gain and angle (g, theta) realizing the measurement of ``p + s q``."""
    return float(np.sqrt(1.0 + s * s)), float(np.arctan(s))


def compose(gates) -> np.ndarray:
    """Ordered product of gate matrices; the last measurement acts leftmost."""
    gates = list(gates)
    if not gates:
        raise ValidationError("cannot compose an empty gate list")
    out = np.asarray(gates[0], dtype=float)
    for gate in gates[1:]:
        out = np.asarray(gate, dtype=float) @ out
    return out


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """Measurement settings of one or more modes: angles, additive offsets, gains; equal only to itself."""

    angles: np.ndarray
    offsets: np.ndarray = None
    gains: np.ndarray = None

    def __post_init__(self):
        angles = np.atleast_1d(np.asarray(self.angles, dtype=float))
        offsets, gains = (
            np.full_like(angles, fill) if v is None else np.atleast_1d(np.asarray(v, dtype=float))
            for v, fill in ((self.offsets, 0.0), (self.gains, 1.0))
        )
        if not angles.size:
            raise DimensionError("a measurement plan needs at least one mode")
        if offsets.shape != angles.shape or gains.shape != angles.shape:
            raise DimensionError("angles, offsets and gains must have equal length")
        if np.any(gains < 1.0 - 1e-12):
            raise ValidationError("measurement gains must be >= 1")
        for name, values in (("angles", angles), ("offsets", offsets), ("gains", gains)):
            if not np.isfinite(values).all():
                raise ValidationError(f"measurement {name} must be finite")
            object.__setattr__(self, name, values)

    @property
    def n_modes(self) -> int:
        return self.angles.shape[0]


@dataclass(frozen=True, eq=False)
class GateProgram:
    """A compiled single-mode Gaussian gate: plan, 2x2 action, read-only unitary; equal only to itself."""

    plan: MeasurementPlan
    target_gate: np.ndarray
    u_th: np.ndarray
    name: str = ""

    def __post_init__(self):
        try:
            gate = np.asarray(self.target_gate)
        except ValueError:  # ragged nesting
            raise DimensionError("target_gate must be 2x2, got a ragged array") from None
        if gate.shape != (2, 2):
            raise DimensionError(f"target_gate must be 2x2, got shape {gate.shape}")
        if gate.dtype.kind not in "iuf" or not np.isfinite(gate).all():
            raise ValidationError("target_gate must be a finite real 2x2 array")
        object.__setattr__(self, "target_gate", gate.astype(float))
        object.__setattr__(self, "u_th", np.array(self.u_th, dtype=complex))
        self.u_th.flags.writeable = False

    #: symplectic map of ``u_th``, checked for unitarity on first use; a failed check is not cached
    _symplectic = cached_property(lambda self: symplectic_from_unitary(self.u_th))


def build_u_tf(theta_3: float = 0.0) -> np.ndarray:
    """Assemble the four-mode target unitary of the gate circuit.

    ``D_meas . (BS^{in,1} ⊕ I) . (1 ⊕ U_lin3)`` with measurement angles
    (pi/2, pi/2, 0, theta_3) and ``U_lin3`` the three-mode path cluster
    generator :func:`~mphd.cluster.linear_cluster_3`.
    """
    coupler = np.eye(4, dtype=complex)
    coupler[:2, :2] = BEAM_SPLITTER
    layered = np.eye(4, dtype=complex)
    layered[1:, 1:] = linear_cluster_3()
    return DiagonalUnitary(_angles(theta_3)).matrix() @ coupler @ layered


def _angles(theta_3: float) -> list:
    return [np.pi / 2, np.pi / 2, 0.0, theta_3]


def _fourier_circuit(name: str, theta_3: float, offsets=None) -> GateProgram:
    plan = MeasurementPlan(angles=_angles(theta_3), offsets=offsets)
    c, s = np.cos(theta_3), np.sin(theta_3)
    return GateProgram(
        plan=plan,
        target_gate=np.array([[c, -s], [s, c]]) @ FOURIER_GATE,
        u_th=build_u_tf(theta_3),
        name=name,
    )


def fourier_program(theta_3: float = 0.0) -> GateProgram:
    """Program implementing the Fourier transform on the input mode.

    Measurement angles (pi/2, pi/2, 0, theta_3) with zero offsets; theta_3
    rotates the output mode, so the target gate is ``R(theta_3) F`` with
    ``R(t) = [[cos t, -sin t], [sin t, cos t]]``.
    """
    return _fourier_circuit("fourier", theta_3)


def displacement_program(s: float, theta_3: float = 0.0) -> GateProgram:
    """Fourier program with ``s`` added to the mode-2 p-hat outcome.

    Identical circuit and angles; the offset realizes a quadrature
    displacement, so the target action is the Fourier gate followed by a
    q displacement of magnitude ``s`` on the output (in this package's
    [q, p] = 2i units), all rotated by ``R(theta_3)``.
    """
    return _fourier_circuit("displacement", theta_3, offsets=[0.0, 0.0, float(s), 0.0])
