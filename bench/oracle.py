"""60-digit reference for the measurement-based gate circuit.

The four-mode circuit unitary is D_meas . (BS ⊕ I) . (1 ⊕ U_lin3) with
D_meas = diag(i, i, 1, e^{i theta_3}) and the three-mode path-cluster generator
U_lin3 written in radicals. The output covariance of the program is the joint
Schur complement of the three measured p quadratures (modes in, 1, 2) in the
propagated covariance, and the feedforward-corrected output mean of a
zero-mean input is -K (offsets / gains), with K the joint conditional gain.
Everything here runs in ``decimal`` at 60 significant digits, so at r = 20 the
e^{±2r} entries keep more than 40 correct digits after cancellation.
"""

from __future__ import annotations

import functools
from decimal import Decimal, localcontext

import numpy as np

PREC = 60


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    zero = Decimal(0)
    return [[sum((a[i][k] * b[k][j] for k in range(m)), zero) for j in range(p)] for i in range(n)]


def _cmatmul(a, b):
    zero = (Decimal(0), Decimal(0))
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = zero
            for k in range(len(b)):
                acc = _cadd(acc, _cmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _inverse(a):
    """Gauss-Jordan inverse of a small, well-conditioned Decimal matrix."""
    n = len(a)
    aug = [list(row) + [Decimal(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def circuit_unitary():
    """Closed-form four-mode circuit unitary (theta_3 = 0) as (re, im) Decimal pairs."""
    with localcontext() as ctx:
        ctx.prec = PREC
        z, one = Decimal(0), Decimal(1)
        s2, s3, s6 = Decimal(2).sqrt(), Decimal(3).sqrt(), Decimal(6).sqrt()
        r2, r3, r6 = one / s2, one / s3, one / s6

        def c(re, im=z):
            return (re, im)

        u_lin3 = [
            [c(z), c(-s2 * r3), c(z, -r3)],
            [c(z, -r2), c(z, -r6), c(-r3)],
            [c(-r2), c(r6), c(z, -r3)],
        ]
        layered = [[c(one if i == j else z) for j in range(4)] for i in range(4)]
        for i in range(3):
            for j in range(3):
                layered[i + 1][j + 1] = u_lin3[i][j]
        coupler = [[c(one if i == j else z) for j in range(4)] for i in range(4)]
        coupler[0][0], coupler[0][1] = c(r2), c(z, r2)
        coupler[1][0], coupler[1][1] = c(z, r2), c(r2)
        turns = [c(z, one), c(z, one), c(one), c(one)]
        d_meas = [[turns[i] if i == j else c(z) for j in range(4)] for i in range(4)]
        return _cmatmul(d_meas, _cmatmul(coupler, layered))


def _to_float(m) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in m])


@functools.lru_cache(maxsize=None)
def gate_reference(r: float, r_in: float):
    """Exact output covariance, conditional gain and target distance.

    Returns ``(cov, k_gain, distance)`` as float arrays: the 2x2 output
    covariance of the Fourier/displacement circuit with cluster squeezing
    ``r`` on a q-squeezed input of parameter ``r_in``, the 2x3 gain from the
    raw p outcomes of modes in/1/2 to the output mean, and the Frobenius
    distance of that covariance from the ideal Fourier-gate output.
    """
    with localcontext() as ctx:
        ctx.prec = PREC
        u = circuit_unitary()
        x = [[e[0] for e in row] for row in u]
        y = [[e[1] for e in row] for row in u]
        n = 4
        s = [[Decimal(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                s[i][j], s[i][n + j] = x[i][j], -y[i][j]
                s[n + i][j], s[n + i][n + j] = y[i][j], x[i][j]
        er, er_in = (Decimal(2) * Decimal(repr(r))).exp(), (Decimal(2) * Decimal(repr(r_in))).exp()
        diag = [1 / er_in] + [er] * 3 + [er_in] + [1 / er] * 3
        cov0 = [[diag[i] if i == j else Decimal(0) for j in range(2 * n)] for i in range(2 * n)]
        cov = _matmul(_matmul(s, cov0), _transpose(s))
        meas, keep = [n, n + 1, n + 2], [3, 2 * n - 1]
        c_mm = [[cov[i][j] for j in meas] for i in meas]
        c_km = [[cov[i][j] for j in meas] for i in keep]
        c_kk = [[cov[i][j] for j in keep] for i in keep]
        k_gain = _matmul(c_km, _inverse(c_mm))
        update = _matmul(k_gain, _transpose(c_km))
        out = [[c_kk[i][j] - update[i][j] for j in range(2)] for i in range(2)]
        # Fourier gate (q, p) -> (-p, q) on diag(e^{-2 r_in}, e^{2 r_in})
        target = [[er_in, Decimal(0)], [Decimal(0), 1 / er_in]]
        distance = sum((out[i][j] - target[i][j]) ** 2 for i in range(2) for j in range(2)).sqrt()
        return _to_float(out), _to_float(k_gain), float(distance)


def circuit_unitary_float() -> np.ndarray:
    u = circuit_unitary()
    return np.array([[float(re) + 1j * float(im) for re, im in row] for row in u])
