"""Second numerical routes and lemma checks that tests compare the library
against: spectral projections by resolvent contour integration, A^{-1/2}
by quadrature, and the conjugation-norm identities of a pair (T, B)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specflowlab.errors import (
    CertificationError,
    ConsistencyFault,
    DimensionMismatchError,
    InputError,
    InvertibilityError,
)
from specflowlab.matcore import (
    _TOL_FLOOR,
    HermitianMatrix,
    Projection,
    apply_function,
    as_hermitian,
    op_norm,
    tol_spec,
)


class ContourCollisionError(InputError):
    """An eigenvalue lies too close to the integration contour."""


class DefinitenessError(InputError):
    """An operator that must be positive definite is not."""


def contour_projection(h: HermitianMatrix, center: float, radius: float) -> Projection:
    """Spectral projection via resolvent integration around a circle.

    Trapezoid rule on |z - center| = radius with node doubling until two
    successive levels agree within 1e-12 in operator norm; a
    CertificationError when they do not by 16384 nodes. Independent of
    the eigenvector route, so it serves as a genuine cross-check of
    :func:`spectral_projection`. Eigenvalues are only consulted to guard the
    contour: any eigenvalue within 1e-9 * (1 + ||H||) of the circle raises
    ContourCollisionError.
    """
    h = as_hermitian(h)
    if not (np.isfinite(center) and np.isfinite(radius)) or radius <= 0:
        raise InputError("contour needs a finite center and a positive radius")
    w = np.linalg.eigvalsh(h.mat)
    guard = tol_spec(h)
    circle_dist = float(np.min(np.abs(np.abs(w - center) - radius)))
    if circle_dist <= guard:
        raise ContourCollisionError(
            f"eigenvalue {circle_dist:.3e} from the contour (needs > {guard:.3e})"
        )
    n = h.dim
    eye = np.eye(n, dtype=np.complex128)

    def level(nodes: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        acc = np.zeros((n, n), dtype=np.complex128)
        for th in theta:
            z = center + radius * np.exp(1j * th)
            acc += radius * np.exp(1j * th) * np.linalg.inv(z * eye - h.mat)
        return acc / nodes

    nodes = 16
    prev = level(nodes)
    while True:
        nodes *= 2
        cur = level(nodes)
        diff = op_norm(cur - prev)
        if diff <= 1e-12:
            break
        if nodes >= 16384:
            raise CertificationError(
                f"contour quadrature stalled at {nodes} nodes (last delta {diff:.3e})"
            )
        prev = cur
    sym_defect = op_norm(cur - cur.conj().T)
    if sym_defect > 1e-8:
        raise ConsistencyFault(
            f"contour integral far from Hermitian: defect {sym_defect:.3e}"
        )
    return Projection((cur + cur.conj().T) / 2.0)


def inv_sqrt_integral(a: HermitianMatrix) -> HermitianMatrix:
    """A^(-1/2) through the integral (2/pi) * Int_0^inf (A + x^2)^{-1} dx.

    The substitution x = tan(theta) maps the ray to [0, pi/2); Gauss-Legendre
    quadrature with node doubling runs until two successive node counts agree
    within 1e-10 in operator norm; a CertificationError when they do not by
    4096 nodes. A must be positive definite.
    """
    a = as_hermitian(a)
    lam_min = float(np.linalg.eigvalsh(a.mat)[0])
    if lam_min <= _TOL_FLOOR * (1.0 + a.norm):
        raise DefinitenessError(
            f"matrix must be positive definite (min eigenvalue {lam_min:.3e})"
        )
    n = a.dim
    eye = np.eye(n, dtype=np.complex128)

    def level(nodes: int) -> np.ndarray:
        xi, wts = np.polynomial.legendre.leggauss(nodes)
        theta = (xi + 1.0) * (np.pi / 4.0)
        acc = np.zeros((n, n), dtype=np.complex128)
        for th, wt in zip(theta, wts):
            t2 = np.tan(th) ** 2
            acc += wt * (1.0 + t2) * np.linalg.inv(a.mat + t2 * eye)
        return (np.pi / 4.0) * acc * (2.0 / np.pi)

    nodes = 8
    prev = level(nodes)
    while True:
        nodes *= 2
        cur = level(nodes)
        if op_norm(cur - prev) <= 1e-10:
            break
        if nodes >= 4096:
            raise CertificationError(
                f"inverse-sqrt quadrature stalled at {nodes} nodes"
            )
        prev = cur
    return HermitianMatrix((cur + cur.conj().T) / 2.0)


@dataclass(frozen=True)
class A1Report:
    """Outcome of the conjugation-norm identity checks for a pair (T, B)."""

    norm_tbt_inv: float
    norm_tinv_bt: float
    norm_b: float
    equal_norms_ok: bool
    lower_bound_ok: bool
    spd: bool
    sandwich_norm: float | None
    sandwich_bound_ok: bool | None

    @property
    def ok(self) -> bool:
        base = self.equal_norms_ok and self.lower_bound_ok
        if self.sandwich_bound_ok is None:
            return base
        return base and self.sandwich_bound_ok


def check_a1(t: HermitianMatrix, b: HermitianMatrix) -> A1Report:
    """Verify the conjugation-norm identities for invertible Hermitian T.

    Checks ||T B T^-1|| = ||T^-1 B T|| (within 1e-10 relative), the lower
    bound ||B|| <= ||T^-1 B T||, and — when T is positive definite — the
    sandwich bound ||T^-1/2 B T^-1/2|| <= ||T^-1 B||.
    """
    t = as_hermitian(t)
    b = as_hermitian(b)
    if t.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {t.dim} vs {b.dim}")
    w = t.eig.values
    gap = float(np.min(np.abs(w)))
    if gap <= tol_spec(t):
        raise InvertibilityError(
            f"T must be invertible: min |eigenvalue| = {gap:.3e}"
        )
    t_inv = apply_function(t, lambda x: 1.0 / x)
    n1 = op_norm(t.mat @ b.mat @ t_inv.mat)
    n2 = op_norm(t_inv.mat @ b.mat @ t.mat)
    nb = op_norm(b)
    scale = 1.0 + max(n1, n2, nb)
    equal_ok = abs(n1 - n2) <= 1e-10 * scale
    lower_ok = nb <= n2 + 1e-10 * scale
    spd = bool(w[0] > tol_spec(t))
    sandwich = None
    sandwich_ok = None
    if spd:
        t_inv_half = apply_function(t, lambda x: 1.0 / np.sqrt(x))
        sandwich = op_norm(t_inv_half.mat @ b.mat @ t_inv_half.mat)
        rhs = op_norm(t_inv.mat @ b.mat)
        sandwich_ok = sandwich <= rhs + 1e-10 * (1.0 + sandwich + rhs)
    return A1Report(
        norm_tbt_inv=n1,
        norm_tinv_bt=n2,
        norm_b=nb,
        equal_norms_ok=equal_ok,
        lower_bound_ok=lower_ok,
        spd=spd,
        sandwich_norm=sandwich,
        sandwich_bound_ok=sandwich_ok,
    )
