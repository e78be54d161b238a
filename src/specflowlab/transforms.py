"""Bounded transforms between Hermitian matrices, their contractive
Riesz images, and their unitary Cayley images.

* riesz:          T -> T (I + T^2)^{-1/2}        (Hermitian, norm < 1)
* riesz_inverse:  S -> (I - S^2)^{-1/2} S
* cayley:         T -> (T - i)(T + i)^{-1}       (unitary)
* cayley_inverse: U -> i (I + U)(I - U)^{-1}

Hermitian inputs go through the eigendecomposition route (diagonalize, map
eigenvalues, reassemble); the unitary input of cayley_inverse is
diagonalized with a cluster-orthonormalized eigenbasis so the result is
Hermitian by construction even when U - I is badly conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyFault,
    DimensionMismatchError,
    FinitenessError,
    ImageMembershipError,
    InputError,
)
from .matcore import HermitianMatrix, apply_function, as_hermitian, eigh, op_norm

__all__ = [
    "UnitaryMatrix",
    "MembershipReport",
    "riesz",
    "riesz_inverse",
    "cayley",
    "cayley_inverse",
    "unitary_eig",
    "is_in_riesz_image",
    "is_in_cayley_invertible_image",
]

#: closed/open boundary guard for image membership decisions
_IMAGE_GUARD = 1e-9

#: eigenvalues of a unitary closer than this in angle form one cluster
_CLUSTER_ANGLE = 1e-6


class UnitaryMatrix:
    """An immutable square complex matrix validated to satisfy U*U = I
    within 1e-10 in operator norm."""

    __slots__ = ("_mat",)

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"unitary matrix must be square, got {a.shape}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise FinitenessError("matrix entries must be finite (no NaN/Inf)")
        defect = op_norm(a.conj().T @ a - np.eye(a.shape[0]))
        if defect > 1e-10:
            raise InputError(f"not unitary: ||U*U - I|| = {defect:.3e}")
        a.setflags(write=False)
        self._mat = a

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self._mat
        return self._mat.astype(dtype)

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"

    @classmethod
    def identity(cls, dim: int) -> "UnitaryMatrix":
        return cls(np.eye(dim, dtype=np.complex128))


@dataclass(frozen=True)
class MembershipReport:
    """Boolean verdict plus the quantity that witnessed it."""

    ok: bool
    detail: str
    witness: float

    def __bool__(self) -> bool:
        return self.ok


def riesz(t: HermitianMatrix) -> HermitianMatrix:
    """Bounded transform T (I + T^2)^{-1/2}; a strict contraction."""
    t = as_hermitian(t)
    return apply_function(t, lambda x: x / np.sqrt(1.0 + x * x))


def riesz_inverse(s: HermitianMatrix) -> HermitianMatrix:
    """Inverse of :func:`riesz` on strict contractions: (I - S^2)^{-1/2} S.

    Requires ||S|| < 1 - 1e-9; anything closer to the unit sphere has no
    stable preimage and raises ImageMembershipError.
    """
    s = as_hermitian(s)
    norm = s.norm
    if norm >= 1.0 - _IMAGE_GUARD:
        raise ImageMembershipError(
            f"not safely inside the contraction image: ||S|| = {norm!r} >= 1 - 1e-9"
        )
    return apply_function(s, lambda x: x / np.sqrt(1.0 - x * x))


def cayley(t: HermitianMatrix) -> UnitaryMatrix:
    """Cayley transform (T - i)(T + i)^{-1}, assembled eigenvalue-wise."""
    t = as_hermitian(t)
    ed = eigh(t)
    u_vals = (ed.values - 1j) / (ed.values + 1j)
    return UnitaryMatrix(ed.assemble(u_vals))


def unitary_eig(u: UnitaryMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (unit modulus) and an orthonormal eigenbasis of a unitary.

    np.linalg.eig already separates distinct eigenvalues of a normal matrix
    orthogonally; clusters closer than 1e-6 in angle are re-orthonormalized
    by QR inside the cluster. Eigenvalues are ordered by angle in
    (-pi, pi]; when a cluster straddles -1, where the angle wraps, the order
    starts after the largest gap between neighbouring angles instead, so
    the cluster stays whole. The result is validated (basis Gram defect and
    reconstruction <= 1e-8) before being returned.
    """
    if not isinstance(u, UnitaryMatrix):
        u = UnitaryMatrix(np.asarray(u))
    w, v = np.linalg.eig(u.mat)
    angles = np.angle(w)
    order = np.argsort(angles, kind="stable")
    gaps = np.diff(angles[order], append=angles[order[0]] + 2.0 * np.pi)
    if gaps[-1] < _CLUSTER_ANGLE:
        order = np.roll(order, -(int(np.argmax(gaps)) + 1))
    w = w[order]
    v = v[:, order].copy()
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    n = w.size
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(np.angle(w[stop] / w[stop - 1])) < _CLUSTER_ANGLE:
            stop += 1
        if stop - start > 1:
            q, _ = np.linalg.qr(v[:, start:stop])
            v[:, start:stop] = q
        start = stop
    gram = op_norm(v.conj().T @ v - np.eye(n))
    recon = op_norm((v * w) @ v.conj().T - u.mat)
    if gram > 1e-8 or recon > 1e-8:
        raise ConsistencyFault(
            f"unitary eigenbasis failed validation (gram {gram:.3e}, recon {recon:.3e})"
        )
    return w, v


def cayley_inverse(u: UnitaryMatrix) -> HermitianMatrix:
    """Inverse Cayley transform i (I + U)(I - U)^{-1}.

    +1 in the spectrum of U corresponds to the point at infinity and is
    rejected when any eigenvalue comes within 1e-9 of it. The result is
    assembled from the eigenbasis with the scalar form -cot(theta/2) of the
    same formula, which stays Hermitian even near the guard.
    """
    if not isinstance(u, UnitaryMatrix):
        u = UnitaryMatrix(np.asarray(u))
    w, v = unitary_eig(u)
    dist_plus = float(np.min(np.abs(w - 1.0)))
    if dist_plus <= _IMAGE_GUARD:
        raise ImageMembershipError(
            "point at infinity: +1 lies within "
            f"{dist_plus:.3e} of the spectrum (needs > {_IMAGE_GUARD:.0e})"
        )
    theta = np.angle(w)
    t_vals = -1.0 / np.tan(theta / 2.0)
    return HermitianMatrix((v * t_vals) @ v.conj().T)


def is_in_riesz_image(s: HermitianMatrix) -> MembershipReport:
    """Membership in the closure-safe Riesz image of Hermitian matrices.

    Requires ||S|| <= 1 + 1e-12 and every eigenvalue at distance > 1e-9
    from both +1 and -1. The witness is the violating quantity.
    """
    s = as_hermitian(s)
    w = np.linalg.eigvalsh(s.mat)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    if norm > 1.0 + 1e-12:
        return MembershipReport(False, "norm exceeds 1", norm)
    edge = float(np.min(np.minimum(np.abs(w - 1.0), np.abs(w + 1.0))))
    if edge <= _IMAGE_GUARD:
        return MembershipReport(False, "eigenvalue too close to +-1", edge)
    return MembershipReport(True, "inside the contraction image", edge)


def is_in_cayley_invertible_image(u: UnitaryMatrix) -> MembershipReport:
    """Membership in the Cayley image of *invertible* Hermitian matrices.

    Both +1 (point at infinity) and -1 (image of 0) must stay at distance
    > 1e-9 from the spectrum of U.
    """
    if not isinstance(u, UnitaryMatrix):
        u = UnitaryMatrix(np.asarray(u))
    w = np.linalg.eigvals(u.mat)
    dist_plus = float(np.min(np.abs(w - 1.0)))
    dist_minus = float(np.min(np.abs(w + 1.0)))
    if dist_plus <= _IMAGE_GUARD:
        return MembershipReport(False, "+1 in spectrum (point at infinity)", dist_plus)
    if dist_minus <= _IMAGE_GUARD:
        return MembershipReport(False, "-1 in spectrum (image of a kernel)", dist_minus)
    return MembershipReport(True, "inside the invertible Cayley image", min(dist_plus, dist_minus))
