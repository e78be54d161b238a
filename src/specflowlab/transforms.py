"""Bounded transforms from Hermitian matrices to their contractive Riesz
images and their unitary Cayley images.

* riesz:          T -> T (I + T^2)^{-1/2}        (Hermitian, norm < 1)
* cayley:         T -> (T - i)(T + i)^{-1}       (unitary)

Hermitian inputs go through the eigendecomposition route (map the
eigenvalues, reassemble), reading the decomposition the HermitianMatrix
caches, so a matrix that was already diagonalized (for a distance, a
projection or the other transform) is mapped without a second eigh. The
Riesz and Cayley images are assembled and validated for a stack of
decompositions at once; riesz and cayley are the one-matrix case.
unitary_eig diagonalizes a unitary with a cluster-orthonormalized eigenbasis.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyFault, FinitenessError, InputError
from .matcore import (
    HermitianMatrix,
    _Checked,
    _assemble,
    _hermitian_stack,
    _matrix_array,
    _norm_over,
    as_hermitian,
    op_norm,
)

__all__ = [
    "UnitaryMatrix",
    "riesz",
    "cayley",
    "unitary_eig",
]

#: eigenvalues of a unitary closer than this in angle form one cluster
_CLUSTER_ANGLE = 1e-6


class UnitaryMatrix(_Checked):
    """An immutable square complex matrix validated to satisfy U*U = I
    within 1e-10 in operator norm."""

    __slots__ = ("_mat",)

    def __init__(self, entries):
        self._store(_unitary_stack(_matrix_array(entries, square=True).copy()[None])[0])

    def _store(self, mat: np.ndarray) -> None:
        self._mat = mat

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self._mat, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


def _unitary_stack(a: np.ndarray) -> np.ndarray:
    """The unitary predicate on a (k, n, n) complex stack, which it marks
    read-only and returns: every entry finite, then ||U*U - I|| <= 1e-10 per
    matrix, Frobenius first; the first failing matrix raises."""
    if not np.all(np.isfinite(a)):
        raise FinitenessError("matrix entries must be finite (no NaN/Inf)")
    defect = _norm_over(a.conj().swapaxes(1, 2) @ a - np.eye(a.shape[1]), 1e-10)
    if defect is not None:
        raise InputError(f"not unitary: ||U*U - I|| = {defect:.3e}")
    a.setflags(write=False)
    return a


def _as_unitary(u) -> UnitaryMatrix:
    """``u`` itself if it is a UnitaryMatrix, else ``u`` validated as one."""
    return u if isinstance(u, UnitaryMatrix) else UnitaryMatrix(u)


def _riesz_values(w: np.ndarray) -> np.ndarray:
    """x / sqrt(1 + x^2) on an array of eigenvalues: the same IEEE
    operations as through apply_function, so the bits agree; an x^2 that
    overflows to inf maps to 0 there too, without a warning."""
    with np.errstate(over="ignore"):
        return w / np.sqrt(1.0 + w * w)


def _cayley_values(w: np.ndarray) -> np.ndarray:
    """(x - i) / (x + i) on an array of eigenvalues."""
    return (w - 1j) / (w + 1j)


def _riesz_stack(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The validated Riesz images T (I + T^2)^{-1/2} of the matrices whose
    eigenvalues (k, n) and bases (k, n, n) are given, as one read-only
    Hermitian stack, each matrix bit for bit its own image."""
    return _hermitian_stack(_assemble(v, _riesz_values(w)[:, None, :]))


def _cayley_stack(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The validated Cayley images (T - i)(T + i)^{-1} of the matrices
    whose eigenvalues and bases are given, assembled eigenvalue-wise, as one
    read-only stack that passed the unitary check matrix by matrix."""
    return _unitary_stack(_assemble(v, _cayley_values(w)[:, None, :]))


def _unitary_diagonals(c: np.ndarray) -> np.ndarray:
    """The unitary predicate on the diagonal matrices of a (k, n) stack of
    diagonals, which it returns: ||U*U - I|| = max_i ||c_i|^2 - 1|
    <= 1e-10 per matrix, with ``_unitary_stack``'s message; the first
    failing matrix raises."""
    defect = np.abs((c.real * c.real + c.imag * c.imag) - 1.0).max(axis=1)
    bad = np.flatnonzero(~(defect <= 1e-10))
    if bad.size:
        raise InputError(f"not unitary: ||U*U - I|| = {defect[bad[0]]:.3e}")
    return c


def riesz(t: HermitianMatrix) -> HermitianMatrix:
    """Bounded transform T (I + T^2)^{-1/2}; a strict contraction. The
    one-matrix case of the stacked images, from the cached decomposition."""
    ed = as_hermitian(t).eig
    return HermitianMatrix._of_valid(_riesz_stack(ed.values[None], ed.vectors[None])[0])


def cayley(t: HermitianMatrix) -> UnitaryMatrix:
    """Cayley transform (T - i)(T + i)^{-1}, assembled eigenvalue-wise: the
    one-matrix case of the stacked images, from the cached decomposition."""
    ed = as_hermitian(t).eig
    return UnitaryMatrix._of_valid(_cayley_stack(ed.values[None], ed.vectors[None])[0])


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
    u = _as_unitary(u)
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
