"""Compressions of unitaries to spectral subspaces, and the identity
between their index and the spectral flow of the conjugation path.

For an invertible Hermitian D with nonnegative spectral projection P and a
unitary W, the compression P W P acting on ran P has index zero at finite
dimension — and the point is *how* it vanishes: the spectral flow of
s -> (1 - s) D + s W D W* exhibits the same cancellation through matching
up- and down-crossings (for the cyclic-shift families, the wrap-around
diagonal entry travels the whole spectrum to cancel the one local
crossing). verify_toeplitz_theorem records the equality along four routes
plus the signed crossing ledger.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, InvertibilityError
from .matcore import HermitianMatrix, as_hermitian, eigh, nonneg_projection, op_norm, rank_eps
from .projpair import Projection, pair_index
from .specflow import OperatorPath, SfOptions, sf_all_methods
from .generators import cyclic_shift, half_integer_diagonal
from .transforms import UnitaryMatrix

__all__ = [
    "toeplitz_compression",
    "toeplitz_index",
    "conjugation_path",
    "verify_toeplitz_theorem",
    "cyclic_shift_sweep",
    "power_sweep",
    "commutator_report",
]

_DEFAULT_OPTS = SfOptions()


def _as_unitary(w) -> UnitaryMatrix:
    if isinstance(w, UnitaryMatrix):
        return w
    return UnitaryMatrix(np.asarray(w))


def toeplitz_compression(p: Projection, w) -> np.ndarray:
    """Matrix of x -> P W x restricted to ran P, in an orthonormal basis
    of ran P taken from the eigendecomposition of P."""
    if not isinstance(p, Projection):
        p = Projection(np.asarray(p))
    w = _as_unitary(w)
    if w.dim != p.dim:
        raise InputError(f"dims differ: projection {p.dim}, unitary {w.dim}")
    ed = eigh(p)
    basis = ed.vectors[:, ed.values > 0.5]
    return basis.conj().T @ w.mat @ basis


def toeplitz_index(p: Projection, w, *, tol: float = 1e-8) -> int:
    """Fredholm index (dim ker - dim coker) of the compression P W P|ran P,
    both defects computed through rank_eps."""
    m = toeplitz_compression(p, w)
    r = m.shape[0]
    if r == 0:
        return 0
    dim_ker = r - rank_eps(m, tol)
    dim_coker = r - rank_eps(m.conj().T, tol)
    return dim_ker - dim_coker


def _aux_index(p: Projection, w, *, tol: float = 1e-8) -> int:
    """Index of I + (W - I) P on the full space (an equivalent route)."""
    w = _as_unitary(w)
    a = np.eye(p.dim, dtype=np.complex128) + (w.mat - np.eye(p.dim)) @ p.mat
    n = a.shape[0]
    return (n - rank_eps(a, tol)) - (n - rank_eps(a.conj().T, tol))


def conjugation_path(d: HermitianMatrix, w) -> OperatorPath:
    """The line s -> (1 - s) D + s W D W*."""
    d = as_hermitian(d)
    w = _as_unitary(w)
    if w.dim != d.dim:
        raise InputError(f"dims differ: D {d.dim}, W {w.dim}")
    conj = HermitianMatrix(w.mat @ d.mat @ w.mat.conj().T)

    def evaluate(ss: np.ndarray) -> np.ndarray:
        return (1.0 - ss)[:, None, None] * d.mat + ss[:, None, None] * conj.mat

    return OperatorPath(evaluate, d.dim, meta={"family": "toeplitz_line"})


def verify_toeplitz_theorem(
    d: HermitianMatrix, w, opts: SfOptions = _DEFAULT_OPTS
) -> dict:
    """Cross-check the compression index against the conjugation flow.

    Four integer routes are reported: the compression index, the spectral
    flow of (1-s) D + s W D W* (itself a four-way agreement), the
    projection-pair index ind(W P W*, P), and the auxiliary index of
    I + (W - I) P. The signed crossing ledger of the path shows the
    cancellation explicitly.
    """
    d = as_hermitian(d)
    w = _as_unitary(w)
    gap = float(np.min(np.abs(np.linalg.eigvalsh(d.mat))))
    if gap <= opts.endpoint_gap:
        raise InvertibilityError(
            f"D must be invertible: min |eigenvalue| = {gap:.3e}"
        )
    p = nonneg_projection(d)
    lhs = toeplitz_index(p, w)
    path = conjugation_path(d, w)
    flow = sf_all_methods(path, opts)
    ledger = flow["crossing_ledger"]
    conj_p = Projection(w.mat @ p.mat @ w.mat.conj().T)
    chain = pair_index(conj_p, p).value
    aux = _aux_index(p, w)
    values = {
        "compression_index": lhs,
        "sf_conjugation_path": flow["value"],
        "pair_chain_index": chain,
        "aux_index": aux,
    }
    return {
        "check": "toeplitz_index_vs_flow",
        **values,
        "equal": len(set(values.values())) == 1,
        "up_crossings": ledger["up_crossings"],
        "down_crossings": ledger["down_crossings"],
        "cancellation": ledger["up_crossings"] == ledger["down_crossings"],
        "sf_methods": flow["methods"],
    }


def _sweep_entry(m: int, pw: int, opts: SfOptions) -> dict:
    d = half_integer_diagonal(m)
    w = cyclic_shift(d.dim, pw)
    rep = verify_toeplitz_theorem(d, w, opts)
    rep.update(
        {
            "m": m,
            "power": pw,
            "dim": d.dim,
            "wrap_travel_levels": d.dim - pw,
            "expected_crossings_per_side": min(pw, m),
        }
    )
    return rep


def cyclic_shift_sweep(m_range, opts: SfOptions = _DEFAULT_OPTS) -> list[dict]:
    """verify_toeplitz_theorem for the one-step cyclic shift on the
    half-integer diagonal of each truncation radius m (dimension 2m + 1).

    Each entry shows one local down-crossing cancelled by one wrap-around
    up-crossing whose diagonal entry travels the whole spectrum
    (2m levels)."""
    return [_sweep_entry(int(m), 1, opts) for m in m_range]


def power_sweep(
    m: int, power_range, opts: SfOptions = _DEFAULT_OPTS
) -> list[dict]:
    """Same check at fixed truncation radius m while the shift power
    sweeps; power p <= m yields p matched crossings per side."""
    return [_sweep_entry(int(m), int(p), opts) for p in power_range]


def commutator_report(d: HermitianMatrix, w) -> dict:
    """Norms of [D, W], raw and tamed by the resolvent (D + i)^{-1}."""
    d = as_hermitian(d)
    w = _as_unitary(w)
    if w.dim != d.dim:
        raise InputError(f"dims differ: D {d.dim}, W {w.dim}")
    comm = d.mat @ w.mat - w.mat @ d.mat
    resolvent = np.linalg.inv(d.mat + 1j * np.eye(d.dim))
    return {
        "commutator_norm": op_norm(comm),
        "resolvent_weighted_norm": op_norm(comm @ resolvent),
    }
