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

from .errors import InputError, InvertibilityError, require_int
from .matcore import HermitianMatrix, as_hermitian, nonneg_projection, rank_eps
from .projpair import Projection, _as_projection, pair_index
from .specflow import _DEFAULT_OPTS, SfOptions, sf_all_methods
from .generators import conjugation_path, cyclic_shift, half_integer_diagonal
from .transforms import _as_unitary

__all__ = [
    "toeplitz_compression",
    "toeplitz_index",
    "verify_toeplitz_theorem",
    "cyclic_shift_sweep",
    "power_sweep",
]


def toeplitz_compression(p: Projection, w) -> np.ndarray:
    """Matrix of x -> P W x restricted to ran P, in an orthonormal basis
    of ran P taken from the eigendecomposition of P."""
    p = _as_projection(p)
    w = _as_unitary(w)
    if w.dim != p.dim:
        raise InputError(f"dims differ: projection {p.dim}, unitary {w.dim}")
    ed = p.eig
    basis = ed.vectors[:, ed.values > 0.5]
    return basis.conj().T @ w.mat @ basis


def toeplitz_index(p: Projection, w) -> int:
    """Fredholm index (dim ker - dim coker) of the compression P W P|ran P,
    both defects computed through rank_eps (singular values above 1e-8)."""
    m = toeplitz_compression(p, w)
    r = m.shape[0]
    if r == 0:
        return 0
    dim_ker = r - rank_eps(m)
    dim_coker = r - rank_eps(m.conj().T)
    return dim_ker - dim_coker


def _aux_index(p: Projection, w) -> int:
    """Index of I + (W - I) P on the full space (an equivalent route)."""
    w = _as_unitary(w)
    a = np.eye(p.dim, dtype=np.complex128) + (w.mat - np.eye(p.dim)) @ p.mat
    n = a.shape[0]
    return (n - rank_eps(a)) - (n - rank_eps(a.conj().T))


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
    path = conjugation_path(d, w)
    # H(0) = D; sf_all_methods reuses the end matrices and values kept here
    gap = path.endpoint_gaps()[0]
    if gap <= opts.endpoint_gap:
        raise InvertibilityError(
            f"D must be invertible: min |eigenvalue| = {gap:.3e}"
        )
    p = nonneg_projection(d)
    lhs = toeplitz_index(p, w)
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
    # the shift applied is by r = pw mod dim: r diagonal entries wrap
    # around, each travelling dim - r levels (none when r = 0)
    r = pw % d.dim
    rep.update(
        {
            "m": m,
            "power": pw,
            "dim": d.dim,
            "wrap_travel_levels": (d.dim - r) % d.dim,
            "expected_crossings_per_side": min(r, d.dim - r),
        }
    )
    return rep


def cyclic_shift_sweep(m_range, opts: SfOptions = _DEFAULT_OPTS) -> list[dict]:
    """verify_toeplitz_theorem for the one-step cyclic shift on the
    half-integer diagonal of each truncation radius m (dimension 2m + 1).

    Each entry shows one local down-crossing cancelled by one wrap-around
    up-crossing whose diagonal entry travels the whole spectrum
    (2m levels). Every m must be an int >= 1."""
    ms = [require_int(m, "m", 1) for m in m_range]
    return [_sweep_entry(m, 1, opts) for m in ms]


def power_sweep(
    m: int, power_range, opts: SfOptions = _DEFAULT_OPTS
) -> list[dict]:
    """Same check at fixed truncation radius m while the shift power
    sweeps; power p, a shift by r = p mod (2m + 1), yields min(r, 2m + 1 - r)
    matched crossings per side (p for p <= m). m and every power must be
    ints >= 1."""
    require_int(m, "m", 1)
    powers = [require_int(p, "power", 1) for p in power_range]
    return [_sweep_entry(m, p, opts) for p in powers]

