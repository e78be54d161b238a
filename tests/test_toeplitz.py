"""Compression-index vs conjugation-flow identity and its crossing ledger."""

import numpy as np
import pytest

from specflowlab import (
    InputError,
    InvertibilityError,
    SfOptions,
    clamp_spectrum_away_from_zero,
    conjugation_path,
    cyclic_shift,
    cyclic_shift_sweep,
    half_integer_diagonal,
    nonneg_projection,
    power_sweep,
    random_hermitian,
    random_unitary,
    toeplitz_compression,
    toeplitz_index,
    verify_toeplitz_theorem,
)

FROZEN_TOL = 1e-12


def test_compression_m1_frozen_oracle():
    """P W P on ran P for m = 1: a rank-one partial shift, index 0."""
    d = half_integer_diagonal(1)
    p = nonneg_projection(d)
    assert p.rank == 2
    t = toeplitz_compression(p, cyclic_shift(3))
    assert t.shape == (2, 2)
    np.testing.assert_allclose(
        np.linalg.svd(t, compute_uv=False), [1.0, 0.0], atol=FROZEN_TOL
    )
    assert toeplitz_index(p, cyclic_shift(3)) == 0


def test_cyclic_shift_sweep_identity_and_ledger():
    for entry in cyclic_shift_sweep(range(1, 7)):
        assert entry["equal"]
        assert entry["compression_index"] == 0
        assert entry["sf_conjugation_path"] == 0
        assert entry["cancellation"]
        assert entry["up_crossings"] == entry["down_crossings"] == 1
        assert entry["wrap_travel_levels"] == 2 * entry["m"]
        assert set(entry["sf_methods"].values()) == {0}


def test_power_sweep_counts_match_power():
    for entry in power_sweep(4, range(1, 5)):
        assert entry["equal"]
        assert entry["up_crossings"] == entry["down_crossings"] == entry["power"]
        assert entry["expected_crossings_per_side"] == entry["power"]


@pytest.mark.parametrize("sweep, message", [
    (lambda: cyclic_shift_sweep([1, 2.5]), "m must be an int >= 1, got 2.5"),
    (lambda: cyclic_shift_sweep([True]), "m must be an int >= 1, got True"),
    (lambda: power_sweep(2.5, [1]), "m must be an int >= 1, got 2.5"),
    (lambda: power_sweep(2, [1, 1.5]), "power must be an int >= 1, got 1.5"),
    (lambda: power_sweep(2, [0]), "power must be an int >= 1, got 0"),
], ids=["fractional-m", "bool-m", "fractional-power-m", "fractional-power", "zero-power"])
def test_sweeps_refuse_a_radius_or_power_that_is_not_a_count(sweep, message):
    """int() once truncated m = 2.5 and power = 1.5 and ran the sweep."""
    with pytest.raises(InputError, match=message):
        sweep()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_pairs_identity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 8))
    d = clamp_spectrum_away_from_zero(random_hermitian(rng, dim, 2.0), 0.3)
    w = random_unitary(rng, dim)
    rep = verify_toeplitz_theorem(d, w)
    assert rep["equal"]
    assert rep["cancellation"]
    assert rep["pair_chain_index"] == rep["aux_index"] == rep["compression_index"]


def test_conjugation_path_endpoints():
    d = half_integer_diagonal(2)
    w = cyclic_shift(5)
    path = conjugation_path(d, w)
    np.testing.assert_array_equal(path.matrix(0.0).mat, d.mat)
    np.testing.assert_allclose(
        path.matrix(1.0).mat, w.mat @ d.mat @ w.mat.conj().T, atol=FROZEN_TOL
    )


def test_singular_diagonal_rejected():
    d = np.diag([0.0, 1.0, 2.0])
    message = r"^D must be invertible: min \|eigenvalue\| = 0\.000e\+00$"
    with pytest.raises(InvertibilityError, match=message):
        verify_toeplitz_theorem(d, cyclic_shift(3))
    # a tighter endpoint_gap option also rejects a barely-invertible D
    d2 = np.diag([1e-6, 1.0, 2.0])
    with pytest.raises(InvertibilityError):
        verify_toeplitz_theorem(d2, cyclic_shift(3), SfOptions(endpoint_gap=1e-3))


def test_dimension_mismatches():
    d = half_integer_diagonal(1)
    with pytest.raises(InputError):
        conjugation_path(d, cyclic_shift(4))
    with pytest.raises(InputError):
        toeplitz_compression(nonneg_projection(d), cyclic_shift(4))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_sweep_fields_follow_the_shift_applied(m):
    """A power p shifts by r = p mod (2m + 1); the expected crossings and the
    wrap-around travel are those of r, so they match the ledger at every
    power, and past 2m + 1 too."""
    dim = 2 * m + 1
    for entry in power_sweep(m, range(1, 2 * dim + 1)):
        assert entry["expected_crossings_per_side"] == entry["up_crossings"]
        assert entry["up_crossings"] == entry["down_crossings"]
        assert entry["wrap_travel_levels"] >= 0
