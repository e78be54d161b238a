"""sf_pairsum projects its junctions in stacks: the same bits, ranks and
pair-index routes as one junction at a time. A stacked step raises what
its first failing check raises, on that check's first failing junction,
and nothing is taken again one junction at a time: with one faulty
junction that is the fault a junction-by-junction loop raises.

The Toeplitz line with m = 24 is dim 49, where a chunk holds 6 matrices,
and its 9 junctions span two chunks (6 + 3), as do its 8 pairs (6 + 2).
The line is diagonal, so its junctions are projected without LAPACK; the
faults are injected into LAPACK and into the projection check on the same
line conjugated by a fixed random unitary, whose junction matrices and
projections are dense and all differ, so each fault is met at the junction
(or pair) it names."""

import numpy as np
import pytest

from specflowlab import matcore, specflow
from specflowlab.errors import ConsistencyFault, SpecFlowError
from specflowlab.generators import family_path, line_path, random_unitary
from specflowlab.matcore import HermitianMatrix, Projection, eigh, nonneg_projection
from specflowlab.projpair import pair_index
from specflowlab.specflow import sf_pairsum, sf_phillips


def _line(m=24):
    return family_path("toeplitz_line", {"m": m})


def _dense_line(m=24):
    """The line between the Toeplitz line's ends conjugated by a fixed
    random unitary U: U H(t) U* up to rounding, with dense matrices."""
    diagonal = _line(m)
    u = random_unitary(np.random.default_rng(0), diagonal.dim).mat
    a, b = (HermitianMatrix(u @ diagonal.matrix(t).mat @ u.conj().T) for t in (0.0, 1.0))
    return line_path(a, b)


def _junctions(path):
    segs = sf_phillips(path).segments
    return [segs[0].t_left] + [s.t_right for s in segs]


def _unchecked_projection(h):
    """B B* from a fresh validated eigh (not the one the matrix caches)."""
    ed = eigh(h)
    b = ed.vectors[:, ed.values >= 0.0]
    return b @ b.conj().T


def _one_projection(h):
    """A junction's projection as the per-junction loop forms it: a fresh
    validated eigh and a checked B B*."""
    return Projection(_unchecked_projection(h))


def _reference_total(path, junctions):
    """sf_pairsum's total junction by junction: every junction's
    projection, then one pair index per segment."""
    projs = [_one_projection(path.matrix(t)) for t in junctions]
    return sum(pair_index(right, left).value for left, right in zip(projs, projs[1:]))


def _hits(a, target):
    """Indices of the matrices of a 2-d or 3-d array equal to ``target``
    bit for bit."""
    stack = np.reshape(a, (-1,) + np.shape(a)[-2:])
    if stack.shape[1:] != target.shape:
        return []
    return [i for i, m in enumerate(stack) if m.tobytes() == target.tobytes()]


def _inject(monkeypatch, kind, matrix, j):
    """Make ``matrix``, injected for junction j, fail one check wherever
    it is handled:
    * "eigenbasis": eigh returns its basis with the first column scaled by
      2 + j (a Gram defect of (2 + j)^2 - 1, naming the junction);
    * "idempotent": the projection check receives it scaled by 0.9;
    * "routes": eigvalsh returns all ones for it (a pair difference)."""
    if kind == "eigenbasis":
        inner = np.linalg.eigh

        def eigh_(a, *args, **kwargs):
            w, v = inner(a, *args, **kwargs)
            for i in _hits(a, matrix):
                np.reshape(v, (-1,) + v.shape[-2:])[i, :, 0] *= 2.0 + j
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", eigh_)
    elif kind == "idempotent":
        check = matcore._projection_stack

        def scaled_check(entries):
            entries = np.array(entries)
            for i in _hits(entries, matrix):
                entries[i] *= 0.9
            return check(entries)

        monkeypatch.setattr(matcore, "_projection_stack", scaled_check)
    else:
        inner = np.linalg.eigvalsh

        def eigvalsh_(a, *args, **kwargs):
            w = inner(a, *args, **kwargs)
            for i in _hits(a, matrix):
                np.reshape(w, (-1, w.shape[-1]))[i] = 1.0
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_)


FAULTS = [
    [("eigenbasis", 2)],
    [("eigenbasis", 6)],
    [("eigenbasis", 7)],
    [("idempotent", 4)],
    [("idempotent", 5)],  # the first chunk's last junction
    [("idempotent", 7)],
    [("routes", 4)],
    [("routes", 5)],
    [("routes", 7)],  # a pair of the second chunk of pairs
    # a fault of the first chunk before one of the second
    [("eigenbasis", 7), ("idempotent", 8)],
    # every junction is projected before any pair is counted
    [("routes", 4), ("eigenbasis", 8)],
]


@pytest.mark.parametrize("faults", FAULTS, ids=lambda f: "+".join(f"{k}@{j}" for k, j in f))
def test_first_failing_junction_raises_as_junction_by_junction(faults, monkeypatch):
    """A fault at junction j (for "routes": in the pair of junctions j - 1
    and j) raises the class and text a junction-by-junction loop raises."""
    path = _dense_line()
    junctions = _junctions(path)
    assert len(junctions) == 9 and specflow._chunk_len(path.dim) == 6
    mats = [path.matrix(t).mat for t in junctions]
    unchecked = [_unchecked_projection(path.matrix(t)) for t in junctions]
    projs = [Projection(p).mat for p in unchecked]
    assert len({p.tobytes() for p in unchecked}) == len(projs)
    for kind, j in faults:
        target = {"eigenbasis": mats[j], "idempotent": unchecked[j]}.get(kind)
        _inject(monkeypatch, kind, projs[j] - projs[j - 1] if target is None else target, j)
    with pytest.raises(SpecFlowError) as want:
        _reference_total(path, junctions)
    with pytest.raises(SpecFlowError) as got:
        sf_pairsum(path)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_two_faults_in_one_chunk_raise_the_first_failing_check(monkeypatch):
    """Junctions 4 and 5 share the first chunk. Junction 4's projection
    fails the idempotence check, junction 5's basis the Gram check. A
    junction-by-junction loop meets junction 4's fault first. The stack
    validates every basis before any projection is formed, so it raises
    junction 5's Gram defect after one eigh call for the chunk."""
    path = _dense_line()
    junctions = _junctions(path)
    mats = [path.matrix(t).mat for t in junctions]
    unchecked = [_unchecked_projection(path.matrix(t)) for t in junctions]
    _inject(monkeypatch, "idempotent", unchecked[4], 4)
    _inject(monkeypatch, "eigenbasis", mats[5], 5)
    with pytest.raises(ConsistencyFault, match="not orthonormal") as want:
        eigh(HermitianMatrix(mats[5]))
    shapes = []
    faulty = np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, *args: shapes.append(np.shape(a)) or faulty(a, *args)
    )
    with pytest.raises(SpecFlowError) as got:
        sf_pairsum(path)
    assert type(got.value) is ConsistencyFault
    assert str(got.value) == str(want.value)
    assert shapes == [(6, path.dim, path.dim)]


#: Toeplitz lines at dims 3, 49 and 97, with junction chunks of 2, of 6 and
#: 3, and of 1
CHUNKS = [(1, [2]), (24, [6, 3]), (48, [1] * 13)]


@pytest.mark.parametrize("m, chunks", CHUNKS)
def test_stacked_junctions_give_the_per_junction_bits(m, chunks, monkeypatch):
    _check_stacked_junctions(_line, m, chunks, monkeypatch)


@pytest.mark.parametrize("m, chunks", CHUNKS)
def test_stacked_dense_junctions_give_the_per_junction_bits(m, chunks, monkeypatch):
    _check_stacked_junctions(_dense_line, m, chunks, monkeypatch)


def _check_stacked_junctions(make, m, chunks, monkeypatch):
    """The stacked projections, ranks, pair differences and both pair-index
    routes equal per-junction nonneg_projection and pair_index bit for bit,
    and the projections equal the checked B B* of a fresh eigh."""
    fresh = make(m)
    one = [nonneg_projection(fresh.matrix(t)) for t in _junctions(fresh)]
    for p, t in zip(one, _junctions(fresh)):
        assert p.mat.tobytes() == _one_projection(fresh.matrix(t)).mat.tobytes()
    pairs = [pair_index(right, left) for left, right in zip(one, one[1:])]

    stacks, indices = [], []
    project, count = specflow._nonneg_projections, specflow._pair_indices

    def recording_projections(mats):
        out = project(mats)
        stacks.append(out)
        return out

    def recording_pairs(diffs, ranks):
        out = count(diffs, ranks)
        indices.append((diffs, out))
        return out

    monkeypatch.setattr(specflow, "_nonneg_projections", recording_projections)
    monkeypatch.setattr(specflow, "_pair_indices", recording_pairs)
    assert sf_pairsum(make(m)).total == sum(p.value for p in pairs)
    assert [len(p) for p, _ in stacks] == chunks
    rows = [(row, rank) for p, ranks in stacks for row, rank in zip(p, ranks)]
    assert len(rows) == len(one)
    for (row, rank), p in zip(rows, one):
        assert row.tobytes() == p.mat.tobytes() and rank == p.rank
    diffs = [d for ds, _ in indices for d in ds]
    got = [r for _, rs in indices for r in rs]
    assert got == pairs
    for d, left, right in zip(diffs, one, one[1:]):
        assert d.tobytes() == (right.mat - left.mat).tobytes()
        assert np.linalg.eigvalsh(d[None])[0].tobytes() == np.linalg.eigvalsh(d).tobytes()
