import numpy as np

import pytest

from minorbit import linalg
from minorbit.linalg import MODP, MODP_SMALL, ModPRref, rank_exact


@pytest.mark.parametrize("p", [MODP, MODP_SMALL])
def test_modp_is_prime(p):
    assert p > 2 and p % 2
    d = 3
    while d * d <= p:
        assert p % d, d
        d += 2


def test_modp_rref_rejects_overflowable_width():
    with pytest.raises(ValueError):
        ModPRref(2 ** 14, MODP)
    ModPRref(2 ** 14, MODP_SMALL)  # fine with the 16-bit prime


def test_rank_exact_small():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}]
    assert rank_exact(rows, 3) == 2
    assert rank_exact([], 3) == 0
    assert rank_exact([{0: 0}], 3) == 0


def test_modp_rref_matches_exact_on_random_integer_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, w = rng.integers(2, 9), rng.integers(2, 9)
        mat = rng.integers(-4, 5, size=(m, w))
        acc = ModPRref(int(w))
        acc.add(mat.astype(float))
        rows = [
            {j: int(v) for j, v in enumerate(r) if v} for r in mat
        ]
        assert acc.rank == rank_exact(rows, int(w))


def test_modp_rref_projection():
    acc = ModPRref(3)
    acc.add(np.array([[1.0, 1.0, 0.0]]))
    nonpiv, E = acc.projection()
    assert nonpiv == [1, 2]
    # class of e0 is -e1 in quotient coordinates
    v = np.zeros(3)
    v[0] = 1
    reduced = acc.reduce(v[None, :])[0]
    assert reduced[0] == 0


def test_early_stop_respects_threshold():
    acc = ModPRref(4)
    block = np.eye(4)
    acc.add(block, stop_at_rank=2)
    assert acc.rank == 2


def _naive_rref(mat, p, stop_at_rank=None):
    """Row-at-a-time mod-p RREF in insertion order: the reference that
    the blocked kernel of ModPRref.add must reproduce exactly."""
    rows, pivots = [], []
    for v in np.asarray(mat, dtype=np.int64) % p:
        if len(rows) == stop_at_rank:
            break
        for r, c in zip(rows, pivots):
            v = (v - v[c] * r) % p
        nz = np.flatnonzero(v)
        if nz.size == 0:
            continue
        v = v * pow(int(v[nz[0]]), p - 2, p) % p
        rows = [(r - r[nz[0]] * v) % p for r in rows]
        rows.append(v)
        pivots.append(int(nz[0]))
    return rows, pivots


def _rank_deficient(rng, m, w, r):
    return rng.integers(-3, 4, size=(m, r)) @ rng.integers(-3, 4, size=(r, w))


@pytest.mark.parametrize("chunk", [3, 16, linalg._CHUNK])
@pytest.mark.parametrize("p", [MODP, MODP_SMALL])
def test_blocked_rref_matches_naive_and_exact(monkeypatch, p, chunk):
    monkeypatch.setattr(linalg, "_CHUNK", chunk)
    rng = np.random.default_rng(11)
    for m, w, r in ((40, 25, 15), (60, 30, 18), (24, 40, 24)):
        mat = _rank_deficient(rng, m, w, r)
        acc = ModPRref(w, p)
        cuts = sorted(rng.choice(np.arange(1, m), size=3, replace=False))
        for part in np.split(mat, cuts):
            acc.add(part.astype(float))
        exact = [{j: int(v) for j, v in enumerate(row) if v} for row in mat]
        assert acc.rank == rank_exact(exact, w)
        rows = acc.rows()
        assert np.array_equal(rows[:, acc.pivots], np.eye(acc.rank))
        for row, c in zip(rows, acc.pivots):
            assert not np.any(row[:c]) and row[c] == 1
        ref_rows, ref_pivots = _naive_rref(mat, p)
        assert acc.pivots == ref_pivots
        nonpiv, E = acc.projection()
        assert np.array_equal(E, np.array(ref_rows)[:, nonpiv])


@pytest.mark.parametrize("chunk", [4, linalg._CHUNK])
def test_blocked_rref_early_stop_matches_naive(monkeypatch, chunk):
    # a stop inside a chunk must still clear the older rows at the
    # pivots that chunk added
    monkeypatch.setattr(linalg, "_CHUNK", chunk)
    mat = _rank_deficient(np.random.default_rng(3), 30, 20, 14)
    acc = ModPRref(20)
    acc.add(mat[:9].astype(float))
    acc.add(mat[9:].astype(float), stop_at_rank=11)
    ref_rows, ref_pivots = _naive_rref(mat, MODP, stop_at_rank=11)
    assert acc.rank == 11 and acc.pivots == ref_pivots
    assert np.array_equal(acc.rows(), np.array(ref_rows))
