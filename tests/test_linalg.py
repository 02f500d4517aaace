import numpy as np

import pytest

from minorbit import linalg
from minorbit.linalg import MODP, ModPRref, quotient_maps, rank_exact, rref_stack

# 2**16 - 15: a second prime for the naive-reference tests, which patch it
# in as linalg.MODP to show the kernel does not rely on MODP's value
OTHER_P = 65521


@pytest.mark.parametrize("p", [MODP, OTHER_P])
def test_modp_is_prime(p):
    assert p > 2 and p % 2
    d = 3
    while d * d <= p:
        assert p % d, d
        d += 2


def test_modp_rref_rejects_overflowable_width():
    # width * (MODP - 1)**2 < 2**53 holds up to width 2**13 exactly
    ModPRref(2 ** 13)
    with pytest.raises(ValueError):
        ModPRref(2 ** 13 + 1)


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
    T = acc.projection()
    # the nonpivot columns 1, 2 are the quotient coordinates
    assert T.shape == (2, 3) and np.array_equal(T[:, 1:], np.eye(2))
    # class of e0 is -e1 in quotient coordinates
    v = np.zeros(3)
    v[0] = 1
    assert np.array_equal(T @ v % MODP, [MODP - 1, 0])


def test_early_stop_respects_threshold():
    acc = ModPRref(4)
    block = np.eye(4)
    acc.add(block, stop_at_rank=2)
    assert acc.rank == 2


def _naive_rref(mat, p, stop_at_rank=None):
    """Row-at-a-time mod-p RREF in insertion order, on integer rows: the
    reference that ModPRref.add must reproduce exactly."""
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


def _batches(mat, chunk):
    """`mat` split into consecutive blocks of at most `chunk` rows."""
    return np.split(mat, range(chunk, len(mat), chunk))


@pytest.mark.parametrize("chunk", [3, 16, 512])
@pytest.mark.parametrize("p", [MODP, OTHER_P])
def test_blocked_rref_matches_naive_and_exact(monkeypatch, p, chunk):
    # rows arrive in add calls at random cuts, each further split into
    # blocks of at most `chunk` rows; 512 exceeds every matrix height
    monkeypatch.setattr(linalg, "MODP", p)
    rng = np.random.default_rng(11)
    for m, w, r in ((40, 25, 15), (60, 30, 18), (24, 40, 24)):
        mat = _rank_deficient(rng, m, w, r)
        acc = ModPRref(w)
        cuts = sorted(rng.choice(np.arange(1, m), size=3, replace=False))
        for part in np.split(mat, cuts):
            for block in _batches(part, chunk):
                acc.add(block.astype(float))
        exact = [{j: int(v) for j, v in enumerate(row) if v} for row in mat]
        assert acc.rank == rank_exact(exact, w)
        rows = acc.rows()
        assert np.array_equal(rows[:, acc.pivots], np.eye(acc.rank))
        for row, c in zip(rows, acc.pivots):
            assert not np.any(row[:c]) and row[c] == 1
        ref_rows, ref_pivots = _naive_rref(mat, p)
        assert acc.pivots == ref_pivots
        # T is the identity on the nonpivot columns and minus the rows
        # there on the pivot columns
        nonpiv = [c for c in range(w) if c not in ref_pivots]
        T = acc.projection()
        assert np.array_equal(T[:, nonpiv], np.eye(w - acc.rank))
        assert np.array_equal(T[:, ref_pivots], -np.array(ref_rows)[:, nonpiv].T % p)


@pytest.mark.parametrize("chunk", [4, 512])
def test_blocked_rref_early_stop_matches_naive(chunk):
    # a stop in a later add call must leave the rows of the earlier ones
    # cleared at every pivot added before the stop; rows go in blocks of
    # at most `chunk`, so chunk=4 spreads the first nine rows over three
    # calls and makes further calls after the stop, which must add nothing
    mat = _rank_deficient(np.random.default_rng(3), 30, 20, 14)
    acc = ModPRref(20)
    for block in _batches(mat[:9], chunk):
        acc.add(block.astype(float))
    for block in _batches(mat[9:], chunk):
        acc.add(block.astype(float), stop_at_rank=11)
    ref_rows, ref_pivots = _naive_rref(mat, MODP, stop_at_rank=11)
    assert acc.rank == 11 and acc.pivots == ref_pivots
    assert np.array_equal(acc.rows(), np.array(ref_rows))


def test_add_re_eliminates_its_rows_unchanged():
    # each add re-runs rref_stack on the rows so far and the new ones: a
    # stop below the rank reached keeps every row and pivot, and several
    # add calls give what one rref_stack of all the rows gives
    rng = np.random.default_rng(13)
    mat = _rank_deficient(rng, 30, 16, 12)
    acc = ModPRref(16)
    for block in _batches(mat, 7):
        acc.add(block.astype(float))
    assert acc.rank == 12
    rows, pivots = acc.rows().copy(), acc.pivots
    for stop in (0, 5, 11):
        acc.add(_rank_deficient(rng, 4, 16, 4).astype(float), stop_at_rank=stop)
        assert acc.rank == 12 and acc.pivots == pivots
        assert np.array_equal(acc.rows(), rows)
    ref = rref_stack(mat[None].astype(float), [16])
    assert int(ref[2][0]) == acc.rank and ref[1][0, :12].tolist() == acc.pivots
    assert np.array_equal(ref[0][0, :12], acc.rows())
    assert np.array_equal(quotient_maps(*ref)[0][0], acc.projection())


def test_add_reduces_its_rows_mod_p():
    # entries far above MODP must not reach the float64 dot products
    rng = np.random.default_rng(7)
    mat = _rank_deficient(rng, 12, 10, 6)
    shifted = mat + MODP * rng.integers(-2 ** 30, 2 ** 30, size=mat.shape)
    acc, ref = ModPRref(10), ModPRref(10)
    acc.add(shifted.astype(float))
    ref.add(mat.astype(float))
    assert acc.pivots == ref.pivots
    assert np.array_equal(acc.rows(), ref.rows())


@pytest.mark.parametrize("p", [MODP, OTHER_P])
def test_rref_stack_matches_naive_on_every_matrix(monkeypatch, p):
    # one width, heights from 0 to the stack's height (shorter matrices
    # zero-padded), and per-matrix stops: none, below the rank, at it, 0;
    # the stacked entries are shifted by multiples of p far above it
    monkeypatch.setattr(linalg, "MODP", p)
    rng = np.random.default_rng(17)
    w, H = 12, 20
    mats, stops = [], []
    for i in range(16):
        m = int(rng.integers(0, H + 1)) if i else H
        mat = _rank_deficient(rng, m, w, int(rng.integers(0, min(m, w) + 1)))
        rank = len(_naive_rref(mat, p)[1])
        stops.append([w, rank, max(rank - 2, 0), 0][i % 4])
        mats.append(mat)
    stack = np.zeros((len(mats), H, w))
    for layer, mat in zip(stack, mats):
        layer[: len(mat)] = mat + p * rng.integers(-2 ** 20, 2 ** 20, size=mat.shape)
    rows, pivots, ranks = rref_stack(stack, stops)
    maps, free = quotient_maps(rows, pivots, ranks)
    assert any(r < len(_naive_rref(m, p)[1]) for m, r in zip(mats, ranks))
    for i, (mat, stop) in enumerate(zip(mats, stops)):
        ref_rows, ref_pivots = _naive_rref(mat, p, stop_at_rank=stop)
        r = int(ranks[i])
        assert r == len(ref_pivots) and pivots[i, :r].tolist() == ref_pivots
        assert np.array_equal(rows[i, :r], np.array(ref_rows).reshape(r, w))
        assert not rows[i, r:].any()
        # the projection onto the quotient: v -> v[nonpiv] - v[piv] @ E,
        # E the naive rows at the nonpivots; a single-matrix ModPRref
        # gives the same T
        nonpiv = [c for c in range(w) if c not in ref_pivots]
        E = np.array(ref_rows).reshape(r, w)[:, nonpiv]
        acc = ModPRref(w)
        acc.add(mat.astype(float), stop_at_rank=stop)
        assert acc.rank == r and acc.pivots == ref_pivots
        v = rng.integers(0, p, size=w).astype(float)
        assert maps[i].shape == (w - r, w) and free[i].tolist() == nonpiv
        assert np.array_equal(maps[i] @ v % p, (v[nonpiv] - v[ref_pivots] @ E) % p)
        assert np.array_equal(acc.projection(), maps[i])


def test_quotient_maps_at_true_widths_match_unpadded():
    # matrices of mixed widths and heights zero-padded into one stack, as
    # the quiver engine stacks a level's blocks: each T, built at its true
    # width, and each nonpivot array must equal those of the matrix
    # eliminated on its own, unpadded, entry for entry; rank 0 (a zero
    # matrix and a stop at 0), full column rank (d = 0), width 1 and two
    # matrices of one (rank, width) are covered
    rng = np.random.default_rng(37)
    shapes = [(3, 1, 0), (2, 1, 1), (5, 6, 0), (6, 4, 4), (12, 9, 5), (4, 7, 3),
              (7, 3, 3), (9, 9, 5), (5, 4, 4), (0, 5, 0)]
    mats = [_rank_deficient(rng, h, w, r) for h, w, r in shapes]
    widths = [w for _, w, _ in shapes]
    stops = [w - (i == 4) if i != 7 else 0 for i, w in enumerate(widths)]
    stack = np.zeros((len(mats), max(h for h, _, _ in shapes), max(widths)))
    for layer, mat in zip(stack, mats):
        layer[: mat.shape[0], : mat.shape[1]] = mat
    rows, pivots, ranks = rref_stack(stack, stops)
    maps, free = quotient_maps(rows, pivots, ranks, widths)
    ds = []
    for i, (mat, w, stop) in enumerate(zip(mats, widths, stops)):
        ref = rref_stack(mat[None].astype(float), [stop])
        (ref_T,), (ref_free,) = quotient_maps(*ref)
        r = int(ranks[i])
        assert r == int(ref[2][0]) and pivots[i, :r].tolist() == ref[1][0, :r].tolist()
        assert np.array_equal(rows[i, :r, :w], ref[0][0, :r]) and not rows[i, :, w:].any()
        assert maps[i].shape == ref_T.shape == (w - r, w), i
        assert np.array_equal(maps[i], ref_T) and np.array_equal(free[i], ref_free), i
        # no T is a view into a buffer wider than itself
        assert maps[i].base.shape[1] == w, i
        ds.append(w - r)
    assert 0 in ds and ranks.min() == 0 and 1 in widths
    assert len(set(zip(ranks.tolist(), widths))) < len(mats)


@pytest.mark.parametrize("p", [MODP, OTHER_P])
def test_centered_is_exact_below_2_53(p):
    # near +-2**52 and the top of the range |x| < 2**53 - p, exact
    # multiples of p, and the residues next to p/2, where rint of x/p may
    # round either way
    xs = [0, 1, p, (p - 1) // 2, (p + 1) // 2]
    for base in (2 ** 52, 2 ** 53 - 2 * p):
        q = base // p
        for k in (q - 1, q):
            xs += [k * p, k * p + 1, k * p + (p - 1) // 2, k * p + (p + 1) // 2, k * p + p - 1]
    xs += [-x for x in xs]
    assert max(xs) == (2 ** 53 - 2 * p) // p * p + p - 1 < 2 ** 53 - p
    r = linalg._centered(np.array(xs, dtype=np.float64), p)
    for x, y in zip(xs, r.tolist()):
        assert y == int(y) and (x - int(y)) % p == 0, (x, y)
        assert abs(y) <= (p + 1) // 2, (x, y)


@pytest.mark.parametrize("p", [MODP, OTHER_P])
def test_rref_stack_rows_are_canonical_at_huge_entries(monkeypatch, p):
    # every entry is its residue shifted by a multiple of p to within 2p
    # of +-2**52; multiples of p and residues at p/2 included
    monkeypatch.setattr(linalg, "MODP", p)
    rng = np.random.default_rng(23)
    mats = [_rank_deficient(rng, 24, 18, 12) % p for _ in range(6)]
    mats[1][:, 0] = 0
    mats[2][:, 1] = (p - 1) // 2
    mats[3][:, 2] = (p + 1) // 2
    stack = np.zeros((len(mats), 24, 18))
    for layer, mat in zip(stack, mats):
        sign = rng.choice([-1, 1], size=mat.shape)
        layer[:] = mat + p * (sign * (2 ** 52 // p) - rng.integers(0, 2, size=mat.shape))
    assert np.abs(stack).max() < 2 ** 53 - p and np.abs(stack).min() > 2 ** 51
    rows, pivots, ranks = rref_stack(stack, [18] * len(mats))
    assert rows.min() >= 0 and rows.max() < p
    for i, mat in enumerate(mats):
        ref_rows, ref_pivots = _naive_rref(mat, p)
        r = int(ranks[i])
        assert pivots[i, :r].tolist() == ref_pivots
        assert np.array_equal(rows[i, :r], np.array(ref_rows))


@pytest.mark.parametrize("p", [MODP, OTHER_P])
def test_rref_stack_matches_naive_at_the_widest_block(monkeypatch, p):
    # 294 columns, the widest canonical block the engine eliminates (n=7,
    # l=6), with full-range entries mod p
    monkeypatch.setattr(linalg, "MODP", p)
    rng = np.random.default_rng(29)
    w = 294
    mats = [rng.integers(0, p, size=(h, r)) @ rng.integers(0, 3, size=(r, w)) % p
            for h, r in ((120, 100), (100, 100), (40, 30))]
    stack = np.zeros((3, 120, w))
    for layer, mat in zip(stack, mats):
        layer[: len(mat)] = mat
    stops = [w, 90, w]
    rows, pivots, ranks = rref_stack(stack, stops)
    assert rows.min() >= 0 and rows.max() < p
    for i, (mat, stop) in enumerate(zip(mats, stops)):
        ref_rows, ref_pivots = _naive_rref(mat, p, stop_at_rank=stop)
        r = int(ranks[i])
        assert r == len(ref_pivots) and pivots[i, :r].tolist() == ref_pivots
        assert np.array_equal(rows[i, :r], np.array(ref_rows))
