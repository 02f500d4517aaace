import pytest

from minorbit import bwb, cohengine
from minorbit.cohengine import (
    HilbertSeries,
    TiltingFamily,
    TraceMultMatrix,
    hilbert_M,
    hom_y_graded,
    monomials,
    pushforward_graded,
    sym_pair_corank,
    tilting_check,
)
from minorbit.combinat import dim_sym
from minorbit.linalg import rank_exact


def test_trace_matrix_shape_and_entries():
    tm = TraceMultMatrix(3, 1, 1)
    assert tm.ncols == dim_sym(3, 1) * dim_sym(3, 2)
    assert tm.nrows == dim_sym(3, 2) * dim_sym(3, 3)
    cols = tm.columns()
    assert len(cols) == tm.ncols
    # each column has exactly n ones, in distinct rows inside the matrix
    for col in cols:
        assert len(set(col)) == 3
        assert all(0 <= r < tm.nrows for r in col)

    def pair(ev, ef):
        f_basis = monomials(3, sum(ef))
        return monomials(3, sum(ev)).index(ev) * len(f_basis) + f_basis.index(ef)

    # t * (v_1 (x) f_1^2) = sum_i v_i v_1 (x) f_i f_1^2
    assert set(cols[pair((1, 0, 0), (2, 0, 0))]) == {
        pair((2, 0, 0), (3, 0, 0)),
        pair((1, 1, 0), (2, 1, 0)),
        pair((1, 0, 1), (2, 0, 1)),
    }


def test_trace_matrix_injectivity():
    # the explicit matrix is the reference for the closed form: on every
    # cell its exact corank is sym_pair_corank, and the triangularity
    # certificate of full column rank verifies (a < 0 covers p > q)
    for n in range(2, 6):
        for k in range(-1, 4):
            for a in range(-n + 1, n):
                tm = TraceMultMatrix(n, k, a)
                rows: dict[int, dict[int, int]] = {}
                for j, col in enumerate(tm.columns()):
                    for r in col:
                        rows.setdefault(r, {})[j] = 1
                rank = rank_exact(list(rows.values()), tm.ncols)
                assert sym_pair_corank(n, k + 1, k + a + 1) == tm.nrows - rank, (n, k, a)
                assert tm.full_column_rank_certificate(), (n, k, a)


def test_hom_y_examples():
    assert hom_y_graded(0, 0, 2)[1] == 3
    for n in (2, 3, 4):
        assert hom_y_graded(0, 0, n)[0] == 1
    assert hom_y_graded(0, 1, 3)[1] == 15


def test_hom_y_range_check():
    with pytest.raises(ValueError):
        hom_y_graded(0, -2, 2)
    with pytest.raises(ValueError):
        hilbert_M(3, 3)


def test_hom_y_twist_invariance():
    for n in (2, 3):
        for a in (-1, 0, 2):
            for b in range(a - n + 1, a + n):
                assert hom_y_graded(a, b, n) == hom_y_graded(0, b - a, n)


def test_hilbert_examples():
    assert [hilbert_M(0, 2)[k] for k in range(5)] == [1, 3, 5, 7, 9]
    for n in (2, 3, 4):
        assert hilbert_M(0, n)[0] == 1
    assert hilbert_M(1, 2)[0] == 2


def test_hilbert_flop_symmetry():
    for n in range(2, 5):
        for a in range(-(n - 1), n):
            assert hilbert_M(a, n) == hilbert_M(-a, n)


def test_hilbert_weakly_increasing():
    for n in range(2, 5):
        for a in range(0, n):
            dims = hilbert_M(a, n)
            assert all(dims[k] <= dims[k + 1] for k in range(6))


def test_hilbert_series_shift():
    g = HilbertSeries(2, (1, 2, 3))
    assert [g.shifted_down(1)[k] for k in range(3)] == [2, 3, 4]


def test_hilbert_series_refuses_a_non_polynomial_list():
    # one of the 2n-1 values changed by 1 breaks the (2n-2)-th
    # difference, wherever it sits
    for n in (2, 3, 4, 5):
        values = [hilbert_M(1, n)[k] for k in range(2 * n - 1)]
        assert HilbertSeries(n, tuple(values)) == hilbert_M(1, n)
        for k in range(2 * n - 1):
            broken = values[:k] + [values[k] + 1] + values[k + 1:]
            with pytest.raises(ValueError, match=f"not a polynomial of degree <= {2 * n - 3}"):
                HilbertSeries(n, tuple(broken))
        with pytest.raises(ValueError, match=f"values at degrees 0..{2 * n - 2}, got {2 * n - 2}"):
            HilbertSeries(n, tuple(values[:-1]))


def test_hilbert_series_reads_every_degree_in_integers():
    # C(k+2, 2), the Hilbert function of a polynomial ring in three
    # variables, far past the kept values; a float would lose the last
    # digits
    g = HilbertSeries(3, (1, 3, 6, 10, 15))
    assert g.values == (1, 3, 6, 10)
    for k in (-5, -1, 0, 4, 40, 10 ** 20):
        assert g[k] == (dim_sym(3, k) if k >= 0 else 0), k


def test_pushforward_matches_corank_for_lines():
    # O(-a) pushed forward on the mirror side reproduces hilbert_M(a)
    # up to the generation-degree shift max(a, 0)
    for n in (2, 3):
        for a in range(-(n - 1), n):
            fibered = pushforward_graded(bwb.line_bundle(n, -a))
            shift = max(a, 0)
            direct = hilbert_M(a, n)
            for m in range(6 + 1):
                expect = direct[m - shift] if m - shift >= 0 else 0
                assert fibered[m] == expect, (n, a, m)


def test_pushforward_rejects_bad_bundles():
    with pytest.raises(ValueError):
        pushforward_graded(bwb.line_bundle(3, -3))


def test_pushforward_checks_vanishing_up_to_the_dominance_bound(monkeypatch):
    # O(-9) on P^1 becomes dominant at twist 9; a higher cohomology group
    # at twist 8, past the 2n-1 = 3 twists the series' values read, is
    # still refused; the fake judges E(t), as `pushforward_graded` reads
    # each twist through `cohomology(expr, t)`
    def stray_h1_at_twist_8(expr, t=0):
        (w,) = expr.twist(t).terms
        return {1: 1} if w.first == -1 else {0: 1}

    monkeypatch.setattr(bwb, "cohomology", stray_h1_at_twist_8)
    with pytest.raises(ValueError, match="higher cohomology {1: 1} at twist 8"):
        pushforward_graded(bwb.line_bundle(2, -9))


def test_monomials_basis():
    ms = monomials(3, 2)
    assert len(ms) == dim_sym(3, 2)
    assert ms[0] == (2, 0, 0) and ms[-1] == (0, 0, 2)


def test_sym_pair_corank_values():
    # n=2: corank(p,q) = (p+1)(q+1) - p q = p + q + 1
    for p in range(4):
        for q in range(4):
            assert sym_pair_corank(2, p, q) == p + q + 1


def test_sym_pair_corank_weyl_oracle():
    # independent oracle: the quotient of Sym^p V (x) Sym^q V* by the
    # trace is the irreducible with highest weight (q, 0, ..., 0, -p),
    # so the corank must equal its Weyl dimension
    from minorbit.combinat import weyl_dim

    for n in range(2, 6):
        for p in range(7):
            for q in range(7):
                expected = weyl_dim(n, (q,) + (0,) * (n - 2) + (-p,))
                assert sym_pair_corank(n, p, q) == expected, (n, p, q)


def test_tilting_examples():
    assert tilting_check(TiltingFamily("Tk", 4, 0)).passed
    assert tilting_check(TiltingFamily("TPrime", 4)).passed
    assert tilting_check(TiltingFamily("Sk", 4, 1)).passed
    assert tilting_check(TiltingFamily("SkDual", 4, 1)).passed


def test_tilting_reports_bound():
    rep = tilting_check(TiltingFamily("Tk", 3, 0))
    assert rep.stabilization_bound >= 0
    assert rep.pairs_checked == 9
    d = rep.as_dict()
    assert d["pass"] is True and "stabilization_bound" in d


def test_tilting_k_independence():
    # the pair twist-differences of the window family do not depend on k
    for k in (-2, 0, 3):
        assert tilting_check(TiltingFamily("Tk", 3, k)).passed


def _reference_tilting(fam):
    """tilting_check without the memo: every pair bundle is built and
    scanned afresh, in the same order."""
    summands = cohengine.family_summands(fam)
    pair_exprs = []
    k_min = 0
    for si in summands:
        for sj in summands:
            e = si.dual().tensor(sj)
            pair_exprs.append(e)
            for w in e.terms:
                k_min = max(k_min, w.rest[0] - w.first)
    bound = 2 * max(k_min, 0)
    witness = None
    for idx, e in enumerate(pair_exprs):
        for m in range(bound + 1):
            table = bwb.cohomology(e.twist(m))
            for deg, v in table.items():
                if deg > 0 and v != 0:
                    witness = (idx // len(summands), idx % len(summands), deg, m)
                    break
            if witness:
                break
        if witness:
            break
    return witness is None, witness, bound, len(pair_exprs)


def _verdict(rep):
    return rep.passed, rep.witness, rep.stabilization_bound, rep.pairs_checked


def _tilting_grid():
    for n in range(2, 7):
        yield from (TiltingFamily("Tk", n, k) for k in (-2, 0, 3))
        yield TiltingFamily("TkPlus", n, 0)
        yield TiltingFamily("TPrime", n)
        for k in range(n):
            yield TiltingFamily("Sk", n, k)
            yield TiltingFamily("SkDual", n, k)


def test_memoized_tilting_check_matches_the_reference():
    for fam in _tilting_grid():
        assert _verdict(tilting_check(fam)) == _reference_tilting(fam), fam


def test_memoized_tilting_check_finds_the_reference_witness(monkeypatch):
    # widened by O(-n + k), Tk and Sk stop being tilting; the memo, warm
    # from the true families, must report the reference's witness
    for fam in _tilting_grid():
        tilting_check(fam)
    real = cohengine.family_summands

    def widened(fam):
        extra = bwb.line_bundle(fam.n, -fam.n + fam.k)
        return real(fam) + [extra]

    monkeypatch.setattr(cohengine, "family_summands", widened)
    for fam in _tilting_grid():
        if fam.name in ("Tk", "Sk", "SkDual"):
            rep = tilting_check(fam)
            assert _verdict(rep) == _reference_tilting(fam), fam
            assert fam.name != "Tk" or not rep.passed
