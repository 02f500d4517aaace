import pytest

from minorbit import bwb, mutation
from minorbit.cohengine import HilbertSeries, hilbert_M, sym_pair_corank
from minorbit.combinat import dim_sym, dim_wedge
from minorbit.mutation import (
    L,
    M,
    MutationState,
    WedgeT,
    _fiber_dims,
    hilbert_of_label,
    initial_state,
    normalize_label,
    orbit_check,
    splice_exact,
    splices,
)


def test_label_normalization():
    n = 4
    assert normalize_label(L(n - 1), n) == M(n - 1)
    assert normalize_label(L(0), n) == M(-1)
    assert normalize_label(WedgeT(0), n) == M(-1)
    assert normalize_label(WedgeT(n - 1), n) == M(n - 1)
    assert normalize_label(L(2), n) == L(2)


def test_hilbert_of_label_end_identifications():
    for n in (2, 3, 4):
        assert hilbert_of_label(L(n - 1), n) == hilbert_M(n - 1, n)
        assert hilbert_of_label(L(0), n) == hilbert_M(-1, n)
        assert hilbert_of_label(WedgeT(0), n) == hilbert_M(-1, n)
        assert hilbert_of_label(WedgeT(n - 1), n) == hilbert_M(n - 1, n)


def _pushforward_piece(expr, m):
    """Degree m of the pushforward's Hilbert data, straight from its
    formula: dim Sym^m h^0(E(m)) - dim Sym^{m-1} h^0(E(m-1))."""
    n = expr.n

    def h0(t):
        table = bwb.cohomology(expr.twist(t))
        assert all(d == 0 for d in table), (t, table)
        return table.get(0, 0)

    return dim_sym(n, m) * h0(m) - (dim_sym(n, m - 1) * h0(m - 1) if m else 0)


def test_every_label_reads_every_degree():
    # the series keeps 2n-2 values; past them each degree up to 40
    # equals the value computed directly: the corank for M-labels, the
    # pushforward formula in degree k + (generation degree) for splice
    # labels
    for n in range(2, 8):
        for a in range(-(n - 1), n):
            series = hilbert_of_label(M(a), n)
            for k in range(41):
                assert series[k] == sym_pair_corank(n, k + max(0, -a), k + max(0, a)), (n, a, k)
        for v in range(n):
            for label, expr, off in (
                (L(v), bwb.omega(n, v, 1), v),
                (WedgeT(v), bwb.wedge_tangent(n, v, -1), 1 if v == 0 else 0),
            ):
                series = hilbert_of_label(label, n)
                for k in range(41):
                    assert series[k] == _pushforward_piece(expr, k + off), (n, label, k)


def test_splice_exactness():
    for n in range(2, 6):
        for side in ("minus", "plus"):
            for sp in splices(n, side):
                assert splice_exact(sp, n), (n, side, sp)


def test_splice_multiplicities():
    for n in (3, 4):
        for sp in splices(n, "minus"):
            assert sp.mult == dim_wedge(n, sp.sub[1])


def test_splices_refuse_an_unknown_side():
    # the two chains are the only sides: no other string names one
    for side in ("bogus", "Plus", ""):
        with pytest.raises(ValueError, match="expected minus or plus"):
            splices(3, side)


def test_recursive_hilbert_agrees_from_both_ends():
    # the splices force the splice-module Hilbert data recursively from
    # either end; the direct computation must agree
    for n in (2, 3, 4):
        cur = _fiber_dims(L(n - 1), n, "minus").values
        for sp in splices(n, "minus"):
            mid = _fiber_dims(sp.mid, n, "minus").values
            forced = tuple(sp.mult * m - c for m, c in zip(mid, cur))
            assert forced == _fiber_dims(sp.quot, n, "minus").values
            cur = forced
        cur = _fiber_dims(L(0), n, "minus").values
        for sp in reversed(splices(n, "minus")):
            mid = _fiber_dims(sp.mid, n, "minus").values
            forced = tuple(sp.mult * m - c for m, c in zip(mid, cur))
            assert forced == _fiber_dims(sp.sub, n, "minus").values
            cur = forced


def test_orbit_step_sequence():
    n = 4
    steps = orbit_check(n).steps
    assert steps[0].state == initial_state(n)
    assert steps[0].state.moving == L(n - 1)
    # down the descending chain to L(0), then up the ascending one
    assert [r.state.moving for r in steps[1:]] == (
        [L(k) for k in range(n - 2, -1, -1)] + [WedgeT(j) for j in range(1, n)]
    )
    assert steps[1].approximation == (dim_wedge(n, n - 1), M(n - 2))
    assert steps[n].approximation == (dim_wedge(n, 1), M(0))
    assert all(r.splice_ok for r in steps[1:])


def test_state_invariant_summands():
    n = 4
    state = initial_state(n)
    assert state.summands == tuple(M(a) for a in range(n - 1)) + (M(n - 1),)
    mid = MutationState(n, L(2))
    assert mid.summands == tuple(M(a) for a in range(n - 1)) + (L(2),)


def test_orbit_closes_exactly():
    for n in (3, 4, 5):
        rep = orbit_check(n)
        assert rep.passed
        # the benchmark's call orbit_check(n, 6) gets the same report
        assert orbit_check(n, 6) == rep
        # the first closure, so the orbit does not close earlier
        assert rep.closed_after == 2 * n - 2
        assert rep.ends_agree
        assert len(rep.steps) == 2 * n - 1  # initial state plus one per step
        d = rep.as_dict()
        assert d["pass"] is True and len(d["steps"]) == 2 * n - 1
        assert d["end_identifications"] is True
        assert "endpoint_ranks" not in d and "cap" not in d


def test_orbit_fails_when_an_end_identification_fails(monkeypatch):
    # the renaming L(n-1) -> M(n-1) is only sound if both routes give the
    # same Hilbert data; corrupt the corank route's data for M(n-1)
    real = mutation.hilbert_M

    def corrupted(a, n):
        dims = real(a, n)
        if a != n - 1:
            return dims
        # one more in every degree
        return HilbertSeries(n, tuple(dims[k] + 1 for k in range(2 * n - 1)))

    monkeypatch.setattr(mutation, "hilbert_M", corrupted)
    for n in (3, 4):
        rep = orbit_check(n)
        assert not rep.passed
        assert not rep.ends_agree
        # closure compares labels, so it is unaffected by the Hilbert data
        assert rep.closed_after == 2 * n - 2


def test_orbit_requires_n_at_least_3():
    with pytest.raises(ValueError):
        orbit_check(2)
