import random
from math import comb

import pytest

from minorbit.kfunctor import (
    AmbiguousConnectingMap,
    Ch,
    F,
    JP,
    OY,
    _cone_profile,
    chi_jp_class,
    chi_jp_oy,
    ext_profile,
    euler_chi,
    kclass_jp,
    kclass_jpdual,
    kn0_image_table,
    kn_matrix,
    matmul,
    oe_pushforward_class,
    ptwist_ledger_check,
    reduce_line,
    twist_matrix,
    zero_class,
)


def test_reduce_line_examples():
    for n in (2, 3, 4):
        for a in range(n):
            vec = [0] * n
            vec[a] = 1
            assert reduce_line(a, n).coords == tuple(vec)
    assert reduce_line(2, 2).coords == (-1, 2)
    assert reduce_line(-1, 3).coords == (3, -3, 1)


def test_koszul_vector_dies():
    # the Koszul relation at every a and the unit vectors on the window
    # pin every coordinate of every [O(a)]
    for n in range(2, 9):
        for a in range(n):
            assert reduce_line(a, n).coords == tuple(int(j == a) for j in range(n))
        for a in range(-3 * n, 3 * n + 1):
            total = zero_class(n)
            for i in range(n + 1):
                total = total + reduce_line(a - i, n).scale((-1) ** i * comb(n, i))
            assert total.coords == (0,) * n, (n, a)


def test_kclass_jp_n2():
    assert kclass_jp(0, 2).coords == (2, -2)


def test_kclass_jp_matches_koszul_resolution():
    # sum_p (-1)^p [Lambda^p T (x) O(b)], with the wedge powers from the
    # Euler sequence recursion [Lambda^p T] = C(n,p) [O(p)] - [Lambda^(p-1) T]
    for n in range(2, 9):
        wedge = [{0: 1}]
        for p in range(1, n):
            prev = wedge[-1]
            wedge.append({t: -c for t, c in prev.items()})
            wedge[-1][p] = wedge[-1].get(p, 0) + comb(n, p)
        for b in range(-3 * n, 3 * n + 1):
            total = zero_class(n)
            for p, lines in enumerate(wedge):
                for t, c in lines.items():
                    total = total + reduce_line(t + b, n).scale((-1) ** p * c)
            assert kclass_jp(b, n) == total, (n, b)


def test_kclass_jp_euler_pairing():
    for n in range(2, 7):
        for b in (-1, 0, 1, 3):
            assert chi_jp_class(b, kclass_jp(b, n)) == n


def test_kn_matrix_window_rule():
    # [O(a)] -> [O(-a)] for every a, so every window rule holds at once
    for n in (2, 3, 4, 5):
        M = kn_matrix(n)
        for a in range(-2 * n, 2 * n + 1):
            src = reduce_line(a, n)
            img = tuple(
                sum(M[i][j] * src.coords[j] for j in range(n)) for i in range(n)
            )
            assert img == reduce_line(-a, n).coords, (n, a)


def test_kn_inverse_pairs():
    # the flop and the flop back are mutually inverse on the K-lattice
    for n in range(2, 6):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert matmul(kn_matrix(n), kn_matrix(n)) == identity


def test_twist_intertwining_square():
    for n in (2, 3, 4):
        assert matmul(twist_matrix(n, -1), kn_matrix(n)) == matmul(
            kn_matrix(n), twist_matrix(n, 1)
        )


def test_ext_profile_ledger_anchor_values():
    for n in (3, 4, 5):
        for b in range(0, n - 1):
            assert ext_profile(JP(-1), OY(b), n) == {}
        assert ext_profile(JP(-1), OY(-1), n) == {2 * n - 2: 1}
        assert ext_profile(JP(-1), Ch, n) == {0: 1, 2 * n - 1: 1}
        assert ext_profile(JP(-1), F, n) == {0: 1}


def test_ext_profile_self():
    for n in range(2, 7):
        for b in (-2, 0, 1):
            assert ext_profile(JP(b), JP(b), n) == {2 * q: 1 for q in range(n)}


def test_ext_profile_serre_symmetry():
    # Ext^i(JP(c), OY(b)) = Ext^{2n-2-i}(OY(b), JP(c)) on the 2n-2
    # dimensional total space with trivial canonical bundle
    for n in (3, 4):
        for c in (-2, -1, 1):
            for b in (-1, 0, 2):
                left = ext_profile(JP(c), OY(b), n)
                right = ext_profile(OY(b), JP(c), n)
                assert left == {2 * n - 2 - k: v for k, v in right.items()}


def test_ext_profile_jp_jp_serre_symmetry():
    # duality on the 2n-2 dimensional total space pairs the profiles of
    # the two orders of a zero-section pair
    for n in (3, 4):
        for b in (-2, 0, 1):
            for c in (-1, 0, 3):
                left = ext_profile(JP(b), JP(c), n)
                right = ext_profile(JP(c), JP(b), n)
                assert left == {2 * n - 2 - k: v for k, v in right.items()}


def test_ext_profile_euler_vs_k_lattice():
    for n in (3, 4, 5):
        for b in (-2, 0, 1):
            for c in (-1, 0, 2):
                prof = ext_profile(JP(b), JP(c), n)
                assert euler_chi(prof) == chi_jp_class(b, kclass_jp(c, n))


def test_euler_bilinearity_on_koszul_vector():
    for n in (3, 4):
        for b in (-1, 0, 2):
            for a0 in (-2, 0, 3):
                s = sum(
                    (-1) ** i * comb(n, i) * chi_jp_oy(b, a0 - i, n)
                    for i in range(n + 1)
                )
                assert s == 0


def test_unsupported_pairs_raise():
    with pytest.raises(ValueError):
        ext_profile(OY(0), OY(1), 3)
    with pytest.raises(ValueError):
        ext_profile(JP(0), Ch, 3)


def test_kclass_side_mismatch_raises():
    with pytest.raises(ValueError):
        reduce_line(0, 3) + kclass_jpdual(0, 3)
    with pytest.raises(ValueError):
        reduce_line(0, 3) + reduce_line(0, 4)


def test_cone_profile_ambiguity_guard():
    with pytest.raises(AmbiguousConnectingMap):
        _cone_profile({0: 2}, {0: 2})


def _cone_reference(x, y):
    """RHom(A, Cone(X -> Y)) degree by degree: the cokernel of the map in
    degree k plus the kernel of the map in degree k + 1, every map of
    maximal rank; None where a map of two nonzero dims, one above 1, is
    not forced."""
    lo = min([*x, *y], default=0) - 1
    hi = max([*x, *y], default=0) + 1
    rank = {}
    for k in range(lo, hi + 1):
        xk, yk = x.get(k, 0), y.get(k, 0)
        if xk and yk and max(xk, yk) > 1:
            return None
        rank[k] = min(xk, yk)
    cone = {k: y.get(k, 0) - rank[k] + x.get(k + 1, 0) - rank.get(k + 1, 0)
            for k in range(lo, hi)}
    return {k: v for k, v in cone.items() if v}


def test_cone_profile_matches_the_per_degree_reference():
    rng = random.Random(0)
    raised = 0
    for _ in range(3000):
        x, y = ({rng.randint(-3, 4): rng.choice((0, 1, 1, 2, 3))
                 for _ in range(rng.randint(0, 5))} for _ in range(2))
        want = _cone_reference(x, y)
        if want is None:
            raised += 1
            with pytest.raises(AmbiguousConnectingMap):
                _cone_profile(x, y)
        else:
            got = _cone_profile(x, y)
            assert got == want and list(got) == sorted(got), (x, y)
    assert 0 < raised < 3000


def test_oe_pushforward_facts():
    for n in (3, 4, 5):
        for k in range(1, n - 1):
            assert oe_pushforward_class(k, n) is None
        top = oe_pushforward_class(n - 1, n)
        assert top is not None
        assert top.coords == kclass_jpdual(-n, n).scale((-1) ** (n - 2)).coords


def test_kn0_image_table():
    for n in (2, 3, 4, 5):
        rows = kn0_image_table(n)
        assert [r.a for r in rows] == list(range(-n + 1, 1))
        assert all(r.ok for r in rows)


def test_ptwist_ledger():
    for n in (3, 4, 5):
        rep = ptwist_ledger_check(n)
        assert rep.passed, rep.failing_step
        names = [s.name for s in rep.steps]
        assert "against-cone" in names and "twisted-profile" in names
        assert not {"F-class", "F-sequence-class", "twisted-class"} & set(names)
        d = rep.as_dict()
        assert d["pass"] is True
    with pytest.raises(ValueError):
        ptwist_ledger_check(2)
