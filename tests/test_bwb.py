import random
from itertools import combinations_with_replacement

import pytest

from minorbit.bwb import (
    VANISHES,
    BundleExpr,
    LeviWeight,
    _bwb_single,
    blv_classify,
    bott_closed_form,
    cohomology,
    euler_characteristic,
    hom_bundle,
    line_bundle,
    omega,
    schur_of_omega1,
    serre_dual,
    wedge_tangent,
)
from minorbit.combinat import lr_product, weyl_dim


def binom_poly(t, n):
    # C(t+n-1, n-1) as a polynomial value, valid for negative t
    num = 1
    for j in range(1, n):
        num *= t + j
    den = 1
    for j in range(1, n):
        den *= j
    return num // den


def test_constructor_examples():
    assert omega(3, 0, 2) == line_bundle(3, 2)
    for n in (2, 3, 4):
        assert wedge_tangent(n, 0, 0) == line_bundle(n, 0)
        # top cotangent power is O(-n)
        assert omega(n, n - 1, 0) == line_bundle(n, -n)


def test_equal_bundles_hash_equal():
    # a memo keys on the bundle, so one bundle reached by two routes is
    # one key, however its terms were built
    n = 4
    routes = [
        (line_bundle(n, -n), omega(n, n - 1, 0)),
        (wedge_tangent(n, 0, 0), hom_bundle(1, 1, 0, n)),
        (schur_of_omega1(n, (1,), 1).twist(-2), omega(n, 1, 0)),
        (omega(n, 1, 2) + omega(n, 2, 0) - omega(n, 2, 0), omega(n, 1, 2)),
    ]
    for a, b in routes:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert len({a for a, _ in routes}) == len(routes)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        omega(3, 3, 0)
    with pytest.raises(ValueError):
        schur_of_omega1(3, (1, 1, 1), 0)
    with pytest.raises(ValueError):
        LeviWeight(3, 0, (0, 1))


def test_wedge_tangent_duality_chain():
    # Lambda^p(T(-1)) = Omega^{n-p-1}(n-p) as normalized expressions
    for n in range(2, 6):
        for p in range(n):
            assert wedge_tangent(n, p, -p) == omega(n, n - p - 1, n - p)


def test_cohomology_examples():
    assert cohomology(line_bundle(3, 2)) == {0: 6}
    assert cohomology(omega(3, 1, 0)) == {1: 1}
    assert cohomology(line_bundle(4, -4)) == {3: 1}
    assert cohomology(omega(3, 1, 3)) == {0: 8}


def test_sections_of_o1_have_dimension_n():
    for n in range(2, 7):
        assert cohomology(line_bundle(n, 1)) == {0: n}


def dominance_shift(n, first, rest):
    # Bott's theorem as stated: add rho, sort strictly decreasing, count
    # the inversions and take the Weyl dimension of sorted - rho
    rho = range(n - 1, -1, -1)
    v = [x + r for x, r in zip((first,) + rest, rho)]
    if len(set(v)) < n:
        return None
    inversions = sum(v[i] < v[j] for i in range(n) for j in range(i + 1, n))
    s = sorted(v, reverse=True)
    return inversions, weyl_dim(n, [x - r for x, r in zip(s, rho)])


def test_product_form_matches_the_dominance_shift():
    singular = 0
    for n in range(2, 8):
        for rest in combinations_with_replacement(range(4, -1, -1), n - 1):
            for first in range(-3 * n, 3 * n + 1):
                expected = dominance_shift(n, first, rest)
                assert _bwb_single(n, first, rest) == expected, (n, first, rest)
                singular += expected is None
    assert singular > 0


def test_cohomology_reads_twists_without_building_them():
    for n in range(2, 6):
        exprs = [hom_bundle(a, b, 0, n) for a in range(1, n + 1) for b in range(1, n + 1)]
        exprs += [omega(n, p, 0) for p in range(n)] + [BundleExpr(n)]
        exprs.append(omega(n, 1, 0) - line_bundle(n, -1))
        for e in exprs:
            for t in range(-2 * n, 2 * n + 1):
                assert cohomology(e, t) == cohomology(e.twist(t)), (e, t)


def test_bott_examples():
    assert bott_closed_form(4, 2, 0) == {2: 1}
    assert bott_closed_form(3, 1, 3) == {0: 8}
    assert bott_closed_form(3, 1, -3) == {2: 8}


def test_oracle_equivalence():
    for n in range(2, 7):
        for p in range(n):
            for t in range(-2 * n, 2 * n + 1):
                assert cohomology(omega(n, p, t)) == bott_closed_form(n, p, t), (
                    n, p, t,
                )


def test_serre_duality_on_constructed_bundles():
    exprs = []
    for n in range(2, 6):
        for p in range(n):
            exprs.append(omega(n, p, 2))
            exprs.append(wedge_tangent(n, p, -1))
        exprs.append(schur_of_omega1(n, (2, 1)[: n - 1], 1))
        for a in range(1, n + 1):
            exprs.append(hom_bundle(a, 1 + (a % n), 1, n))
    for e in exprs:
        n = e.n
        mirror = {n - 1 - q: v for q, v in cohomology(e).items()}
        assert mirror == cohomology(serre_dual(e))


def test_euler_characteristic_polynomial():
    for n in range(2, 6):
        for t in range(-2 * n, 2 * n + 1):
            assert euler_characteristic(line_bundle(n, t)) == binom_poly(t, n)


def test_euler_characteristic_additive():
    e1, e2 = omega(3, 1, 2), omega(3, 2, -1)
    assert euler_characteristic(e1 + e2) == euler_characteristic(
        e1
    ) + euler_characteristic(e2)


def test_hom_bundle_examples():
    for n in (2, 3, 4):
        assert hom_bundle(1, 1, 0, n) == line_bundle(n, 0)
        for a in range(1, n + 1):
            table = cohomology(hom_bundle(a, a, 0, n))
            assert table.get(0, 0) >= 1  # identity endomorphism
    # Hom(O(1), Omega(2)) is Omega(1), whose cohomology vanishes entirely;
    # the classification agrees
    e = hom_bundle(2, 1, 0, 3)
    assert e == omega(3, 1, 1)
    assert cohomology(e) == {}
    assert blv_classify(2, 1, 0, 0, 3) == VANISHES


def test_blv_examples():
    # c <= 0 admits no higher cohomology
    for n in (3, 4):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(-3, 1):
                    for d in range(1, n):
                        table = cohomology(hom_bundle(a, b, c, n))
                        assert table.get(d, 0) == 0
    # identity case admits
    for n in (2, 3, 4, 5):
        for a in range(1, n + 1):
            assert blv_classify(a, a, 0, 0, n) == "case2"


def test_blv_soundness_small():
    for n in range(2, 5):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(-2 * n, 2 * n + 1):
                    table = cohomology(hom_bundle(a, b, c, n))
                    for d, v in table.items():
                        assert v > 0
                        assert blv_classify(a, b, c, d, n) != VANISHES


def test_blv_boundary_observation():
    # the degree-c case attains its upper boundary c + b = n already for
    # small n; the observed table below is asserted, not assumed
    attained = set()
    for n in (3, 4):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(0, 2 * n + 1):
                    table = cohomology(hom_bundle(a, b, c, n))
                    if table.get(c, 0) and c + b == n:
                        attained.add((n, a, b, c))
    assert {(3, 3, 2, 1), (3, 2, 2, 1), (4, 4, 1, 3), (4, 2, 3, 1)} <= attained
    # every attained boundary point satisfies the degree-c window
    for n, a, b, c in attained:
        assert max(a, b) <= c + b <= min(n, a + b - 1)


def test_virtual_expressions_allow_negative_tables():
    e = omega(3, 1, 0).scale(-1)
    assert cohomology(e) == {1: -1}


def test_cohomology_degrees_stay_in_range():
    for n in range(2, 6):
        for p in range(n):
            for t in range(-2 * n, 2 * n + 1):
                for d in cohomology(omega(n, p, t)):
                    assert 0 <= d <= n - 1


def _random_weight(rng, n, box=3):
    # any weakly decreasing rest, negative entries and a nonzero last
    # entry included, so the constructor has to normalize
    rest = tuple(sorted((rng.randint(-box, box) for _ in range(n - 1)), reverse=True))
    return LeviWeight(n, rng.randint(-4, 4), rest)


def test_twist_equals_the_rebuilt_expression():
    # e.twist(m) builds its terms directly; the constructor, which
    # normalizes and merges, must give the same expression and table
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 5)
        e = BundleExpr(n, {_random_weight(rng, n): rng.randint(-3, 3) for _ in range(4)})
        if rng.random() < 0.3:
            e = e.tensor(omega(n, rng.randint(0, n - 1), rng.randint(-2, 2))).dual()
        for m in (-2 * n, -1, 0, 1, rng.randint(2, 2 * n)):
            twisted = e.twist(m)
            rebuilt = BundleExpr(n, {w.twist(m): c for w, c in e.terms.items()})
            assert twisted == rebuilt and twisted.terms == rebuilt.terms
            assert cohomology(twisted) == cohomology(rebuilt)
            for w in twisted.terms:
                # a valid, normalized weight, equal to and hashed as the
                # weight the validating constructor makes
                v = LeviWeight(n, w.first, w.rest)
                assert v == w and hash(v) == hash(w) and v.normalized() == w
    assert omega(3, 1, 0).twist(2) == omega(3, 1, 2)
    assert BundleExpr(3).twist(1) == BundleExpr(3)


OPERATIONS = {
    "of": lambda rng, e, f: BundleExpr.of(_random_weight(rng, e.n)),
    "dual": lambda rng, e, f: e.dual(),
    "scale": lambda rng, e, f: e.scale(rng.randint(-3, 3)),
    "tensor": lambda rng, e, f: e.tensor(f),
    "twist": lambda rng, e, f: e.twist(rng.randint(-2 * e.n, 2 * e.n)),
    "add": lambda rng, e, f: e + f,
    "sub": lambda rng, e, f: e - f,
}


@pytest.mark.parametrize("op", OPERATIONS)
def test_operations_build_what_the_constructor_builds(op):
    # every operation builds its terms normalized, distinct and nonzero
    # and skips the constructor's pass, so the constructor, which
    # normalizes and merges, must give back the same terms and hash
    rng = random.Random(39)
    for _ in range(200):
        n = rng.randint(2, 5)
        e = BundleExpr(n, {_random_weight(rng, n, box=2): rng.randint(-3, 3) for _ in range(4)})
        # f is -e or e a fifth of the time, so sums cancel; else its
        # rests come from a small box, so tensors stay small
        f = e.scale(rng.choice((1, -1))) if rng.random() < 0.2 else BundleExpr(
            n, {_random_weight(rng, n, box=1): rng.randint(-3, 3) for _ in range(2)})
        out = OPERATIONS[op](rng, e, f)
        rebuilt = BundleExpr(n, dict(out.terms))
        assert out.n == n and out.terms == rebuilt.terms and hash(out) == hash(rebuilt)
        assert all(LeviWeight(*w) == w for w in out.terms)


def per_weight_tensor_weights(w1, w2):
    # the per-weight form: LR of the rests with first1 + first2 in each
    # weight before it is normalized
    n = w1.n
    out = []
    for nu, c in lr_product(w1.rest, w2.rest, max_rows=n - 1).items():
        rest = tuple(nu) + (0,) * (n - 1 - len(nu))
        out.append((LeviWeight(n, w1.first + w2.first, rest).normalized(), c))
    return out


def test_tensor_matches_the_per_weight_form():
    # LR is read once per rest pair and twisted by first1 + first2 on read
    for n in range(2, 7):
        rests = [r + (0,) for r in combinations_with_replacement(range(2, -1, -1), n - 2)]
        for r1 in rests:
            for r2 in rests:
                # every first1 and every first2 in [-2n, 2n], paired by a
                # permutation of that range
                for f1 in range(-2 * n, 2 * n + 1):
                    f2 = 2 * f1 % (4 * n + 1) - 2 * n
                    w1, w2 = LeviWeight(n, f1, r1), LeviWeight(n, f2, r2)
                    product = BundleExpr.of(w1).tensor(BundleExpr.of(w2))
                    assert product.terms == dict(per_weight_tensor_weights(w1, w2))


def test_hom_bundle_equals_the_rebuilt_product():
    # criterion 3's range; the twist by O(-c) goes into the first factor,
    # so each c's product is rebuilt without `twist`
    for n in range(2, 6):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(-2 * n, 2 * n + 1):
                    rebuilt = omega(n, n - b, n - b - c).tensor(omega(n, a - 1, a))
                    e = hom_bundle(a, b, c, n)
                    assert e == rebuilt, (a, b, c, n)
                    assert cohomology(e) == cohomology(rebuilt)


def test_tensor_refuses_two_projective_spaces():
    with pytest.raises(ValueError, match="mixed projective spaces"):
        omega(3, 1, 1) + omega(4, 2, 1)
    with pytest.raises(ValueError, match="mixed projective spaces"):
        omega(3, 1, 1).tensor(omega(4, 2, 1))


@pytest.mark.parametrize("op", ["add", "sub"])
@pytest.mark.parametrize("left, right", [
    (lambda: omega(4, 2, 1), lambda: BundleExpr(3)),
    (lambda: BundleExpr(3), lambda: omega(4, 2, 1)),
    (lambda: BundleExpr(4), lambda: BundleExpr(3)),
], ids=["empty-right", "empty-left", "both-empty"])
def test_sums_refuse_two_projective_spaces(op, left, right):
    # an empty expression carries its space too, on either side
    a, b = left(), right()
    with pytest.raises(ValueError, match="mixed projective spaces"):
        getattr(a, f"__{op}__")(b)
    with pytest.raises(ValueError, match="mixed projective spaces"):
        getattr(b, f"__{op}__")(a)
    # on one space the empty expression is the zero of both operations
    assert a + BundleExpr(a.n) == a == a - BundleExpr(a.n)


def test_levi_weight_contract():
    for bad in ((1, 0, ()), (3, 0, (0,)), (3, 0, (0, 0, 0)), (3, 0, (0, 1))):
        with pytest.raises(ValueError):
            LeviWeight(*bad)
    w = LeviWeight(3, 0, (0, 0))
    with pytest.raises(AttributeError):
        w.first = 1
    assert repr(w) == "LeviWeight(n=3, first=0, rest=(0, 0))"
    w = LeviWeight(4, 2, (3, 1, -1))
    assert hash(w) == hash((w.n, w.first, w.rest))
    # the unvalidated and the derived weights are valid LeviWeights
    for got, expected in (
        (w.twist(-5), LeviWeight(4, -3, (3, 1, -1))),
        (w.normalized(), LeviWeight(4, 3, (4, 2, 0))),
        (w.dual(), LeviWeight(4, -3, (0, -2, -4)).normalized()),
    ):
        assert type(got) is LeviWeight and got == expected
        assert LeviWeight(*got) == got
