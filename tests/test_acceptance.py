"""Acceptance suite: every criterion runs at zero tolerance and prints
one PASS/FAIL line."""

import ast
from functools import lru_cache
from math import comb

import pytest

from minorbit import acceptance, bwb, cohengine, kfunctor, mutation, quiveralg
from minorbit.relations import RelationGen


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[f"criterion_{i}" for i in range(1, 11)])
def test_criterion(criterion):
    res = criterion()
    print(f"{'PASS' if res.passed else 'FAIL'} criterion {res.number}: {res.title}")
    assert res.passed, res.detail


def test_criterion_1_fails_on_an_uncertified_cell(monkeypatch):
    # every cell the engine cannot certify is a mismatch of the report,
    # and any mismatch fails the criterion
    def with_mismatch(n, max_len):
        mismatches = ((0, 1, 3, 6, 5),) if n == 3 else ()
        return quiveralg.CompareReport(n, max_len, (), mismatches)

    monkeypatch.setattr(quiveralg, "compare_with_nccr", with_mismatch)
    res = acceptance.criterion_1()
    assert not res.passed
    assert res.detail == "failures: [(3, ((0, 1, 3, 6, 5),))]"


def test_criterion_1_fails_instead_of_raising(understate_target):
    # an uncertified cell is a failed check, not an error that stops
    # the acceptance run before criteria 2-10
    understate_target((3, 1, 1, 6))
    res = acceptance.criterion_1()
    assert not res.passed
    assert res.detail == "failures: [(3, ((1, 1, 6, 64, 63),))]"


def test_criterion_10_fails_on_an_uncertified_cell(understate_target):
    # the understated cell keeps its dimension l+1, so only its
    # certification can fail the anchor
    understate_target((2, 0, 0, 4))
    res = acceptance.criterion_10()
    assert not res.passed
    assert res.detail == "failures: [(0, 0, 4, 5, 4)]"


def test_criterion_1_rejects_a_generator_of_mixed_weight(monkeypatch, fresh_engines):
    # relabel one term of the first ff commutator at n = 3: f_1 f_2 - f_3 f_1
    # is no longer torus-weight homogeneous, so the engine refuses to
    # split its cells into weight blocks and criterion 1 raises
    real = quiveralg.relation_generators

    def mislabelled(n):
        gens = list(real(n))
        if n == 3:
            g = gens[0]
            assert g.name == "ff" and g.terms[1][1] == (("f", 2), ("f", 1))
            terms = (g.terms[0], (-1, (("f", 3), ("f", 1))))
            gens[0] = RelationGen(g.source, g.target, terms, g.name)
        return tuple(gens)

    monkeypatch.setattr(quiveralg, "relation_generators", mislabelled)
    with pytest.raises(ValueError,
                       match=r"generator ff \(0 -> 2\) is not torus-weight homogeneous"):
        acceptance.criterion_1()


def test_criterion_2_checks_the_closed_form(monkeypatch):
    # the closed form is an oracle independent of the dominance shift,
    # so moving it up one degree must show wherever Omega^p(t) has
    # cohomology
    real = bwb.bott_closed_form

    def shifted(n, p, t):
        return {d + 1: v for d, v in real(n, p, t).items()}

    monkeypatch.setattr(bwb, "bott_closed_form", shifted)
    res = acceptance.criterion_2()
    assert not res.passed
    assert res.detail == (
        "failures: [(2, 0, -4), (2, 0, -3), (2, 0, -2), (2, 0, 0), (2, 0, 1)]")


@pytest.mark.parametrize("corrupt, first_failures", [
    (lambda n, r, rank, den: (tuple(x + 1 for x in r), rank, den),
     "(2, 0, -4), (2, 0, -3), (2, 0, -2), (2, 0, -1), (2, 0, 0)"),
    # (n-2)! = (n-1)! at n = 2, so the first failures are at n = 3
    (lambda n, r, rank, den: (r, rank, den // (n - 1)),
     "(3, 0, -6), (3, 0, -5), (3, 0, -4), (3, 0, -3), (3, 0, 0)"),
], ids=["rho-shifted", "divides-by-(n-2)!"])
def test_criterion_2_checks_the_product_form(monkeypatch, corrupt, first_failures):
    # the closed form is the one independent check of `bwb` on the
    # Omega^p(t) family, so a wrong per-(n, rest) record must fail its
    # closed-form loop; the per-weight cache must neither answer for the
    # corrupt record nor keep what it gave
    real = bwb._rest_record
    monkeypatch.setattr(bwb, "_rest_record", lambda n, rest: corrupt(n, *real(n, rest)))
    bwb._bwb_single.cache_clear()
    try:
        res = acceptance.criterion_2()
    finally:
        bwb._bwb_single.cache_clear()
    assert not res.passed
    assert res.detail == f"failures: [{first_failures}]"


def test_criterion_2_checks_serre_duality_on_omega_and_hom_bundles(monkeypatch):
    # one Serre check runs over the omega bundles, then the Hom bundles:
    # a dual off by one twist fails it on the omega bundles first, and a
    # dual wrong only on multi-term bundles (Hom bundles; every Omega^p(t)
    # is one term) fails it on the Hom bundles alone
    real = bwb.serre_dual
    monkeypatch.setattr(bwb, "serre_dual", lambda e: real(e).twist(-1))
    res = acceptance.criterion_2()
    assert not res.passed
    assert res.detail == (
        "failures: [(2, 0, -2, 'serre'), (2, 0, -1, 'serre'), (2, 0, 0, 'serre'), "
        "(2, 0, 1, 'serre'), (2, 0, 2, 'serre')]")
    monkeypatch.setattr(bwb, "serre_dual",
                        lambda e: real(e).twist(-1) if len(e.terms) > 1 else real(e))
    res = acceptance.criterion_2()
    assert not res.passed
    assert res.detail == (
        "failures: [(3, 2, 2, 'serre-hom'), (4, 2, 2, 'serre-hom'), (4, 2, 3, 'serre-hom'), "
        "(4, 3, 2, 'serre-hom'), (4, 3, 3, 'serre-hom')]")


def test_criterion_3_checks_the_classification(monkeypatch):
    # a classification that calls every group zero is contradicted by
    # the first nonzero cohomology group
    monkeypatch.setattr(bwb, "blv_classify", lambda a, b, c, d, n: bwb.VANISHES)
    res = acceptance.criterion_3()
    assert not res.passed
    assert res.detail.startswith("failures: [(2, 1, 1, -4, 0), ")


def _clear_bundle_memos():
    # every memo that holds a bundle, an LR product or a table read off one
    for module in (bwb, cohengine, kfunctor, mutation):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _last_term_dropped(product):
    return dict(list(product.items())[:-1])


def _last_multiplicity_raised(product):
    *_, nu = product
    return {**product, nu: product[nu] + 1}


@pytest.mark.parametrize("sabotage", [_last_term_dropped, _last_multiplicity_raised],
                         ids=["term-dropped", "multiplicity-raised"])
def test_criterion_3_checks_the_hom_bundle_ranks(monkeypatch, sabotage):
    # a wrong LR product of two or more terms changes a Hom bundle's rank;
    # the products with two or more terms are those of 2 <= a, b <= n-1,
    # 14 bundles in all
    real = bwb.lr_product

    def wrong(lam, mu, max_rows=None):
        product = real(lam, mu, max_rows=max_rows)
        return sabotage(product) if len(product) > 1 else product

    monkeypatch.setattr(bwb, "lr_product", wrong)
    _clear_bundle_memos()
    try:
        res = acceptance.criterion_3()
    finally:
        _clear_bundle_memos()
    assert not res.passed
    assert res.detail == (
        "failures: [(3, 2, 2, 'rank'), (4, 2, 2, 'rank'), (4, 2, 3, 'rank'), "
        "(4, 3, 2, 'rank'), (4, 3, 3, 'rank')]")


def _tensor_twisted_by(first):
    # BundleExpr.tensor, with each rest pair's LR weights twisted by
    # first(w1, w2) in place of w1.first + w2.first
    def tensor(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                for w, m in bwb._tensor_weights(self.n, w1.rest, w2.rest):
                    w = w.twist(first(w1, w2))
                    out[w] = out.get(w, 0) + c1 * c2 * m
        return bwb.BundleExpr(self.n, out)
    return tensor


@pytest.mark.parametrize("first, first_failures", [
    (lambda w1, w2: w1.first + w2.first, None),
    (lambda w1, w2: w1.first + w2.first + 1, "(2, 1, 2, 2, 0), (2, 2, 1, 0, 0), (2, 2, 2, 1, 0)"),
    (lambda w1, w2: w1.first + w2.first - 1, "(2, 1, 1, 1, 1), (2, 1, 2, 2, 1), (2, 2, 1, 0, 1)"),
    (lambda w1, w2: 0, "(2, 1, 2, 2, 1), (2, 2, 1, 0, 0), (3, 1, 2, 1, 1)"),
], ids=["first-sum", "first-plus-1", "first-minus-1", "first-missing"])
def test_criterion_3_checks_the_tensor_twist(monkeypatch, first, first_failures):
    # the tensor twists its rest pair's LR weights by first1 + first2; a
    # twist off by one, or none, moves cohomology out of the classified
    # degrees, while the true sum keeps criterion 3 green
    monkeypatch.setattr(bwb.BundleExpr, "tensor", _tensor_twisted_by(first))
    _clear_bundle_memos()
    try:
        res = acceptance.criterion_3()
    finally:
        _clear_bundle_memos()
    if first_failures is None:
        assert res.passed, res.detail
    else:
        assert not res.passed
        assert res.detail.startswith(f"failures: [{first_failures}, ")


def test_criterion_5_cross_checks_unequal_twists(monkeypatch):
    # a profile between different twists that gains one odd-degree line
    # keeps every self-profile but breaks the K-class pairing
    real = kfunctor._profile_jp_jp

    def corrupted(b, c, n):
        prof = real(b, c, n)
        return prof if b == c else {**prof, 1: prof.get(1, 0) + 1}

    monkeypatch.setattr(kfunctor, "_profile_jp_jp", corrupted)
    res = acceptance.criterion_5()
    assert not res.passed
    assert "(2, -1, -2, 'chi')" in res.detail


def test_criterion_6_reads_the_recorded_pushforward(monkeypatch):
    # the O_E(kE) correction is the recorded class twisted into place, so
    # a wrong recorded class must show in the image table
    real = kfunctor.oe_pushforward_class

    def negated(k, n):
        fact = real(k, n)
        return None if fact is None else fact.scale(-1)

    monkeypatch.setattr(kfunctor, "oe_pushforward_class", negated)
    res = acceptance.criterion_6()
    assert not res.passed
    assert res.detail.startswith("failures: [(2, -1,")


def test_criterion_6_checks_the_window_rule(monkeypatch):
    # the flop matrix is built from the window coordinates of [O(-j)], so
    # Lagrange coordinates that lose their sign, sit on the shifted
    # nodes 1..n, or are doubled must break [O(a)] -> [O(-a)]
    real = kfunctor._reduce_coeffs

    def lost_sign(a, n):
        return tuple((-1) ** (n - 1 - j) * c for j, c in enumerate(real(a, n)))

    def shifted_nodes(a, n):
        return real(a - 1, n)

    def doubled(a, n):
        return tuple(2 * c for c in real(a, n))

    for broken in (lost_sign, shifted_nodes, doubled):
        monkeypatch.setattr(kfunctor, "_reduce_coeffs", lru_cache(maxsize=None)(broken))
        kfunctor.kclass_jp.cache_clear()
        try:
            res = acceptance.criterion_6()
        finally:
            kfunctor.kclass_jp.cache_clear()
        assert not res.passed, broken
        assert "'window rule')" in res.detail


def test_criterion_6_reads_the_flop_matrix_in_the_window_rule_alone(monkeypatch):
    # the image table checks only its computed correction, so a flop
    # matrix that is the identity fails the window rule and nothing else
    monkeypatch.setattr(kfunctor, "kn_matrix",
                        lambda n: [[int(i == j) for j in range(n)] for i in range(n)])
    res = acceptance.criterion_6()
    assert not res.passed
    failures = ast.literal_eval(res.detail.removeprefix("failures: "))
    assert failures and all(f[-1] == "window rule" for f in failures)


def test_zero_window_coordinates_fail_criterion_5(monkeypatch):
    # with every class zero the flop matrix is zero and criterion 6
    # compares zero with zero, so the K-class pairing of criterion 5 is
    # what catches coordinates that are not unit vectors on the nodes
    monkeypatch.setattr(kfunctor, "_reduce_coeffs",
                        lru_cache(maxsize=None)(lambda a, n: (0,) * n))
    kfunctor.kclass_jp.cache_clear()
    try:
        res = acceptance.criterion_5()
    finally:
        kfunctor.kclass_jp.cache_clear()
    assert not res.passed
    assert res.detail.startswith("failures: [(2, -2, -2, 'chi'), ")


def test_criterion_7_checks_the_ledger_profiles(monkeypatch):
    # Ext(j_*O_P(-1), O_Y(b)) one degree low moves the line against
    # O(-1); cohomology one twist high brings a line into the last
    # vanishing step
    real_jp_oy, real_p_coh = kfunctor._profile_jp_oy, kfunctor._p_coh

    def low_degree(c, b, n):
        return {k - 1: v for k, v in real_jp_oy(c, b, n).items()}

    def high_twist(n, t):
        return real_p_coh(n, t + 1)

    for name, broken, detail in (
        ("_profile_jp_oy", low_degree, "failures: [(3, 'against-O(-1)'), "
         "(4, 'against-O(-1)'), (5, 'against-O(-1)')]"),
        ("_p_coh", high_twist, "failures: [(3, 'vanishing-b1'), "
         "(4, 'vanishing-b2'), (5, 'vanishing-b3')]"),
    ):
        with monkeypatch.context() as m:
            m.setattr(kfunctor, name, broken)
            res = acceptance.criterion_7()
        assert not res.passed, name
        assert res.detail == detail, name


def test_criterion_8_checks_every_degree(monkeypatch):
    # at n=5 each splice series is a polynomial of degree 7, so degrees
    # 0..6 do not decide it; the fiber data of L(2) (the sub of one
    # splice and the quotient of the next) off by 1 in degree 7 must fail
    # the criterion.  Added as C(k, 7), the data stay a polynomial of
    # degree 7 and differ from the true data in degree 7 alone among the
    # degrees 0..7 that decide it; added to degree 7 alone, they are no
    # polynomial, and the series refuses them
    real = mutation.pushforward_graded
    target = bwb.omega(5, 2, 1)

    def off_in_degree_7(bump):
        def pushforward(expr):
            series = real(expr)
            if expr != target:
                return series
            return cohengine.HilbertSeries(5, tuple(series[k] + bump(k) for k in range(9)))
        return pushforward

    def criterion_8_with(bump):
        # _fiber_dims memoizes the data, so each run starts and ends
        # with the memo empty
        mutation._fiber_dims.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(mutation, "pushforward_graded", off_in_degree_7(bump))
                return acceptance.criterion_8()
        finally:
            mutation._fiber_dims.cache_clear()

    res = criterion_8_with(lambda k: comb(k, 7))
    assert not res.passed
    assert res.detail == "failures: [(5, 8, True)]"
    with pytest.raises(ValueError, match="not a polynomial of degree <= 7"):
        criterion_8_with(lambda k: k == 7)


def test_criterion_4_checks_the_width_bound(monkeypatch):
    # no window pair of Tk, TPrime or Sk is O(-n), so reading O(-n) as
    # acyclic leaves every tilting check green and fails only the
    # sharpness step; the fake judges E(t), so the tilting scans, which
    # walk twist lines through `cohomology(e, t)`, see it too
    real = bwb.cohomology

    def acyclic_minus_n(e, t=0):
        if e.twist(t) == bwb.line_bundle(e.n, -e.n):
            return {}
        return real(e, t)

    monkeypatch.setattr(bwb, "cohomology", acyclic_minus_n)
    # the scan memo must neither answer for the patched cohomology nor
    # keep its scans
    cohengine._first_higher.cache_clear()
    try:
        res = acceptance.criterion_4()
    finally:
        cohengine._first_higher.cache_clear()
    assert not res.passed
    assert res.detail == (
        "failures: [(2, 'width n+1'), (3, 'width n+1'), "
        "(4, 'width n+1'), (5, 'width n+1')]")


def test_criterion_4_checks_the_tilting_families(monkeypatch):
    # widened by O(-n), the window Tk gains the pair (O(0), O(-n)), whose
    # bundle O(-n) has H^{n-1} = 1; the memo, warm from the true
    # families, must not hide it
    assert acceptance.criterion_4().passed
    real = cohengine.family_summands

    def widened(fam):
        if fam.name != "Tk":
            return real(fam)
        return real(fam) + [bwb.line_bundle(fam.n, -fam.n + fam.k)]

    monkeypatch.setattr(cohengine, "family_summands", widened)
    res = acceptance.criterion_4()
    assert not res.passed
    assert res.detail == (
        "failures: [('Tk', 2, (1, 2, 1, 0)), ('Tk', 3, (2, 3, 2, 0)), "
        "('Tk', 4, (3, 4, 3, 0)), ('Tk', 5, (4, 5, 4, 0))]")
