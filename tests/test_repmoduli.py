import contextlib
import operator
import re
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from itertools import product
from math import lcm, sqrt
from pathlib import Path
from random import Random

import pytest

from minorbit import relations, repmoduli
from minorbit.repmoduli import (
    GF,
    Rep,
    RepTriple,
    YPoint,
    check_relations,
    generated_by,
    is_simple,
    random_triple,
    rep_from_triple,
    reps_isomorphic,
    rescale,
    run_battery,
    to_point,
    triple_from_rep,
)


def q(*xs):
    return tuple(Q(x) for x in xs)


def _draw(n, rng, field=Q):
    """random_triple's integer draw with its entries mapped into `field`."""
    t = random_triple(n, rng)
    return RepTriple(n, tuple(map(field, t.alpha)), tuple(map(field, t.beta)))


def test_triple_validation():
    with pytest.raises(ValueError):
        RepTriple(2, q(0, 0), q(1, 0))
    with pytest.raises(ValueError):
        RepTriple(2, q(1, 0), q(1, 0))  # pairing 1
    RepTriple(2, q(1, 1), q(1, -1))


def test_base_point():
    n = 4
    t = RepTriple(n, q(0, 0, 0, 1), q(1, 0, 0, 0))
    r = rep_from_triple(t)
    assert check_relations(r).passed
    assert is_simple(r)
    pt = to_point(r)
    assert pt.X[n - 1][0] == 1
    assert sum(1 for row in pt.X for x in row if x) == 1


def test_zero_beta_not_simple():
    t = RepTriple(3, q(1, 0, 0), q(0, 0, 0))
    r = rep_from_triple(t)
    assert check_relations(r).passed
    assert not is_simple(r)
    assert generated_by(r, 0)
    pt = to_point(r)
    assert all(x == 0 for row in pt.X for x in row)


def test_n2_explicit_triple():
    t = RepTriple(2, q(1, 1), q(1, -1))
    r = rep_from_triple(t)
    assert check_relations(r).passed
    assert r.f_scalars[0] == (1, 1)
    assert r.v_scalars[0] == (1, -1)


def test_hand_built_violation():
    bad = Rep(2, ((Q(1), Q(0)),), ((Q(1), Q(0)),))
    chk = check_relations(bad)
    assert not chk.passed
    assert chk.relation.startswith("trace")


def _bump(r, layer, k, i):
    """r with one scalar raised by 1: layer "f" or "v", layer index k,
    label index i (0-based)."""
    tables = {"f": [list(x) for x in r.f_scalars], "v": [list(x) for x in r.v_scalars]}
    tables[layer][k][i] += 1
    return Rep(r.n, tuple(map(tuple, tables["f"])), tuple(map(tuple, tables["v"])))


_TRIPLE_REP = rep_from_triple(RepTriple(4, q(1, 2, 0, 1), q(1, 1, 1, -3)))
# all f arrows zero, every v layer the same covector: relations hold
_V_ONLY_REP = Rep(4, (q(0, 0, 0, 0),) * 3, (q(1, 1, 1, -3),) * 3)


@pytest.mark.parametrize(
    "base, layer, k, i, family, vertex",
    [
        (_TRIPLE_REP, "f", 0, 0, "ff", 0),
        (_V_ONLY_REP, "v", 1, 0, "vv", 2),
        (_TRIPLE_REP, "v", 1, 0, "mixed", 1),
        (_TRIPLE_REP, "v", 0, 0, "trace-vf", 0),
    ],
    ids=["ff", "vv", "mixed", "trace-vf"],
)
def test_one_changed_scalar_names_the_broken_family(base, layer, k, i, family, vertex):
    assert check_relations(base).passed
    chk = check_relations(_bump(base, layer, k, i))
    assert (chk.passed, chk.relation, chk.vertex) == (False, family, vertex)


@pytest.fixture
def patch_generators(monkeypatch):
    """Replace the generators repmoduli reads.  The relation table is a
    cache keyed on n, so it is cleared on patching and after the test:
    it must neither answer for the patched generators nor keep the table
    compiled from them."""
    def patch(gens):
        monkeypatch.setattr(repmoduli, "relation_generators", gens)
        repmoduli._relation_table.cache_clear()

    yield patch
    repmoduli._relation_table.cache_clear()


def test_trace_fv_generators_catch_a_changed_scalar(patch_generators):
    # trace-fv sits only at the top vertex n-1; on rank-one reps it is the
    # scalar equation of trace-vf at n-2, which comes first, so it is
    # checked alone against a change in the v layer it reads
    only = tuple(
        g for g in relations.relation_generators(4)
        if g.name == "trace-fv" and g.source == 3
    )
    assert len(only) == 1
    assert check_relations(_TRIPLE_REP).passed
    patch_generators(lambda n: only)
    assert check_relations(_TRIPLE_REP).passed
    chk = check_relations(_bump(_TRIPLE_REP, "v", 2, 0))
    assert (chk.passed, chk.relation, chk.vertex) == (False, "trace-fv", 3)


def _reference_check(r):
    """check_relations as a word walk in the scalars' own arithmetic: the
    oracle for the integer table."""
    f, v = r.f_scalars, r.v_scalars
    for gen in relations.relation_generators(r.n):
        total = 0
        for coeff, steps in gen.terms:
            val, k = coeff, gen.source
            for kind, i in steps:
                if kind == "f":
                    val = val * f[k][i - 1]
                    k += 1
                else:
                    val = val * v[k - 1][i - 1]
                    k -= 1
            total = total + val
        if total != 0:
            return (False, gen.name, gen.source)
    return (True, None, None)


def _verdict(r):
    chk = check_relations(r)
    return (chk.passed, chk.relation, chk.vertex)


def _change_one(r, rng, delta):
    """r with one random scalar moved by delta."""
    tables = {"f": [list(x) for x in r.f_scalars], "v": [list(x) for x in r.v_scalars]}
    layer = tables[rng.choice("fv")]
    k, i = rng.randrange(r.n - 1), rng.randrange(r.n)
    layer[k][i] = layer[k][i] + delta
    return Rep(r.n, tuple(map(tuple, tables["f"])), tuple(map(tuple, tables["v"])))


@pytest.mark.parametrize("field", ["fraction", "gf10007"])
def test_integer_table_agrees_with_the_word_walk(field):
    rng = Random(11)
    gf = lambda x: GF(10007, x)
    for n in range(2, 7):
        for _ in range(15):
            if field == "fraction":
                t = _draw(n, rng)
                c = (1,) + tuple(Q(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n - 1))
                delta = Q(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 7))
            else:
                t = _draw(n, rng, gf)
                c = (1,) + tuple(gf(rng.randint(1, 10006)) for _ in range(n - 1))
                delta = gf(rng.randint(1, 10006))
            r = rescale(rep_from_triple(t), c)
            assert _verdict(r) == _reference_check(r) == (True, None, None)
            bad = _change_one(r, rng, delta)
            assert _verdict(bad) == _reference_check(bad)


def test_a_change_below_one_over_the_common_denominator_fails():
    r = rescale(_TRIPLE_REP, (1, Q(5, 3), 2, Q(7, 2)))
    scalars = [x for layer in r.f_scalars + r.v_scalars for x in layer]
    assert len({x.denominator for x in scalars}) > 2
    d = lcm(*(x.denominator for x in scalars))
    assert check_relations(r).passed
    tables = [list(x) for x in r.v_scalars]
    tables[1][0] += Q(1, 11 * d)
    bad = Rep(r.n, r.f_scalars, tuple(map(tuple, tables)))
    expected = _reference_check(bad)
    assert not expected[0]
    assert _verdict(bad) == expected


def test_gf_sums_are_tested_modulo_p():
    # <beta, alpha> = 1*3 + 1*4 = 7: trace-vf(0) sums to the integer 7
    gf = lambda x: GF(7, x)
    r = rep_from_triple(RepTriple(2, (gf(1), gf(1)), (gf(3), gf(4))))
    gen = next(g for g in relations.relation_generators(2) if g.name == "trace-vf")
    f, v = r.f_scalars[0], r.v_scalars[0]
    assert sum(f[s[0][1] - 1].v * v[s[1][1] - 1].v for _, s in gen.terms) == 7
    assert check_relations(r).passed
    bad = _bump(r, "v", 0, 0)
    assert _verdict(bad) == _reference_check(bad) == (False, "trace-vf", 0)


@pytest.mark.parametrize(
    "steps, match",
    [
        ((("f", 1),), "two-arrow"),
        ((("f", 1), ("v", 1), ("f", 2)), "two-arrow"),
        ((("v", 1), ("v", 2)), "leaves the quiver"),
        ((("f", 1), ("f", 5)), "leaves the quiver"),
    ],
    ids=["one-arrow", "three-arrow", "below-vertex-0", "no-label-5"],
)
def test_table_rejects_a_term_that_is_not_a_two_arrow_word(patch_generators, steps, match):
    odd = (relations.RelationGen(1, 1, ((1, steps),), "odd"),)
    patch_generators(lambda n: odd)
    with pytest.raises(ValueError, match=match):
        check_relations(_TRIPLE_REP)


def test_import_loads_no_numpy():
    # the battery imports only repmoduli; numpy, or dataclasses (which
    # loads inspect), would raise its set-up time and peak memory.  -S
    # keeps site-packages' start-up hooks out of the count
    src = str(Path(repmoduli.__file__).resolve().parents[1])
    code = ("import sys, minorbit.repmoduli; "
            "print(sorted({'numpy', 'dataclasses'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_generated_by_closure():
    # v arrows all zero: nothing below the top is reachable from W_{n-1}
    r = rep_from_triple(RepTriple(3, q(1, 2, 0), q(0, 0, 0)))
    assert generated_by(r, 0)
    assert not generated_by(r, 2)


def _searched_generated_by(r, vertex):
    """The reference: W_vertex generates r when a search through arrows
    acting by nonzero scalars reaches every vertex."""
    n = r.n
    reached = {vertex}
    frontier = [vertex]
    while frontier:
        k = frontier.pop()
        if k + 1 < n and k + 1 not in reached and any(r.f_scalars[k]):
            reached.add(k + 1)
            frontier.append(k + 1)
        if k - 1 >= 0 and k - 1 not in reached and any(r.v_scalars[k - 1]):
            reached.add(k - 1)
            frontier.append(k - 1)
    return len(reached) == n


def test_generated_by_agrees_with_the_search_on_every_layer_pattern():
    cases = 0
    for n in range(2, 7):
        for pattern in product((False, True), repeat=2 * (n - 1)):
            # a nonzero layer has one nonzero scalar, at a varying label
            layers = tuple(tuple(Q(i + 1) if on and i == j % n else Q(0) for i in range(n))
                           for j, on in enumerate(pattern))
            r = Rep(n, layers[:n - 1], layers[n - 1:])
            for vertex in range(n):
                assert generated_by(r, vertex) == _searched_generated_by(r, vertex), (
                    pattern, vertex)
                cases += 1
            assert is_simple(r) == _searched_generated_by(r, n - 1)
    assert cases == 7736


@pytest.mark.parametrize("vertex", [-1, 3, 4])
def test_generated_by_refuses_a_vertex_outside_the_quiver(vertex):
    # vertex -1 would read the last f layer through a negative index
    r = rep_from_triple(RepTriple(3, q(1, 0, 0), q(0, 1, 0)))
    with pytest.raises(ValueError, match=rf"vertex {vertex} out of range \[0, 2\]"):
        generated_by(r, vertex)


def test_round_trip_exact():
    rng = Random(7)
    for n in range(2, 6):
        for _ in range(50):
            t = _draw(n, rng)
            r = rep_from_triple(t)
            t2 = triple_from_rep(r)
            assert t2.alpha == t.alpha and t2.beta == t.beta


def test_rescaling_invariance():
    r = rep_from_triple(RepTriple(3, q(1, 2, 1), q(2, -1, 0)))
    r2 = rescale(r, (1, Q(5, 3), 2))
    assert r2 != r
    assert check_relations(r2).passed
    assert is_simple(r) == is_simple(r2)
    assert to_point(r).X == to_point(r2).X
    assert to_point(r).line == to_point(r2).line


def test_isomorphism_detects_gauge():
    t = RepTriple(3, q(1, 2, 1), q(2, -1, 0))
    r = rep_from_triple(t)
    # gauge scalars c = (1, 2, 6): f layers scale by 2 and 3, v layers by
    # the reciprocals 1/2 and 1/3
    scaled = rescale(r, (1, 2, 6))
    assert scaled.f_scalars[1] == tuple(3 * x for x in r.f_scalars[1])
    assert scaled.v_scalars[1] == tuple(x / 3 for x in r.v_scalars[1])
    assert check_relations(scaled).passed
    assert reps_isomorphic(scaled, r)
    assert not reps_isomorphic(rep_from_triple(RepTriple(3, q(1, 0, 0), q(0, 1, 0))), r)


def test_x_square_zero_and_rank():
    rng = Random(3)
    for _ in range(100):
        t = _draw(4, rng)
        pt = to_point(rep_from_triple(t))
        n = 4
        for i in range(n):
            for j in range(n):
                assert sum(pt.X[i][k] * pt.X[k][j] for k in range(n)) == 0
        rank_one = any(any(row) for row in pt.X)
        assert rank_one == any(t.beta)


def test_dual_convention_transpose():
    # swapping the roles of alpha and beta (the mirror moduli) transposes X
    rng = Random(9)
    for _ in range(50):
        t = _draw(3, rng)
        if not any(t.beta):
            continue
        mirrored = RepTriple(3, t.beta, t.alpha)
        X = to_point(rep_from_triple(t)).X
        Xm = to_point(rep_from_triple(mirrored)).X
        assert all(
            Xm[i][j] == X[j][i] for i in range(3) for j in range(3)
        )


def test_gf_fuzz():
    gf = lambda v: GF(10007, v)
    rng = Random(17)
    for n in (2, 3, 4):
        for _ in range(25):
            t = _draw(n, rng, gf)
            r = rep_from_triple(t)
            assert check_relations(r).passed
            assert is_simple(r) == any(t.beta)


_BOX = range(-repmoduli.BOX, repmoduli.BOX + 1)


def _box_solutions(alpha):
    """Brute force: every beta in the box with <beta, alpha> = 0."""
    return {b for b in product(_BOX, repeat=len(alpha))
            if sum(a * x for a, x in zip(alpha, b)) == 0}


def _as_ints(t):
    assert {type(x) for x in t.alpha + t.beta} == {int}
    return t.alpha, t.beta


class _FixedAlpha:
    """An rng whose first randint calls return alpha's entries, and then
    those of a shared Random: random_triple draws alpha first, so it draws
    beta for this alpha."""

    def __init__(self, alpha, rng):
        self.script, self.rng = list(alpha), rng

    def randint(self, a, b):
        return self.script.pop(0) if self.script else self.rng.randint(a, b)


def _assert_flat(counts, solutions):
    """The beta counts of each alpha are flat: their chi-square statistic
    against the uniform law on the alpha's solutions, summed over the
    alphas, stays below its mean plus six standard deviations."""
    chi2, df = 0.0, 0
    for alpha, seen in counts.items():
        S = solutions[alpha]
        mean = sum(seen.values()) / len(S)
        chi2 += sum((seen[b] - mean) ** 2 / mean for b in S)
        df += len(S) - 1
    assert chi2 < df + 6 * sqrt(2 * df), (chi2, df)


def test_sampler_sees_every_box_solution_at_n2():
    # 240 pairs (alpha, beta), the rarest drawn with probability 1/336
    rng = Random(41)
    counts = {}
    for _ in range(4000):
        alpha, beta = _as_ints(random_triple(2, rng))
        counts.setdefault(alpha, Counter())[beta] += 1
    solutions = {a: _box_solutions(a) for a in product(_BOX, repeat=2) if any(a)}
    assert {(a, b) for a, seen in counts.items() for b in seen} == {
        (a, b) for a, S in solutions.items() for b in S}
    _assert_flat(counts, solutions)


@pytest.mark.parametrize(
    "alpha",
    [(1, 0, 0), (0, -1, 0), (0, 0, 3), (2, -3, 1), (-3, 3, 0), (0, 2, -2), (1, 2, 3), (3, 1, -2)],
)
def test_sampler_beta_is_uniform_over_the_box_solutions_at_n3(alpha):
    # n = 3 has 8550 pairs, too many to see them all from free draws, so
    # alpha is fixed: the first nonzero entry sits at each index, and is
    # +-1, 2 or 3, so the solved coordinate divides in some draws only
    S = _box_solutions(alpha)
    rng = Random(sum(alpha) + 100)
    seen = Counter()
    for _ in range(40 * len(S)):
        a, beta = _as_ints(random_triple(3, _FixedAlpha(alpha, rng)))
        assert a == alpha
        seen[beta] += 1
    assert set(seen) == S
    _assert_flat({alpha: seen}, {alpha: S})


@pytest.mark.parametrize(
    "field, kind",
    [(Q, Q), (int, int), (lambda x: GF(10007, x), GF)],
    ids=["fraction", "int", "gf10007"],
)
def test_sampler_draws_lie_in_the_box_with_zero_pairing(field, kind):
    rng = Random(43)
    for n in range(2, 7):
        for _ in range(200):
            t = _draw(n, rng, field)
            entries = t.alpha + t.beta
            assert {type(x) for x in entries} == {kind}
            if kind is GF:
                ints = [x.v if x.v <= x.p // 2 else x.v - x.p for x in entries]
            else:
                assert all(Q(x).denominator == 1 for x in entries)
                ints = list(map(int, entries))
            assert all(x in _BOX for x in ints)
            assert any(t.alpha)
            assert sum(a * b for a, b in zip(t.alpha, t.beta)) == 0


def _reference_rescale(r, c):
    """rescale in the scalars' own arithmetic: the oracle for the lift."""
    n = r.n
    return Rep(
        n,
        tuple(tuple(x * c[k + 1] / c[k] for x in r.f_scalars[k]) for k in range(n - 1)),
        tuple(tuple(x * c[k] / c[k + 1] for x in r.v_scalars[k]) for k in range(n - 1)),
    )


def _reference_point(r):
    alpha, beta = r.f_scalars[0], r.v_scalars[0]
    pivot = next(x for x in alpha if x)
    return (tuple(x / pivot for x in alpha),
            tuple(tuple(a * b for b in beta) for a in alpha))


def _reference_isomorphic(r1, r2):
    """reps_isomorphic as a chain of gauge scalars c_k in the scalars' own
    arithmetic."""
    if r1.n != r2.n:
        return False
    n = r1.n
    x = r1.f_scalars[0][0]
    c = [GF(x.p, 1) if isinstance(x, GF) else Q(1)]
    for k in range(n - 1):
        ratio = None
        for s1, s2 in zip(r1.f_scalars[k], r2.f_scalars[k]):
            if bool(s1) != bool(s2):
                return False
            if s1:
                rr = s1 * c[k] / s2
                if ratio is None:
                    ratio = rr
                elif ratio != rr:
                    return False
        if ratio is None:
            return False
        c.append(ratio)
    return all(
        r1.v_scalars[k][j] * c[k + 1] == r2.v_scalars[k][j] * c[k]
        for k in range(n - 1) for j in range(n))


def _entries(x):
    """Each entry of a nested tuple with its type and str: equal lists mean
    equal values, types and printed forms."""
    if isinstance(x, tuple):
        return [e for y in x for e in _entries(y)]
    return [(x, type(x), str(x))]


def _cases(kind, rng):
    """(rep, c) pairs of one input set: Fraction reps with c entries like
    Q(5, 3); plain int reps with int or Fraction c entries; GF(10007) reps
    with GF c (c_0 the int 1, as in the battery)."""
    gf = lambda x: GF(10007, x)
    for n in range(2, 7):
        for _ in range(12):
            if kind == "fraction":
                t = _draw(n, rng)
                c = (1,) + tuple(Q(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n - 1))
            elif kind == "int":
                t = random_triple(n, rng)
                c = (1,) + tuple(rng.choice([int, Q])(rng.randint(1, 5)) for _ in range(n - 1))
            else:
                t = _draw(n, rng, gf)
                c = (1,) + tuple(gf(rng.randint(1, 10006)) for _ in range(n - 1))
            yield rep_from_triple(t), c


_KINDS = ["fraction", "int", "gf10007"]


def _over_q(r):
    """An int rep as the rep of Fractions it stands for."""
    return Rep(r.n, *(tuple(tuple(map(Q, layer)) for layer in layers)
                      for layers in (r.f_scalars, r.v_scalars)))


@pytest.mark.parametrize("kind", _KINDS)
def test_lifted_rescale_and_point_agree_with_the_field_arithmetic(kind):
    for r, c in _cases(kind, Random(23)):
        # int scalars lie in Q: the oracle computes on their Fractions, so
        # every entry must come out a Fraction, never int / int's float
        r_ref, c_ref = (_over_q(r), tuple(map(Q, c))) if kind == "int" else (r, c)
        scaled = rescale(r, c)
        expected = _reference_rescale(r_ref, c_ref)
        assert _entries(scaled.f_scalars) == _entries(expected.f_scalars)
        assert _entries(scaled.v_scalars) == _entries(expected.v_scalars)
        for rep, ref in ((r, r_ref), (scaled, expected)):
            pt = to_point(rep)
            line, X = _reference_point(ref)
            assert _entries(pt.line) == _entries(line)
            assert _entries(pt.X) == _entries(X)


# alpha with denominators 2, 3 and 1, beta with ints among Fractions
_MIXED_TRIPLE = RepTriple(3, (Q(1, 2), Q(2, 3), 1), (2, Q(0), Q(-1)))


@pytest.mark.parametrize("kind", _KINDS + ["mixed"])
def test_a_triple_keeps_its_lift_and_to_point_lifts_once(kind, monkeypatch):
    if kind == "mixed":
        reps = [rep_from_triple(_MIXED_TRIPLE),
                rescale(rep_from_triple(_MIXED_TRIPLE), (1, Q(5, 3), 7))]
    else:
        reps = [rep for r, c in _cases(kind, Random(37)) for rep in (r, rescale(r, c))]
    lift = repmoduli._lift_scalars
    for r in reps:
        t = triple_from_rep(r)
        assert t._lifted == lift((*t.alpha, *t.beta))
        # the kept lift is no field: eq, hash and repr see n, alpha and
        # beta only
        assert t._fields == ("n", "alpha", "beta") and vars(t) == {"_lifted": t._lifted}
        relifted = RepTriple(*t)
        relifted._lifted = None
        assert relifted == t
        if kind != "gf10007":  # GF elements have no hash
            assert hash(relifted) == hash(t)
        assert repr(t) == f"RepTriple(n={t.n!r}, alpha={t.alpha!r}, beta={t.beta!r})"
        calls = []
        monkeypatch.setattr(repmoduli, "_lift_scalars", lambda s: calls.append(s) or lift(s))
        pt = to_point(r)
        monkeypatch.setattr(repmoduli, "_lift_scalars", lift)
        # one lift, the pairing test's, serves the point
        assert len(calls) == 1
        # int scalars stand for Fractions, as in the rescale test above
        line, X = _reference_point(r if kind == "gf10007" else _over_q(r))
        assert _entries(pt.line) == _entries(line)
        assert _entries(pt.X) == _entries(X)


def test_an_int_rep_rescales_and_points_to_fractions():
    r = rep_from_triple(RepTriple(3, (1, 2, 1), (2, -1, 0)))
    scaled = rescale(r, (1, 2, 3))
    assert check_relations(scaled).passed
    assert _entries(scaled.f_scalars[1]) == _entries((Q(3, 2), Q(3), Q(3, 2)))
    assert _entries(to_point(r).line) == _entries(q(1, 2, 1))
    assert _entries(to_point(r).X[1]) == _entries(q(4, -2, 0))


def test_rescale_refuses_a_basis_of_the_wrong_length():
    # one c entry per vertex W_k: neither fewer nor more
    r = rep_from_triple(RepTriple(3, (1, 2, 1), (2, -1, 0)))
    for c in ((1, 2), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match=f"c must have length 3, got {len(c)}"):
            rescale(r, c)


def _with(r, layer, k, i, value):
    tables = {"f": [list(x) for x in r.f_scalars], "v": [list(x) for x in r.v_scalars]}
    tables[layer][k][i] = value
    return Rep(r.n, tuple(map(tuple, tables["f"])), tuple(map(tuple, tables["v"])))


@pytest.mark.parametrize("kind", _KINDS)
def test_lifted_isomorphism_test_agrees_with_the_gauge_chain(kind):
    rng = Random(29)
    for r, c in _cases(kind, rng):
        scaled = rescale(r, c)
        pairs = [(scaled, r), (r, scaled)]
        for layer in "fv":
            k, i = rng.randrange(r.n - 1), rng.randrange(r.n)
            x = getattr(scaled, f"{layer}_scalars")[k][i]
            pairs.append((_with(scaled, layer, k, i, x + 1), r))
            pairs.append((_with(scaled, layer, k, i, 0 * x), r))
        for r1, r2 in pairs:
            assert reps_isomorphic(r1, r2) == _reference_isomorphic(r1, r2)
        assert reps_isomorphic(scaled, r)


@pytest.mark.parametrize("kind", _KINDS)
def test_lifted_pairing_check_agrees_with_the_field_arithmetic(kind):
    rng = Random(31)
    for r, _ in _cases(kind, rng):
        n, alpha = r.n, r.f_scalars[0]
        for beta in (r.v_scalars[0], _with(r, "v", 0, rng.randrange(n), alpha[0] + 1).v_scalars[0]):
            pairing = sum(a * b for a, b in zip(alpha, beta))
            if pairing == 0:
                assert RepTriple(n, alpha, beta).beta == beta
            else:
                with pytest.raises(ValueError) as e:
                    RepTriple(n, alpha, beta)
                assert str(e.value) == f"pairing <beta, alpha> = {pairing} must vanish"


def _isomorphic_pair(field):
    # alpha has a zero at label 3, beta at label 2; c = (1, 2, 5, 3)
    t = RepTriple(4, tuple(map(field, (1, 2, 0, 1))), tuple(map(field, (2, 0, 1, -2))))
    r = rep_from_triple(t)
    return rescale(r, tuple(map(field, (1, 2, 5, 3)))), r


def _bumped(r, layer, k, i):
    x = getattr(r, f"{layer}_scalars")[k][i]
    return _with(r, layer, k, i, x + 1)


def _zero_moved(r, layer, k):
    # swap the layer's zero with its neighbour
    row = list(getattr(r, f"{layer}_scalars")[k])
    z = row.index(0)
    row[z], row[z - 1] = row[z - 1], row[z]
    tables = {"f": list(r.f_scalars), "v": list(r.v_scalars)}
    tables[layer][k] = tuple(row)
    return Rep(r.n, tuple(tables["f"]), tuple(tables["v"]))


def _f_layer_zeroed(r, k):
    f = list(r.f_scalars)
    f[k] = tuple(0 * x for x in f[k])
    return Rep(r.n, tuple(f), r.v_scalars)


def _longer(r):
    return rep_from_triple(RepTriple(r.n + 1, r.f_scalars[0] + (0 * r.f_scalars[0][0],),
                                     r.v_scalars[0] + (0 * r.v_scalars[0][0],)))


@pytest.mark.parametrize("field", [Q, lambda x: GF(10007, x)], ids=["fraction", "gf10007"])
@pytest.mark.parametrize(
    "change",
    [
        lambda r: _bumped(r, "v", 1, 0),
        lambda r: _bumped(r, "v", 2, 3),
        lambda r: _bumped(r, "f", 1, 1),
        lambda r: _bumped(r, "f", 0, 2),
        lambda r: _zero_moved(r, "f", 2),
        lambda r: _zero_moved(r, "v", 0),
        lambda r: _f_layer_zeroed(r, 1),
        _longer,
    ],
    ids=["v-scalar", "last-v-scalar", "f-scalar", "f-zero-made-nonzero",
         "f-zero-moved", "v-zero-moved", "zero-f-layer", "larger-n"],
)
def test_isomorphism_test_rejects_one_change(field, change):
    scaled, r = _isomorphic_pair(field)
    assert reps_isomorphic(scaled, r) and reps_isomorphic(r, scaled)
    other = change(scaled)
    assert other != scaled
    assert not reps_isomorphic(other, r)
    assert not reps_isomorphic(r, other)


@pytest.mark.parametrize("field", [Q, lambda x: GF(10007, x)], ids=["fraction", "gf10007"])
def test_isomorphism_test_needs_every_f_layer_nonzero(field):
    # the gauge is read off the f layers, so a rep with a zero f layer (one
    # not generated by W_0) is not even isomorphic to itself
    r = _f_layer_zeroed(_isomorphic_pair(field)[1], 2)
    assert not reps_isomorphic(r, r)


def test_isomorphism_test_refuses_reps_over_different_fields():
    # reps over Q and over GF(p) (or over two primes) have no common field
    # to compare in: the test raises instead of answering
    scaled, r = _isomorphic_pair(Q)
    for field in (lambda x: GF(10007, x), lambda x: GF(7, x)):
        other = _isomorphic_pair(field)[0]
        with pytest.raises(ValueError, match="different fields"):
            reps_isomorphic(other, r)
        with pytest.raises(ValueError, match="different fields"):
            reps_isomorphic(scaled, other)
    with pytest.raises(ValueError, match="different fields"):
        reps_isomorphic(_isomorphic_pair(lambda x: GF(7, x))[0],
                        _isomorphic_pair(lambda x: GF(10007, x))[1])


def test_isomorphism_test_compares_an_int_rep_in_gf_p():
    # ints stand for GF(p) elements beside GF(p) scalars, as in rescale:
    # beta = (8, -8) is (1, -1) modulo 7, but not over Q
    gf = lambda x: GF(7, x)
    r = rep_from_triple(RepTriple(2, (1, 1), (1, -1)))
    r8 = rep_from_triple(RepTriple(2, (1, 1), (8, -8)))
    r7 = rep_from_triple(RepTriple(2, (gf(1), gf(1)), (gf(1), gf(-1))))
    scaled = rescale(r, (1, gf(2)))
    assert {type(x) for x in repmoduli._scalars(scaled)} == {GF}
    for r1, r2 in ((r, r7), (r, scaled), (r8, r7), (r8, scaled)):
        assert reps_isomorphic(r1, r2) and reps_isomorphic(r2, r1)
    assert not reps_isomorphic(r, r8)
    assert not reps_isomorphic(r, _with(r7, "v", 0, 0, gf(2)))


def test_gf_is_unhashable():
    # GF(7, 3) equals 3 and 10, so no hash could agree with equality
    assert GF(7, 3) == 3 and GF(7, 3) == 10
    with pytest.raises(TypeError):
        hash(GF(7, 3))


def test_division_by_zero_raises_in_every_field():
    with pytest.raises(ZeroDivisionError):
        GF(7, 3) / GF(7, 0)
    with pytest.raises(ZeroDivisionError):
        GF(7, 3) / 14
    gf = lambda x: GF(7, x)
    r = rep_from_triple(RepTriple(3, tuple(map(gf, (1, 2, 1))), tuple(map(gf, (2, -1, 0)))))
    # a c entry that is zero mod 7, as a GF element or as an int
    for c in ((1, gf(2), gf(14)), (1, 7, gf(3)), (gf(0), gf(1), gf(1))):
        with pytest.raises(ZeroDivisionError):
            rescale(r, c)
    with pytest.raises(ZeroDivisionError):
        rescale(_TRIPLE_REP, (1, Q(5, 3), 0, 2))


@pytest.mark.parametrize("p", [0, 7])
def test_a_zero_quotient_raises_on_every_call(p):
    # lru_cache keeps no exception, so a repeated zero den raises again
    for _ in range(3):
        for den in (0, 7 * (p > 0)):
            with pytest.raises(ZeroDivisionError):
                repmoduli._quotient(3, den, p)


def test_memoized_quotients_equal_fresh_ones():
    fresh = [((3, 6, 0), Q(3, 6)), ((-4, 2, 0), Q(-2)), ((0, 5, 0), Q(0)),
             ((3, 5, 7), GF(7, 2)), ((-1, 10, 7), GF(7, 2)), ((0, 3, 7), GF(7, 0))]
    for key, value in fresh:
        got = repmoduli._quotient(*key)
        assert got == value and type(got) is type(value) and str(got) == str(value)
        # a repeated call shares the first call's value
        assert repmoduli._quotient(*key) is got


_GF7_REP = rep_from_triple(RepTriple(2, (GF(7, 1), GF(7, 1)), (GF(7, 1), GF(7, 6))))


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: RepTriple(2, (GF(7, 1), GF(5, 1)), (GF(7, 0), GF(7, 0))), "GF(5) and GF(7)"),
        (lambda: RepTriple(2, (GF(7, 1), Q(1, 2)), (GF(7, 0), GF(7, 0))), "GF(7) and Q"),
        (lambda: rescale(_GF7_REP, (1, GF(5, 2))), "GF(5) and GF(7)"),
        (lambda: rescale(_GF7_REP, (1, Q(1, 2))), "GF(7) and Q"),
        (lambda: rescale(_TRIPLE_REP, (1, GF(7, 2), 1, 1)), "GF(7) and Q"),
        (lambda: check_relations(_with(_GF7_REP, "v", 0, 1, GF(5, 1))), "GF(5) and GF(7)"),
    ],
    ids=["triple-two-primes", "triple-fraction-in-gf", "rescale-two-primes",
         "rescale-fraction-c", "rescale-gf-c", "relations-two-primes"],
)
def test_scalars_from_two_fields_raise(make, fields):
    with pytest.raises(ValueError, match=re.escape(f"scalars over different fields: {fields}")):
        make()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["add", "sub", "mul", "truediv"])
def test_gf_arithmetic_refuses_elements_of_two_primes(op):
    for x, y in ((GF(7, 3), GF(5, 2)), (GF(5, 2), GF(7, 3))):
        with pytest.raises(ValueError, match=re.escape("scalars over different fields: GF(5) and GF(7)")):
            op(x, y)
    assert op(GF(7, 3), GF(7, 2)) == op(GF(7, 3), 2)


def test_scalars_outside_both_fields_raise():
    with pytest.raises(TypeError, match="not an int"):
        GF(7, Q(1, 2))
    with pytest.raises(TypeError, match="not an int"):
        GF(7, 1) + Q(1, 2)
    with pytest.raises(TypeError, match="float scalar"):
        RepTriple(2, (1.0, 1.0), (1.0, -1.0))
    with pytest.raises(TypeError, match="float scalar"):
        check_relations(_with(_TRIPLE_REP, "f", 0, 0, 1.5))
    with pytest.raises(TypeError, match="float scalar"):
        rescale(_TRIPLE_REP, (1, 0.5, 2, 3))


def test_battery_smoke():
    for n in (2, 5):
        rep = run_battery(n, 100, seed=42)
        assert rep.passed, rep.failures


def test_battery_refuses_a_negative_sample_count():
    with pytest.raises(ValueError, match="samples=-1 out of range: must be at least 0"):
        run_battery(3, -1, 0)
    assert run_battery(3, 0, 0) == repmoduli.BatteryReport(3, 0, True, ())


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test, rather than hang the suite, if the body is still
    running after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_sampling_refuses_n_below_two(n):
    # for n <= 0 alpha is (), which is never nonzero, so no draw of alpha
    # can end; n = 1 has no vector alpha with a covector beta either
    with _deadline(5):
        with pytest.raises(ValueError, match="n must be at least 2"):
            random_triple(n, Random(1))
        for samples in (0, 1):
            with pytest.raises(ValueError, match="n must be at least 2"):
                run_battery(n, samples, 0)


def _wrong_layer_check(r):
    # check_relations reading v layer k-2 where it should read k-1
    return check_relations(Rep(r.n, r.f_scalars, r.v_scalars[-1:] + r.v_scalars[:-1]))


def _inverted_ratio_isomorphic(r1, r2):
    # the gauge reps_isomorphic reads off the f layers, each ratio inverted
    c = [Q(1)]
    for k in range(r1.n - 1):
        i = next(i for i, x in enumerate(r2.f_scalars[k]) if x)
        c.append(r2.f_scalars[k][i] * c[k] / r1.f_scalars[k][i])
    return r1 == rescale(r2, c)


def _transposed_point(r):
    # the point with X = beta alpha^T in place of alpha beta^T
    pt = to_point(r)
    return YPoint(pt.line, tuple(zip(*pt.X)))


def _unnormalized_point(r):
    # the line as alpha read from r, not scaled to a leading 1
    return YPoint(r.f_scalars[0], to_point(r).X)


@pytest.mark.parametrize(
    "name, broken, step",
    [
        ("check_relations", _wrong_layer_check, "relations"),
        ("reps_isomorphic", _inverted_ratio_isomorphic, "round-trip"),
        ("to_point", _transposed_point, "point"),
        ("to_point", _unnormalized_point, "point"),
    ],
    ids=["wrong-layer-relations", "inverted-ratio-isomorphism", "transposed-point",
         "unnormalized-line"],
)
def test_battery_fails_on_a_broken_step(monkeypatch, name, broken, step):
    # reps in one basis repeat alpha and beta in every layer, so both
    # faults stay hidden there; a random basis exposes them from n = 3 on
    monkeypatch.setattr(repmoduli, name, broken)
    for n in range(3, 7):
        rep = run_battery(n, 50, seed=n)
        assert not rep.passed
        assert rep.failures[0][1] == step
