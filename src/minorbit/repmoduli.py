"""Rank-one representations of the doubled Beilinson quiver over a field.

A representation with one-dimensional spaces W_0, ..., W_{n-1} is stored
through the scalars by which each labeled arrow acts.  Representations
built from a triple (alpha, beta) with <beta, alpha> = 0 act by

    f_i : W_k -> W_{k+1}  multiplication by alpha_i,
    v_j : W_k -> W_{k-1}  multiplication by beta_j,

and correspond to the point ([alpha], X = alpha beta^T) of the
resolution: X is square-zero of rank at most one, with rank exactly one
precisely for the simple representations (beta != 0).

Scalars lie in one field, which `_lift_scalars` alone decides: Q for
Fraction and int scalars, or GF(p) for elements of the small wrapper GF
below (which the tests fuzz with) and ints standing for GF(p, x).  Any
other scalar, and scalars from two fields, raise.  Every exact step
works on one integer lift of the scalars: rationals become numerators N
over their common denominator d, GF(p) elements their values in 0..p-1
(d = 1), and an equation between scalars becomes one between integers,
taken modulo p over GF(p).  Each step lifts once: `check_relations` the
rep, to sum each relation generator; `RepTriple` alpha and beta, to test
the pairing, keeping that lift for `to_point`; `rescale` the rep and c
together; `reps_isomorphic` both reps, to cross-multiply.  `rescale` and
`to_point` build each entry as one quotient of lifted numbers, in the
memoized `_quotient`: a battery meets a few hundred distinct quotients.
Every result is thus a Fraction over Q and a GF(p) element over GF(p),
whatever mix of int and Fraction the input was.

The isomorphism test.  r1 = rescale(r2, c) with c_0 = 1 says, in layer
k, f1_i = rho f2_i for every label i and v1_j rho = v2_j for every j,
where rho = c_{k+1} / c_k != 0.  If the zero patterns of f1 and f2
agree and i0 is the first label with f1_i0 != 0, such a rho exists
exactly when f1_i f2_i0 = f2_i f1_i0 for every i and v1_j f1_i0 =
v2_j f2_i0 for every j: then rho = f1_i0 / f2_i0 is the only choice.
The layers' rhos are independent, and any choice of them gives c, so r1
and r2 are isomorphic exactly when every layer passes.  Both reps are
lifted together, over one common denominator d: with f = N / d and
v = V / d, the f equations read N1_i N2_i0 = N2_i N1_i0 and the v
equations V1_j N1_i0 = V2_j N2_i0 (each side carries 1 / d^2).  A
layer whose f scalars all vanish fixes no rho, and the test answers
False there: it is meant for reps generated by W_0, whose f layers are
all nonzero.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm
from random import Random

from .relations import relation_generators


class GF:
    """Tiny prime-field element for property fuzzing."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        if not isinstance(v, int):
            raise TypeError(f"GF({p}) value {v!r} is not an int")
        self.p = p
        self.v = v % p

    def _lift(self, other):
        if not isinstance(other, GF):
            return GF(self.p, other)
        if other.p != self.p:
            fields = " and ".join(f"GF({q})" for q in sorted((self.p, other.p)))
            raise ValueError(f"scalars over different fields: {fields}")
        return other

    def __add__(self, o):
        o = self._lift(o)
        return GF(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return GF(self.p, self.v - o.v)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return GF(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _quotient(self.v, self._lift(o).v, self.p)

    def __eq__(self, o):
        if isinstance(o, int):
            return self.v == o % self.p
        return isinstance(o, GF) and self.p == o.p and self.v == o.v

    def __bool__(self):
        return self.v != 0

    # GF(7, 3) equals both 3 and 10, so no hash agrees with equality
    __hash__ = None

    def __repr__(self):
        return f"GF({self.p},{self.v})"


class RepTriple(namedtuple("RepTriple", "n alpha beta")):
    """A nonzero vector alpha and a covector beta with zero pairing.  The
    lift `_lift_scalars((*alpha, *beta))` that tests the pairing is kept
    for `to_point` as `_lifted`, in the instance __dict__ (so no
    __slots__); not a field, so eq, hash and repr ignore it."""

    def __new__(cls, n: int, alpha: tuple, beta: tuple):
        if n < 2:
            raise ValueError("n must be at least 2")
        if len(alpha) != n or len(beta) != n:
            raise ValueError("alpha and beta must have length n")
        if not any(alpha):
            raise ValueError("alpha must be nonzero")
        vals, d, p = lifted = _lift_scalars((*alpha, *beta))
        total = sum(a * b for a, b in zip(vals[:n], vals[n:]))
        if (total % p) if p else total:
            raise ValueError(f"pairing <beta, alpha> = {_quotient(total, d * d, p)} must vanish")
        self = tuple.__new__(cls, (n, alpha, beta))
        self._lifted = lifted
        return self


class Rep(namedtuple("Rep", "n f_scalars v_scalars")):
    """Scalars of every arrow: f_scalars[k][i] is f_{i+1} on W_k -> W_{k+1}
    (0 <= k <= n-2), v_scalars[k][j] is v_{j+1} on W_{k+1} -> W_k."""

    __slots__ = ()

    def __new__(cls, n: int, f_scalars: tuple, v_scalars: tuple):
        if len(f_scalars) != n - 1 or len(v_scalars) != n - 1:
            raise ValueError("need n-1 layers of arrow scalars")
        for layer in f_scalars + v_scalars:
            if len(layer) != n:
                raise ValueError("each layer needs n scalars")
        return tuple.__new__(cls, (n, f_scalars, v_scalars))


def rep_from_triple(t: RepTriple) -> Rep:
    layer_f = tuple(t.alpha)
    layer_v = tuple(t.beta)
    return Rep(
        n=t.n,
        f_scalars=tuple(layer_f for _ in range(t.n - 1)),
        v_scalars=tuple(layer_v for _ in range(t.n - 1)),
    )


class RelationCheck(namedtuple("RelationCheck", "passed relation vertex",
                               defaults=(None, None))):
    __slots__ = ()


@lru_cache(maxsize=None)
def _relation_table(n: int) -> tuple:
    """The generators of `relation_generators(n)` as rows (name, source,
    ((coeff, a, b), ...)): term coeff * (word) acts by coeff * s[a] * s[b]
    on the flat scalar list s of `_scalars` (f layers first, then v
    layers).  Compiled once per n."""
    v0 = (n - 1) * n
    rows = []
    for gen in relation_generators(n):
        terms = []
        for coeff, steps in gen.terms:
            if len(steps) != 2 or not isinstance(coeff, int):
                raise ValueError(
                    f"{gen.name} at {gen.source}: term {coeff}*{steps} is not an "
                    "integer multiple of a two-arrow word")
            idx, k = [], gen.source
            for kind, i in steps:
                up = kind == "f"
                layer = k if up else k - 1
                if not (0 <= layer <= n - 2 and 1 <= i <= n):
                    raise ValueError(f"{gen.name} at {gen.source}: word {steps} leaves the quiver")
                idx.append((0 if up else v0) + layer * n + i - 1)
                k += 1 if up else -1
            terms.append((coeff, idx[0], idx[1]))
        rows.append((gen.name, gen.source, tuple(terms)))
    return tuple(rows)


# the scalar types of Q, matched exactly
_RATIONAL = {Fraction, int}


def _lift_scalars(s) -> tuple[list, int, int]:
    """The field of the scalars s, and s as integers (vals, d, p).  Over Q
    (Fraction and int scalars, p = 0) vals are the numerators N_i of
    s_i = N_i / d over the common denominator d (ints alone: s, d = 1);
    over GF(p) (GF elements, and ints x standing for GF(p, x)) they are
    the values in 0..p-1, with d = 1.  Equalities of homogeneous scalar
    polynomials become equalities of integers, taken modulo p when p is
    nonzero.  Raises TypeError for any other scalar, a float say, and
    ValueError naming the fields for a Fraction among GF elements or GF
    elements of two primes."""
    kinds = set(map(type, s))
    if kinds == {int}:
        return list(s), 1, 0
    if kinds <= _RATIONAL:
        # Fraction.denominator is a Python property: read it once
        dens = [x.denominator for x in s]
        d = lcm(*dens)
        return [x.numerator * (d // q) for x, q in zip(s, dens)], d, 0
    odd = kinds - _RATIONAL - {GF}
    if odd:
        raise TypeError(f"a {odd.pop().__name__} scalar is not a Fraction, int or GF element")
    primes = sorted({x.p for x in s if type(x) is GF})
    fields = [f"GF({q})" for q in primes] + ["Q"] * (Fraction in kinds)
    if len(fields) > 1:
        raise ValueError(f"scalars over different fields: {' and '.join(fields)}")
    p = primes[0]
    return [x.v if type(x) is GF else x % p for x in s], 1, p


def _scalars(r: Rep) -> list:
    """The rep's scalars as one flat list, f layers first."""
    return [x for layer in r.f_scalars + r.v_scalars for x in layer]


def check_relations(r: Rep) -> RelationCheck:
    """Evaluate every generator of the relation ideal (see `relations`)
    on the rep's scalars: a word acts by the product of its arrows'
    scalars, and the terms of each generator must sum to zero.  Reports
    the first generator that does not, with its source vertex.

    The sums are taken in the lift N / D: every term is an integer times
    a two-arrow word, acting by (N_a / D)(N_b / D), so a generator's sum
    is D^-2 times the integer sum of coeff * N_a * N_b.  Over GF(p) it is
    tested modulo p."""
    vals, _, p = _lift_scalars(_scalars(r))
    for name, source, terms in _relation_table(r.n):
        total = 0
        for coeff, a, b in terms:
            total += coeff * vals[a] * vals[b]
        if (total % p) if p else total:
            return RelationCheck(False, name, source)
    return RelationCheck(True)


def generated_by(r: Rep, vertex: int) -> bool:
    """Whether the subrepresentation generated by W_vertex is everything.
    f arrows only go up and v arrows only go down, so W_vertex reaches
    W_k exactly when each f layer from vertex to k - 1 (k > vertex), or
    each v layer from k to vertex - 1 (k < vertex), has a nonzero scalar.
    A vertex outside 0..n-1 raises ValueError."""
    if not 0 <= vertex < r.n:
        raise ValueError(f"vertex {vertex} out of range [0, {r.n - 1}]")
    return all(map(any, r.f_scalars[vertex:])) and all(map(any, r.v_scalars[:vertex]))


def is_simple(r: Rep) -> bool:
    """Simplicity for rank-one representations satisfying the relations:
    equivalent to being generated by the last space, that is, to every
    v layer having a nonzero scalar."""
    return generated_by(r, r.n - 1)


class YPoint(namedtuple("YPoint", "line X")):
    """A point of the resolution: the line [alpha] and the square-zero
    matrix X = alpha beta^T of rank at most one."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _quotient(num: int, den: int, p: int):
    """num / den in the field of `_lift_scalars`: a GF(p) element when p
    is nonzero, else a Fraction.  A den of zero (mod p) raises
    ZeroDivisionError in both, on every call: lru_cache keeps no
    exception.  No Fraction or GF changes in place, so results are
    shared."""
    if p and not den % p:
        raise ZeroDivisionError(f"division by zero in GF({p})")
    return GF(p, num * pow(den, p - 2, p)) if p else Fraction(num, den)


def to_point(r: Rep) -> YPoint:
    """The point ([alpha], X = alpha beta^T) read off W_0's arrows.  X is
    square-zero because `RepTriple` rejects a nonzero pairing, and both
    the line and X are unchanged by a rescaling of the bases.  Built from
    the lift alpha_i = N_i / d, beta_j = M_j / d kept by the RepTriple
    of `triple_from_rep`: X_ij = N_i M_j / d^2, the line N_i / N_pivot."""
    t = triple_from_rep(r)
    n = t.n
    vals, d, p = t._lifted
    a, b = vals[:n], vals[n:]
    pivot = next(x for x in a if x)
    dd = d * d
    return YPoint(line=tuple(_quotient(x, pivot, p) for x in a),
                  X=tuple(tuple(_quotient(x * y, dd, p) for y in b) for x in a))


def triple_from_rep(r: Rep) -> RepTriple:
    """Reconstruct (alpha, beta) from a relation-satisfying representation
    generated by W_0; inverse to rep_from_triple up to rescaling the
    bases of the spaces."""
    if not generated_by(r, 0):
        raise ValueError("representation is not generated by W_0")
    alpha = tuple(r.f_scalars[0])
    beta = tuple(r.v_scalars[0])
    return RepTriple(r.n, alpha, beta)


def rescale(r: Rep, c) -> Rep:
    """r written in the basis that scales the coordinate of W_k by c[k]:
    f scalars out of W_k gain c[k+1] / c[k], v scalars into W_k gain
    c[k] / c[k+1].  This is the basis change that
    `reps_isomorphic(rescale(r, c), r)` searches for, scaled to c[0] = 1.

    r and c are lifted together, so they lie in one field: to N / d and
    C / d, and an f entry is the one `_quotient` N C_{k+1} / (d C_k).  A
    c entry of zero raises ZeroDivisionError, and a c of any length but
    n raises ValueError."""
    n = r.n
    if len(c) != n:
        raise ValueError(f"c must have length {n}, got {len(c)}")
    v0 = (n - 1) * n
    vals, d, p = _lift_scalars([*_scalars(r), *c])
    cs = vals[2 * v0:]

    def layer(start, up, down):
        num, den = cs[up], d * cs[down]
        return tuple(_quotient(x * num, den, p) for x in vals[start:start + n])

    return Rep(
        n,
        tuple(layer(k * n, k + 1, k) for k in range(n - 1)),
        tuple(layer(v0 + k * n, k, k + 1) for k in range(n - 1)),
    )


def reps_isomorphic(r1: Rep, r2: Rep) -> bool:
    """Isomorphism = a rescaling c_k of each basis vector (c_0 = 1) that
    matches all arrow scalars: r1 == rescale(r2, c).  Reps of different n
    are not isomorphic.  Both reps are lifted together: an int rep compares
    with a GF(p) rep in GF(p), and reps over two fields raise ValueError.
    The gauge is read off the f layers, so a rep with an f layer that is
    all zero, one not generated by W_0, is isomorphic to nothing, itself
    included.  The layer equations are cross-multiplied in the lift, as
    the module docstring proves."""
    if r1.n != r2.n:
        return False
    n = r1.n
    v0 = (n - 1) * n
    vals, _, p = _lift_scalars([*_scalars(r1), *_scalars(r2)])
    s1, s2 = vals[:2 * v0], vals[2 * v0:]
    for lo in range(0, v0, n):
        a0 = None
        for i in range(lo, lo + n):
            a, b = s1[i], s2[i]
            if (a == 0) != (b == 0):
                return False
            if a:
                if a0 is None:
                    a0, b0 = a, b
                diff = a * b0 - b * a0
                if (diff % p) if p else diff:
                    return False
        if a0 is None:
            return False
        for j in range(v0 + lo, v0 + lo + n):
            diff = s1[j] * a0 - s2[j] * b0
            if (diff % p) if p else diff:
                return False
    return True


# ---------------------------------------------------------------------------
# sampling


# samples are drawn from the integer box [-BOX, BOX]^n
BOX = 3


def random_triple(n: int, rng: Random) -> RepTriple:
    """Draw alpha != 0 uniformly from the integer box [-BOX, BOX]^n, then
    beta uniformly from S(alpha), the integer solutions of <beta, alpha>
    = 0 in the same box.  The entries are ints.

    beta is drawn by solving for one coordinate.  With i the first index
    where alpha_i != 0, every beta_j (j != i) is drawn uniformly from the
    box, in index order, and beta_i = -sum_{j != i} alpha_j beta_j /
    alpha_i; the draw is kept when beta_i is an integer in the box, and
    drawn again otherwise.  Dropping coordinate i maps S(alpha) into
    [-BOX, BOX]^(n-1) injectively, since the pairing fixes beta_i from
    the rest, and its image is exactly the set of kept draws.  Each kept
    draw is equally likely, so beta is uniform over S(alpha), as
    rejecting whole draws from [-BOX, BOX]^n would give, but a draw is
    kept 2 BOX + 1 times as often.  n < 2 raises ValueError."""
    if n < 2:
        raise ValueError("n must be at least 2")
    while True:
        alpha = tuple(rng.randint(-BOX, BOX) for _ in range(n))
        if any(alpha):
            break
    i = next(j for j, a in enumerate(alpha) if a)
    rest = alpha[:i] + alpha[i + 1:]
    while True:
        beta = [rng.randint(-BOX, BOX) for _ in range(n - 1)]
        bi, rem = divmod(-sum(a * b for a, b in zip(rest, beta)), alpha[i])
        if not rem and -BOX <= bi <= BOX:
            break
    beta.insert(i, bi)
    return RepTriple(n, alpha, tuple(beta))


class BatteryReport(namedtuple("BatteryReport", "n samples passed failures")):
    __slots__ = ()


def run_battery(n: int, samples: int, seed: int) -> BatteryReport:
    """Seeded property battery.  Each triple comes from `random_triple`,
    and its rep is written in a random basis c = (1, c_1, ..., c_{n-1}),
    c_k drawn from 1..BOX, so its layers differ; then the relations hold,
    simplicity <=> beta != 0 <=> rank X = 1, the point ([alpha],
    alpha beta^T) does not depend on the basis, and the round trip
    through (alpha, beta) gives the rep back up to isomorphism.

    The triple is drawn over Z, and `rescale` writes the rep under test
    in Fractions.  The expected point is built from the triple's
    integers alone, never from that rep: X_ij = alpha_i beta_j as ints,
    and the line Fraction(alpha_i, alpha_pivot), not `_quotient`, so the
    point step checks `to_point` against code and data it does not use."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if samples < 0:
        raise ValueError(f"samples={samples} out of range: must be at least 0")
    rng = Random(seed)
    failures = []
    for s in range(samples):
        t = random_triple(n, rng)
        c = (1,) + tuple(rng.randint(1, BOX) for _ in range(n - 1))
        r = rescale(rep_from_triple(t), c)
        chk = check_relations(r)
        if not chk.passed:
            failures.append((s, "relations", chk.relation, chk.vertex))
            continue
        simple = is_simple(r)
        beta_nonzero = any(t.beta)
        pt = to_point(r)
        rank_one = any(any(row) for row in pt.X)
        if simple != beta_nonzero or rank_one != beta_nonzero:
            failures.append((s, "simplicity", simple, beta_nonzero, rank_one))
            continue
        X = tuple(tuple(a * b for b in t.beta) for a in t.alpha)
        pivot = next(a for a in t.alpha if a)
        if pt.X != X or pt.line != tuple(Fraction(a, pivot) for a in t.alpha):
            failures.append((s, "point"))
            continue
        if not reps_isomorphic(rep_from_triple(triple_from_rep(r)), r):
            failures.append((s, "round-trip"))
    return BatteryReport(n, samples, not failures, tuple(failures[:5]))
