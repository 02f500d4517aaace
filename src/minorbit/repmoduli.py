"""Rank-one representations of the doubled Beilinson quiver over a field.

A representation with one-dimensional spaces W_0, ..., W_{n-1} is stored
through the scalars by which each labeled arrow acts.  Representations
built from a triple (alpha, beta) with <beta, alpha> = 0 act by

    f_i : W_k -> W_{k+1}  multiplication by alpha_i,
    v_j : W_k -> W_{k-1}  multiplication by beta_j,

and correspond to the point ([alpha], X = alpha beta^T) of the
resolution: X is square-zero of rank at most one, with rank exactly one
precisely for the simple representations (beta != 0).

Scalars are rationals (Fraction, the default, or int) or elements of
one prime field GF(p), through the small wrapper below that the tests
fuzz with; `check_relations` accepts exactly these two kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from random import Random

from .relations import relation_generators


class GF:
    """Tiny prime-field element for property fuzzing."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        return other if isinstance(other, GF) else GF(self.p, other)

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
        o = self._lift(o)
        return GF(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __eq__(self, o):
        if isinstance(o, int):
            return self.v == o % self.p
        return isinstance(o, GF) and self.p == o.p and self.v == o.v

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"GF({self.p},{self.v})"


@dataclass(frozen=True)
class RepTriple:
    """A nonzero vector alpha and a covector beta with zero pairing."""

    n: int
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if len(self.alpha) != self.n or len(self.beta) != self.n:
            raise ValueError("alpha and beta must have length n")
        if not any(self.alpha):
            raise ValueError("alpha must be nonzero")
        pairing = sum(a * b for a, b in zip(self.alpha, self.beta))
        if pairing != 0:
            raise ValueError(f"pairing <beta, alpha> = {pairing} must vanish")


@dataclass(frozen=True)
class Rep:
    """Scalars of every arrow: f_scalars[k][i] is f_{i+1} on W_k -> W_{k+1}
    (0 <= k <= n-2), v_scalars[k][j] is v_{j+1} on W_{k+1} -> W_k."""

    n: int
    f_scalars: tuple
    v_scalars: tuple

    def __post_init__(self):
        if len(self.f_scalars) != self.n - 1 or len(self.v_scalars) != self.n - 1:
            raise ValueError("need n-1 layers of arrow scalars")
        for layer in self.f_scalars + self.v_scalars:
            if len(layer) != self.n:
                raise ValueError("each layer needs n scalars")


def rep_from_triple(t: RepTriple) -> Rep:
    layer_f = tuple(t.alpha)
    layer_v = tuple(t.beta)
    return Rep(
        n=t.n,
        f_scalars=tuple(layer_f for _ in range(t.n - 1)),
        v_scalars=tuple(layer_v for _ in range(t.n - 1)),
    )


@dataclass(frozen=True)
class RelationCheck:
    passed: bool
    relation: str | None = None
    vertex: int | None = None


# (n, id of a relation_generators tuple) -> (that tuple, its table); the
# tuple is held so that its id cannot be reused by another tuple
_TABLES: dict = {}


def _relation_table(n: int, gens: tuple) -> tuple:
    """The generators as rows (name, source, ((coeff, a, b), ...)): term
    coeff * (word) acts by coeff * s[a] * s[b] on the flat scalar list s
    of `_lift` (f layers first, then v layers).  Compiled once per
    generator tuple, so a replaced `relation_generators` is honoured."""
    entry = _TABLES.get((n, id(gens)))
    if entry is not None:
        return entry[1]
    v0 = (n - 1) * n
    rows = []
    for gen in gens:
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
    rows = tuple(rows)
    _TABLES[(n, id(gens))] = (gens, rows)
    return rows


def _lift(r: Rep) -> tuple[list, int]:
    """The rep's scalars as integers, f layers first, with the modulus to
    test them in: p for GF(p) scalars, lifted to their values; 0 for
    rationals, each written as N / D over the common denominator D and
    lifted to N."""
    s = [x for layer in r.f_scalars + r.v_scalars for x in layer]
    if isinstance(s[0], GF):
        return [x.v for x in s], s[0].p
    d = lcm(*(x.denominator for x in s))
    return [x.numerator * (d // x.denominator) for x in s], 0


def check_relations(r: Rep) -> RelationCheck:
    """Evaluate every generator of the relation ideal (see `relations`)
    on the rep's scalars: a word acts by the product of its arrows'
    scalars, and the terms of each generator must sum to zero.  Reports
    the first generator that does not, with its source vertex.

    The sums are taken in integers.  Rational scalars are lifted to
    numerators N over their common denominator D.  Every term of every
    generator is an integer times a two-arrow word, which acts by
    (N_a / D)(N_b / D), so a generator's sum is D^-2 times the integer
    sum coeff * N_a * N_b, and it is zero exactly when that integer is.
    GF(p) scalars are lifted to their values in 0..p-1, and the integer
    sum is tested modulo p.  The scalars of one rep must therefore be all
    Fraction or int, or all GF elements of one prime."""
    vals, p = _lift(r)
    for name, source, terms in _relation_table(r.n, relation_generators(r.n)):
        total = 0
        for coeff, a, b in terms:
            total += coeff * vals[a] * vals[b]
        if (total % p) if p else total:
            return RelationCheck(False, name, source)
    return RelationCheck(True)


def generated_by(r: Rep, vertex: int) -> bool:
    """Whether the subrepresentation generated by W_vertex is everything:
    reachability from `vertex` through arrows acting by nonzero scalars."""
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


def is_simple(r: Rep) -> bool:
    """Simplicity for rank-one representations satisfying the relations:
    equivalent to being generated by the last space."""
    return generated_by(r, r.n - 1)


@dataclass(frozen=True)
class YPoint:
    """A point of the resolution: the line [alpha] and the square-zero
    matrix X = alpha beta^T of rank at most one."""

    line: tuple
    X: tuple


def _normalize_projective(vec):
    pivot = next(x for x in vec if x)
    return tuple(x / pivot for x in vec)


def to_point(r: Rep) -> YPoint:
    """The point ([alpha], X = alpha beta^T) read off W_0's arrows.  X is
    square-zero because `RepTriple` rejects a nonzero pairing, and both
    the line and X are unchanged by a rescaling of the bases."""
    t = triple_from_rep(r)
    X = tuple(tuple(a * b for b in t.beta) for a in t.alpha)
    return YPoint(line=_normalize_projective(t.alpha), X=X)


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
    `reps_isomorphic(rescale(r, c), r)` searches for, scaled to c[0] = 1."""
    n = r.n
    return Rep(
        n,
        tuple(tuple(x * c[k + 1] / c[k] for x in r.f_scalars[k]) for k in range(n - 1)),
        tuple(tuple(x * c[k] / c[k + 1] for x in r.v_scalars[k]) for k in range(n - 1)),
    )


def reps_isomorphic(r1: Rep, r2: Rep) -> bool:
    """Isomorphism = a rescaling c_k of each basis vector (c_0 = 1) that
    matches all arrow scalars: r1 == rescale(r2, c)."""
    if r1.n != r2.n:
        return False
    n = r1.n
    c = [None] * n
    c[0] = _one_like(r1.f_scalars[0][0])
    for k in range(n - 1):
        if c[k] is None:
            return False
        ratio = None
        for i in range(n):
            s1, s2 = r1.f_scalars[k][i], r2.f_scalars[k][i]
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
        c[k + 1] = ratio
    for k in range(n - 1):
        for j in range(n):
            if r1.v_scalars[k][j] * c[k + 1] != r2.v_scalars[k][j] * c[k]:
                return False
    return True


def _one_like(x):
    if isinstance(x, GF):
        return GF(x.p, 1)
    return Fraction(1)


# ---------------------------------------------------------------------------
# sampling


# samples are drawn from the integer box [-BOX, BOX]^n
BOX = 3


def random_triple(n: int, rng: Random, field=Fraction) -> RepTriple:
    """Draw alpha != 0 uniformly from the integer box [-BOX, BOX]^n, then
    beta by rejection from the integer solutions of the pairing equation
    in the same box."""
    while True:
        alpha = tuple(rng.randint(-BOX, BOX) for _ in range(n))
        if any(alpha):
            break
    while True:
        beta = tuple(rng.randint(-BOX, BOX) for _ in range(n))
        if sum(a * b for a, b in zip(alpha, beta)) == 0:
            break
    return RepTriple(n, tuple(field(a) for a in alpha), tuple(field(b) for b in beta))


@dataclass(frozen=True)
class BatteryReport:
    n: int
    samples: int
    passed: bool
    failures: tuple


def run_battery(n: int, samples: int, seed: int) -> BatteryReport:
    """Seeded property battery.  Each sampled triple's rep is written in a
    random basis c = (1, c_1, ..., c_{n-1}), c_k drawn from 1..BOX, so its
    layers differ; then the relations hold, simplicity <=> beta != 0 <=>
    rank X = 1, the point ([alpha], alpha beta^T) does not depend on the
    basis, and the round trip through (alpha, beta) gives the rep back up
    to isomorphism."""
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
        if pt.X != X or pt.line != _normalize_projective(t.alpha):
            failures.append((s, "point"))
            continue
        if not reps_isomorphic(rep_from_triple(triple_from_rep(r)), r):
            failures.append((s, "round-trip"))
    return BatteryReport(n, samples, not failures, tuple(failures[:5]))
