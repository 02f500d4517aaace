"""Cohomology of homogeneous vector bundles on P(V) = P^{n-1}.

Conventions
-----------
P(V) is the space of lines in an n-dimensional space V, so sections of
O(1) form the n-dimensional space V*.  An irreducible homogeneous bundle
is encoded as a :class:`LeviWeight` ``(first; rest)`` for the Levi
GL_1 x GL_{n-1} of the parabolic stabilizing a line, and every bundle
constructor returns a :class:`BundleExpr`, a formal sum of such weights:

- ``line_bundle(n, t)``  is the one weight ``(t; 0, ..., 0)``;
- the rank n-1 bundle W with Lambda^p W = Omega^p(p) is ``(0; 1, 0, ..., 0)``,
  and ``rest`` is the highest weight of a Schur functor of W;
- adding a constant to all n entries (``first`` and ``rest`` together) is a
  determinant twist of V and does not change the bundle; weights are
  normalized so that ``rest`` ends in 0.

Cohomology is Bott's theorem in product form.  Add rho = (n-1, ..., 0)
to (first; rest): the entries r_j = rest_j + n-2-j (j < n-1) strictly
decrease and do not involve `first`; put v0 = first + n-1.  The weight
is singular iff v0 is some r_j; otherwise its cohomology has degree
#{j : r_j > v0} and dimension rank * prod_j |v0 - r_j| / (n-1)!, where
rank = weyl_dim(n-1, rest).  Proof: Bott's theorem gives nothing if
v = w + rho repeats an entry, else the Weyl dimension of (v sorted) - rho
in the degree counting v's inversions.  The r_j are distinct and in
order, so only v0 can repeat one, and the inversions are the r_j > v0.
Weyl's product is prod |v_a - v_b| over all pairs over prod_{k<n} k!;
the pairs without v0 give rank * prod_{k<n-1} k!.  So one record per
(n, rest) serves every twist E(t), which moves only v0, and
`cohomology(e, t)` reads H^*(E(t)) without building E(t).

A BundleExpr's terms are normalized, distinct and nonzero.  Operations
build terms that already are (a twist moves `first` alone; the dual is
an involution on normalized weights) and skip the constructor's pass.
A tensor reads LR once per (n, rest1, rest2) and twists by first1 +
first2: LR sees only the rests, and normalizing commutes with a twist.

The classical closed form for Omega^p(t) is implemented separately as
an independent oracle, and the orientation of every convention is
pinned by anchor identities in the test suite (H^0(O(1)) has dimension
n, the top exterior power of the cotangent bundle is O(-n), and the
wedge powers of T(-1) match complementary twisted cotangent powers).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial

from .combinat import lr_product, normalize_partition, weyl_dim


class LeviWeight(namedtuple("LeviWeight", "n first rest")):
    """Irreducible homogeneous bundle on P^{n-1}: GL_1 weight `first`,
    weakly decreasing GL_{n-1} weight `rest` (length n-1).

    A tuple type, so building, hashing and comparing weights run in C;
    the hash is that of the plain tuple (n, first, rest)."""

    __slots__ = ()

    def __new__(cls, n: int, first: int, rest: tuple[int, ...]):
        if n < 2:
            raise ValueError("n must be at least 2")
        if len(rest) != n - 1:
            raise ValueError(f"rest must have length {n - 1}, got {rest}")
        for i in range(len(rest) - 1):
            if rest[i] < rest[i + 1]:
                raise ValueError(f"rest not weakly decreasing: {rest}")
        return tuple.__new__(cls, (n, first, rest))

    # a shift, dual or twist of a valid weight is valid: none re-validates
    def normalized(self) -> "LeviWeight":
        n, first, rest = self
        c = rest[-1]
        if c == 0:
            return self
        return tuple.__new__(LeviWeight, (n, first - c, tuple(r - c for r in rest)))

    def dual(self) -> "LeviWeight":
        n, first, rest = self  # (-first; -rest reversed), normalized
        c = rest[0]
        return tuple.__new__(LeviWeight, (n, c - first, tuple(c - r for r in reversed(rest))))

    def twist(self, t: int) -> "LeviWeight":
        n, first, rest = self
        return tuple.__new__(LeviWeight, (n, first + t, rest))


class BundleExpr:
    """Formal Z-linear combination of irreducible homogeneous bundles,
    all on the same P^{n-1}.  Supports +, -, integer scaling, tensor
    product (via Littlewood-Richardson), dual and twisting."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms=None):
        merged: dict[LeviWeight, int] = {}
        for w, c in dict(terms or {}).items():
            if w.n != n:
                raise ValueError("mixed projective spaces in one expression")
            w = w.normalized()
            merged[w] = merged.get(w, 0) + c
        self.n, self.terms, self._hash = n, {w: c for w, c in merged.items() if c}, None

    @classmethod
    def _made(cls, n: int, terms: dict) -> "BundleExpr":
        """The expression of terms that are normalized, distinct and nonzero."""
        out = object.__new__(cls)
        out.n, out.terms, out._hash = n, terms, None
        return out

    @classmethod
    def of(cls, w: LeviWeight) -> "BundleExpr":
        return cls._made(w.n, {w.normalized(): 1})

    def __add__(self, other: "BundleExpr") -> "BundleExpr":
        if other.n != self.n:
            raise ValueError("mixed projective spaces in one expression")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return BundleExpr._made(self.n, {w: c for w, c in out.items() if c})

    def __sub__(self, other: "BundleExpr") -> "BundleExpr":
        return self + other.scale(-1)

    def scale(self, c: int) -> "BundleExpr":
        return BundleExpr._made(self.n, {w: c * v for w, v in self.terms.items()} if c else {})

    def twist(self, t: int) -> "BundleExpr":
        return BundleExpr._made(self.n, {w.twist(t): c for w, c in self.terms.items()})

    def dual(self) -> "BundleExpr":
        return BundleExpr._made(self.n, {w.dual(): c for w, c in self.terms.items()})

    def tensor(self, other: "BundleExpr") -> "BundleExpr":
        if other.n != self.n:
            raise ValueError("mixed projective spaces in one expression")
        out: dict[LeviWeight, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                first = w1.first + w2.first
                for w, m in _tensor_weights(self.n, w1.rest, w2.rest):
                    w = w.twist(first)
                    out[w] = out.get(w, 0) + c1 * c2 * m
        return BundleExpr._made(self.n, {w: c for w, c in out.items() if c})

    def __eq__(self, other) -> bool:
        return isinstance(other, BundleExpr) and self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        """Memos key on the bundle itself.  Sound because no method
        mutates a BundleExpr: every method returns a new one, so `terms`
        never changes once built; the hash is computed on the first call."""
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "BundleExpr(0)"
        bits = [f"{c}*({w.first};{w.rest})" for w, c in sorted(self.terms.items())]
        return "BundleExpr(" + " + ".join(bits) + ")"


@lru_cache(maxsize=None)
def _tensor_weights(n: int, rest1: tuple[int, ...], rest2: tuple[int, ...]):
    """((weight, multiplicity), ...) of (0; rest1) (x) (0; rest2), by LR;
    `tensor` twists them by first1 + first2."""
    return tuple((LeviWeight(n, 0, nu + (0,) * (n - 1 - len(nu))).normalized(), c)
                 for nu, c in lr_product(rest1, rest2, max_rows=n - 1).items())


def line_bundle(n: int, t: int) -> BundleExpr:
    """O(t) on P^{n-1}."""
    return BundleExpr.of(LeviWeight(n, t, (0,) * (n - 1)))


def schur_of_omega1(n: int, lam, t: int = 0) -> BundleExpr:
    """S_lam(W) (x) O(t), where W is the rank n-1 bundle with
    Lambda^p W = Omega^p(p)."""
    lam = normalize_partition(lam)
    if len(lam) > n - 1:
        raise ValueError(f"{lam} has more than {n - 1} rows")
    return BundleExpr.of(LeviWeight(n, t, tuple(lam) + (0,) * (n - 1 - len(lam))))


def omega(n: int, p: int, t: int) -> BundleExpr:
    """Omega^p(t), the p-th cotangent power twisted by O(t)."""
    if not 0 <= p <= n - 1:
        raise ValueError(f"p={p} out of range [0, {n - 1}]")
    return schur_of_omega1(n, (1,) * p, t - p)


def wedge_tangent(n: int, p: int, t: int) -> BundleExpr:
    """(Lambda^p T)(t), the p-th tangent power twisted by O(t)."""
    if not 0 <= p <= n - 1:
        raise ValueError(f"p={p} out of range [0, {n - 1}]")
    # Lambda^p of W* twisted by O(p + t)
    rest = (0,) * (n - 1 - p) + (-1,) * p
    return BundleExpr.of(LeviWeight(n, p + t, rest))


@lru_cache(maxsize=None)
def _rest_record(n: int, rest: tuple[int, ...]):
    """What every twist of the weights (first; rest) shares: the entries
    r_j of rest + rho, the rank of the bundle and (n-1)!."""
    return (tuple(x + n - 2 - j for j, x in enumerate(rest)),
            weyl_dim(n - 1, rest), factorial(n - 1))


@lru_cache(maxsize=None)
def _bwb_single(n: int, first: int, rest: tuple[int, ...]):
    """Cohomology of one irreducible weight: None if singular, else
    (degree, dimension), by the product form of the module docstring."""
    r, dim, den = _rest_record(n, rest)
    v0 = first + n - 1
    degree = 0
    for x in r:
        if x > v0:
            degree += 1
            dim *= x - v0
        elif x < v0:
            dim *= v0 - x
        else:
            return None
    return degree, dim // den


def cohomology(e: BundleExpr, t: int = 0) -> dict[int, int]:
    """Cohomology table {degree: dimension} of E(t) for the bundle
    expression E; the twist moves only `first`, so E(t) is not built.

    Dimensions can be negative for virtual inputs; zero entries are
    omitted.
    """
    if len(e.terms) == 1:
        ((w, c),) = e.terms.items()
        res = _bwb_single(w.n, w.first + t, w.rest)
        return {res[0]: c * res[1]} if res else {}
    table: dict[int, int] = {}
    for w, c in e.terms.items():
        res = _bwb_single(w.n, w.first + t, w.rest)
        if res is None:
            continue
        deg, dim = res
        table[deg] = table.get(deg, 0) + c * dim
    return {d: v for d, v in sorted(table.items()) if v}


def bott_closed_form(n: int, p: int, t: int) -> dict[int, int]:
    """Classical closed form for H^*(P^{n'}, Omega^p(t)), n' = n-1.

    Independent oracle for :func:`cohomology`; computed directly from
    binomials, not through Bott's theorem or its product form.
    """
    if not 0 <= p <= n - 1:
        raise ValueError(f"p={p} out of range [0, {n - 1}]")
    np_ = n - 1
    table: dict[int, int] = {}
    if t > p:
        d = comb(t + np_ - p, t) * comb(t - 1, p)
        if d:
            table[0] = d
    elif t == 0:
        table[p] = 1
    elif t < p - np_:
        d = comb(-t + p, -t) * comb(-t - 1, np_ - p)
        if d:
            table[np_] = d
    return table


def euler_characteristic(e: BundleExpr) -> int:
    """Alternating sum of the cohomology table."""
    return sum((-1) ** d * v for d, v in cohomology(e).items())


def serre_dual(e: BundleExpr) -> BundleExpr:
    """E^v (x) O(-n); its cohomology mirrors that of E in degree
    q <-> n-1-q."""
    return e.dual().twist(-e.n)


def hom_bundle(a: int, b: int, c: int, n: int) -> BundleExpr:
    """The sheaf-Hom bundle Hom(Omega^{b-1}(b), Omega^{a-1}(a)) (x) O(-c).

    The dual is expanded through the duality chain
    (Omega^{q}(q+1))^v = Omega^{n-q-1}(n-q-1), so the result is the
    Littlewood-Richardson product Omega^{n-b}(n-b) . Omega^{a-1}(a)
    twisted by O(-c); all coefficients are nonnegative.
    """
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"a={a}, b={b} out of range [1, {n}]")
    return _hom_product(a, b, n).twist(-c)


@lru_cache(maxsize=None)
def _hom_product(a: int, b: int, n: int) -> BundleExpr:
    # the c-independent part of `hom_bundle`, formed once per (a, b, n)
    return omega(n, n - b, n - b).tensor(omega(n, a - 1, a))


VANISHES = "vanishes"


def blv_classify(a: int, b: int, c: int, d: int, n: int) -> str:
    """Necessary condition for H^d(P(V), Hom(Omega^{b-1}(b),
    Omega^{a-1}(a))(-c)) to be nonzero, split into four cases by the sign
    of d - c.  Returns the admitting case name or ``"vanishes"``.

    The classification is sound (never reports ``vanishes`` on a nonzero
    group) but not sharp; the exhaustive comparison against computed
    cohomology lives in the test suite.
    """
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"a={a}, b={b} out of range [1, {n}]")
    if not 0 <= d <= n - 1:
        raise ValueError(f"d={d} out of range [0, {n - 1}]")
    if d - c > 0:
        return "case1" if (d == 0 and c < 0) else VANISHES
    if d - c == 0:
        lo, hi = max(a, b), min(n, a + b - 1)
        return "case2" if lo <= c + b <= hi else VANISHES
    if d - c == -1:
        lo, hi = max(0, n - a - b - 1), min(n - b, n - a)
        return "case3" if lo <= c - a <= hi else VANISHES
    return "case4" if (d == n - 1 and c > n) else VANISHES
