"""Graded Hom/Ext bookkeeping on the two total spaces over P^{n-1}.

Z is the total space of V* (x) O(-1) and Y, the total space of the
cotangent bundle, is cut out of Z by one equation: the trace section t,
which multiplies the fiber degree by one.  Graded Homs on Z are

    Hom_Z(O(a), O(b)) = sum_k  Sym^k V (x) Sym^{k + b - a} V*,

and graded Homs on Y are the cokernel of multiplication by t on the
Z-side pieces.  Sym V (x) Sym V* is a polynomial ring and t != 0, so
multiplication by t is injective and each corank is a difference of
two products of binomials (`sym_pair_corank`); `TraceMultMatrix`, the
explicit matrix on monomial bases, is kept as the reference the tests
check that closed form against.  When b < a the grading is reindexed to
start at the first nonzero piece, Sym^{a-b} V (x) Sym^0 V*.

The module of sections of O_Y(a) is a graded module over the coordinate
ring R of the cone of square-zero rank-one matrices; its Hilbert
function (`hilbert_M`) is the universal currency for all downstream
equality checks.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product as iproduct
from math import comb

from . import bwb
from .combinat import dim_sym


class HilbertSeries(namedtuple("HilbertSeries", "n values")):
    """The exact Hilbert function of a graded module over the cone of
    n x n matrices: a polynomial of degree at most 2n-3 in the degree k
    from k = 0 on, kept as its values at k = 0..2n-3.

    Why every series of the package is one.  dim Sym^p = C(p+n-1, n-1)
    is a polynomial of degree n-1 in p for p >= -(n-1), and 0 at
    p = -1.  `hom_y_graded` reads `sym_pair_corank` = dim Sym^p *
    dim Sym^q - dim Sym^{p-1} * dim Sym^{q-1} with p - q fixed and
    p, q >= k, so it is a difference of two polynomials of degree 2n-2
    in k with the same leading term.  A piece of `pushforward_graded`
    is f(m) - f(m-1) for f(m) = dim Sym^m * h^0(E(m)).  Once E(m) has
    no higher cohomology for every m >= 0, h^0(E(m)) = chi(E(m)), a
    polynomial of degree <= n-1 in m (Weyl's dimension formula), so f
    has degree <= 2n-2 and f(m) - f(m-1) degree <= 2n-3; at m = 0 the
    polynomial dim Sym^{-1} is 0, as the piece's second term is.  That
    vanishing is the premise, and `pushforward_graded` checks it.  A
    series read from degree s on is again such a polynomial.  So the
    2n-2 kept values decide the series in every degree.

    The constructor takes the values at degrees 0..2n-2, one more than
    it keeps, and refuses them unless their (2n-2)-th difference is 0.
    `series[k]` reads any degree: 0 below degree 0, and past the kept
    values by Newton's forward differences, in integers.  Two series are
    equal when they agree in every degree, that is, on the kept values.
    """

    __slots__ = ()

    def __new__(cls, n: int, values: tuple[int, ...]):
        if n < 2:
            raise ValueError(f"n={n} out of range: must be at least 2")
        e = 2 * n - 2
        if len(values) != e + 1:
            raise ValueError(f"a series on P^{n - 1} takes the values at degrees "
                             f"0..{e}, got {len(values)}")
        diff = sum((-1) ** (e - j) * comb(e, j) * v for j, v in enumerate(values))
        if diff:
            raise ValueError(f"not a polynomial of degree <= {e - 1}: the {e}-th "
                             f"difference of {tuple(values)} is {diff}")
        return tuple.__new__(cls, (n, tuple(values[:e])))

    def __getitem__(self, k: int) -> int:
        if k < 0:
            return 0
        values = self.values
        if k < len(values):
            return values[k]
        # f(k) = sum_j C(k, j) * (the j-th difference of f at 0)
        total, diffs = 0, values
        for j in range(len(values)):
            total += comb(k, j) * diffs[0]
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        return total

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes one value
        # more than the series keeps
        return self.n, tuple(self[k] for k in range(2 * self.n - 1))

    def shifted_down(self, s: int) -> "HilbertSeries":
        """The series whose degree k is this one's degree k + s, s >= 0."""
        return HilbertSeries(self.n, tuple(self[s + k] for k in range(2 * self.n - 1)))


@lru_cache(maxsize=None)
def monomials(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the monomial basis of Sym^k(C^n), lex order."""
    if k < 0:
        return ()
    if n == 1:
        return ((k,),)
    out = []
    for first in range(k, -1, -1):
        for tail in monomials(n - 1, k - first):
            out.append((first,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_index(n: int, k: int) -> dict:
    return {m: i for i, m in enumerate(monomials(n, k))}


def _bump(e: tuple[int, ...], i: int) -> tuple[int, ...]:
    return e[:i] + (e[i] + 1,) + e[i + 1 :]


class TraceMultMatrix(namedtuple("TraceMultMatrix", "n k a")):
    """Multiplication by t = sum_i v_i (x) f_i from
    Sym^k V (x) Sym^{k+a} V* to Sym^{k+1} V (x) Sym^{k+a+1} V*.

    Columns are indexed by source monomial pairs, rows by target pairs;
    every entry is 0 or 1 and each column has exactly n ones.  This is
    the explicit-matrix reference for the closed form of
    `sym_pair_corank`; no product path builds it.
    """

    __slots__ = ()

    @property
    def ncols(self) -> int:
        return dim_sym(self.n, self.k) * dim_sym(self.n, self.k + self.a)

    @property
    def nrows(self) -> int:
        return dim_sym(self.n, self.k + 1) * dim_sym(self.n, self.k + self.a + 1)

    def columns(self) -> list[list[int]]:
        """Row indices of the ones in each column."""
        n, k, a = self.n, self.k, self.a
        if k < 0 or k + a < 0:
            return []
        src_v = monomials(n, k)
        src_f = monomials(n, k + a)
        tgt_v = _monomial_index(n, k + 1)
        tgt_f = _monomial_index(n, k + a + 1)
        nf = dim_sym(n, k + a + 1)
        cols = []
        for ev, ef in iproduct(src_v, src_f):
            col = [
                tgt_v[_bump(ev, i)] * nf + tgt_f[_bump(ef, i)]
                for i in range(n)
            ]
            cols.append(col)
        return cols

    def full_column_rank_certificate(self) -> bool:
        """Verify a triangularity certificate of full column rank.

        Pair each source monomial with its image term for i = n-1
        (largest index); among all sources hitting that target, the
        paired one is lexicographically maximal, so after sorting the
        matrix is triangular with unit diagonal and the rational rank
        equals the number of columns.
        """
        n, k, a = self.n, self.k, self.a
        src_v = monomials(n, k)
        src_f = monomials(n, k + a)
        matched = {}
        for ev, ef in iproduct(src_v, src_f):
            tgt = (_bump(ev, n - 1), _bump(ef, n - 1))
            if tgt in matched:
                return False
            matched[tgt] = ev + ef
        for (gv, gf), src_key in matched.items():
            for i in range(n):
                if gv[i] >= 1 and gf[i] >= 1 and i != n - 1:
                    other = (
                        gv[:i] + (gv[i] - 1,) + gv[i + 1 :]
                        + gf[:i] + (gf[i] - 1,) + gf[i + 1 :]
                    )
                    if other > src_key:
                        return False
        return True


@lru_cache(maxsize=None)
def sym_pair_corank(n: int, p: int, q: int) -> int:
    """dim of Sym^p V (x) Sym^q V* modulo the image of multiplication by
    t from Sym^{p-1} V (x) Sym^{q-1} V*.

    Sym V (x) Sym V* is a polynomial ring, hence an integral domain, and
    t != 0, so multiplication by t is injective and the corank is the
    difference of the two dimensions (dim_sym is 0 in negative degree).
    """
    return dim_sym(n, p) * dim_sym(n, q) - dim_sym(n, p - 1) * dim_sym(n, q - 1)


def hom_y_graded(a: int, b: int, n: int) -> HilbertSeries:
    """Graded dimensions of Hom_Y(O(a), O(b)) via trace coranks.

    Requires b - a >= -n+1, the range in which pushforward to the cone
    has no higher cohomology and the corank computation is the whole
    answer.
    """
    if b - a < -n + 1:
        raise ValueError(
            f"b - a = {b - a} below the validated range (need >= {-n + 1})"
        )
    d = b - a
    dims = tuple(
        sym_pair_corank(n, k + max(0, -d), k + max(0, d)) for k in range(2 * n - 1)
    )
    return HilbertSeries(n, dims)


def hilbert_M(a: int, n: int) -> HilbertSeries:
    """Hilbert function of the module of sections of O_Y(a)."""
    if not -n + 1 <= a <= n - 1:
        raise ValueError(f"a={a} out of range [{-n + 1}, {n - 1}]")
    return hom_y_graded(0, a, n)


def _dominance_bound(e: bwb.BundleExpr) -> int:
    """The least m >= 0 from which every term of E(m) has a dominant
    weight, so that, by Bott's theorem, E(m) has cohomology in degree 0
    only."""
    return max([0] + [w.rest[0] - w.first for w in e.terms])


def pushforward_graded(expr: bwb.BundleExpr) -> HilbertSeries:
    """Fiber-degree Hilbert function of the pushforward to the cone of
    the pullback of a bundle E on P^{n-1}:

        piece_m = dim Sym^m (x) h^0(E(m)) - dim Sym^{m-1} (x) h^0(E(m-1)).

    Valid when E(m) has no higher cohomology for all m >= 0 (multiplication
    by the trace section is then injective on sections).  The vanishing
    is checked for every m below the dominance bound, and Bott's theorem
    gives it from the bound on; it is the premise of `HilbertSeries`.
    """
    n = expr.n
    h0 = []
    for m in range(max(2 * n - 1, _dominance_bound(expr))):
        table = bwb.cohomology(expr, m)
        higher = {d: v for d, v in table.items() if d > 0}
        if higher:
            raise ValueError(
                f"higher cohomology {higher} at twist {m}; pushforward grading invalid"
            )
        h0.append(table.get(0, 0))
    dims = []
    for m in range(2 * n - 1):
        val = dim_sym(n, m) * h0[m] - (dim_sym(n, m - 1) * h0[m - 1] if m else 0)
        if val < 0:
            raise ValueError("negative graded piece; invalid input bundle")
        dims.append(val)
    return HilbertSeries(n, tuple(dims))


# ---------------------------------------------------------------------------
# tilting verification


class TiltingFamily(namedtuple("TiltingFamily", "name n k")):
    """One of the verified bundle families on Y (or its mirror on the
    other resolution): Tk / TkPlus are windows of line bundles, TPrime
    the twisted cotangent powers, Sk / SkDual the mixed family."""

    __slots__ = ()

    def __new__(cls, name: str, n: int, k: int = 0):
        if name not in ("Tk", "TkPlus", "TPrime", "Sk", "SkDual"):
            raise ValueError(f"unknown family {name}")
        if name in ("Sk", "SkDual") and not 0 <= k <= n - 1:
            raise ValueError(f"k={k} out of range [0, {n - 1}]")
        if name == "TPrime" and k != 0:
            raise ValueError(f"k={k} out of range [0, 0]: TPrime has no k")
        return tuple.__new__(cls, (name, n, k))


def family_summands(fam: TiltingFamily) -> list[bwb.BundleExpr]:
    n, k = fam.n, fam.k
    if fam.name in ("Tk", "TkPlus"):
        # the mirror family has the same pairwise twist differences
        return [bwb.line_bundle(n, a) for a in range(-n + k + 1, k + 1)]
    if fam.name == "TPrime":
        return [bwb.omega(n, a - 1, a) for a in range(1, n + 1)]
    summands = [bwb.line_bundle(n, a) for a in range(-n + 2, 1)]
    summands.append(bwb.omega(n, k, 1))
    if fam.name == "SkDual":
        summands = [s.dual() for s in summands]
    return summands


class TiltingReport(namedtuple("TiltingReport", "family n k passed witness "
                                             "stabilization_bound pairs_checked")):
    """witness is the first failing (i, j, deg, m), or None."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "pass": self.passed,
            "witness": list(self.witness) if self.witness else None,
            "stabilization_bound": self.stabilization_bound,
        }


@lru_cache(maxsize=None)
def _pair_bundle(si: bwb.BundleExpr, sj: bwb.BundleExpr) -> bwb.BundleExpr:
    """S_i^v (x) S_j."""
    return si.dual().tensor(sj)


@lru_cache(maxsize=None)
def _first_higher(e: bwb.BundleExpr, bound: int) -> tuple | None:
    """The first (deg, m), m = 0..bound, with H^deg(E(m)) != 0 and deg > 0,
    or None."""
    for m in range(bound + 1):
        for deg, v in bwb.cohomology(e, m).items():
            if deg > 0 and v != 0:
                return deg, m
    return None


def tilting_check(fam: TiltingFamily) -> TiltingReport:
    """Verify Ext^{>0}-vanishing for the family on the total space.

    For every ordered pair of summands (S_i, S_j) the bundle
    E = S_i^v (x) S_j must satisfy H^{>0}(P^{n-1}, E(m)) = 0 for all
    m >= 0; higher cohomology on the total space is then zero.  Only
    finitely many m need checking: once m exceeds the dominance deficit
    of every irreducible constituent, every weight is dominant and has
    cohomology in degree 0 only.  The deficit is doubled and recorded as
    the stabilization bound.

    The pairs are walked in order, but each distinct pair bundle is
    built and scanned once per process: the memos key on the summand
    bundles and on (the pair bundle, bound), on which alone the results
    depend, and families share pair bundles (SkDual's pair (i, j) is
    Sk's pair (j, i); line-bundle pairs recur across families and k).
    Pairs whose summands differ only by twists share one LR read per
    rest pair in `bwb`.
    A test that sabotages `bwb` must call `cache_clear` on
    `_pair_bundle` and `_first_higher` first, or the memo answers for it.
    """
    summands = family_summands(fam)
    pairs = [_pair_bundle(si, sj) for si in summands for sj in summands]
    bound = 2 * max(_dominance_bound(e) for e in pairs)
    witness = None
    for idx, e in enumerate(pairs):
        hit = _first_higher(e, bound)
        if hit:
            witness = divmod(idx, len(summands)) + hit
            break
    return TiltingReport(
        family=fam.name,
        n=fam.n,
        k=fam.k,
        passed=witness is None,
        witness=witness,
        stabilization_bound=bound,
        pairs_checked=len(pairs),
    )
