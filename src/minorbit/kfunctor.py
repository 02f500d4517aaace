"""K-lattice calculus for the flop between the two cotangent-bundle
resolutions, and an Ext-dimension ledger.

The K-group of either resolution is the ring Z[u, u^-1]/(u-1)^n with
u = [O(1)], free of rank n on the window basis [O(0)], ..., [O(n-1)].
Both classes it needs are closed forms in that ring: the window
coordinates of [O(a)] are the Lagrange basis polynomials on the nodes
0..n-1, evaluated at a (:func:`_reduce_coeffs`), and the class of the
zero-section pushforward j_* O_P(b), expanded by the Koszul resolution
of the zero section, is one binomial sum of line-bundle classes
(:func:`kclass_jp`).

Every flop functor sends [O(a)] -> [O(-a)] for the a in its width-n
window, and on the K-lattice that rule holds for every a: all the flop
functors act by one matrix, the involution of :func:`kn_matrix`.  For
the functor KN_0 built from the correspondence, the rule comes down to
its correction terms cancelling (:func:`kn0_image_table`).  The matrix,
those corrections and the Ext-dimension profiles between the ledger
objects are the falsifiable shadows through which all functor-level
statements are checked.  Ext profiles for the cone objects F and C(h)
are assembled from their defining triangles, with connecting maps taken
of maximal rank only where the relevant spaces are 0- or 1-dimensional;
anything more ambiguous raises.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial, prod

from . import bwb

ExtProfile = dict


# ---------------------------------------------------------------------------
# window reduction and classes


class KClass(namedtuple("KClass", "n side coords")):
    """A K-class on side "Y" or "Yplus", by its n window coordinates;
    + adds classes."""

    __slots__ = ()

    def __new__(cls, n: int, side: str, coords: tuple[int, ...]):
        if side not in ("Y", "Yplus"):
            raise ValueError(f"side must be Y or Yplus, got {side}")
        if len(coords) != n:
            raise ValueError("coords must have length n")
        return tuple.__new__(cls, (n, side, coords))

    def __add__(self, other: "KClass") -> "KClass":
        self._compat(other)
        return KClass(self.n, self.side, tuple(
            a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: int) -> "KClass":
        return KClass(self.n, self.side, tuple(c * a for a in self.coords))

    def _compat(self, other: "KClass") -> None:
        if self.n != other.n or self.side != other.side:
            raise ValueError("incompatible K-classes")


@lru_cache(maxsize=None)
def _reduce_coeffs(a: int, n: int) -> tuple[int, ...]:
    """Coordinates of [O(a)] in the window basis [O(0)], ..., [O(n-1)].

    Put e = u - 1 with u = [O(1)].  The Koszul relation
    sum_i (-1)^i C(n,i) [O(a-i)] = 0 says e^n = 0, so for every integer
    a, [O(a)] = (1+e)^a = sum_{k<n} C(a,k) e^k: each window coordinate
    of [O(a)] is a polynomial in a of degree < n.  On the nodes
    a = 0..n-1 the coordinates are the unit vectors, so coordinate j is
    the Lagrange basis polynomial prod_{i != j} (a - i)/(j - i), an exact
    integer division equal to (-1)^(n-1-j) C(a,j) C(a-j-1, n-1-j).
    """
    out = []
    for j in range(n):
        num = prod(a - i for i in range(n) if i != j)
        den = (-1) ** (n - 1 - j) * factorial(j) * factorial(n - 1 - j)
        out.append(num // den)
    return tuple(out)


def reduce_line(a: int, n: int) -> KClass:
    """[O(a)] on Y, in the window basis."""
    return KClass(n, "Y", _reduce_coeffs(a, n))


def zero_class(n: int) -> KClass:
    return KClass(n, "Y", (0,) * n)


@lru_cache(maxsize=None)
def kclass_jp(b: int, n: int) -> KClass:
    """[j_* O_P(b)], reduced to the window.

    The Koszul resolution of the zero section gives
    [j_* O_P(b)] = sum_{p<n} (-1)^p [Lambda^p T (x) O(b)], and the Euler
    sequence gives [Lambda^p T] = sum_{i<=p} (-1)^(p-i) C(n,i) [O(i)].
    The class [O(b+i)] then appears for every p in i..n-1 with sign
    (-1)^i, so [j_* O_P(b)] = sum_{i<n} (-1)^i (n-i) C(n,i) [O(b+i)].
    """
    total = zero_class(n)
    for i in range(n):
        total = total + reduce_line(b + i, n).scale(
            (-1) ** i * (n - i) * comb(n, i))
    return total


def kclass_jpdual(b: int, n: int) -> KClass:
    """[j'_* O_{P^v}(b)] on the other side; the mirror computation gives
    the same coordinates over the mirrored window."""
    return KClass(n, "Yplus", kclass_jp(b, n).coords)


# ---------------------------------------------------------------------------
# matrices


def matmul(A, B) -> list[list[int]]:
    rn, inner, cn = len(A), len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cn)]
        for i in range(rn)
    ]


def twist_matrix(n: int, s: int) -> list[list[int]]:
    """Matrix of (x) O(s) on the window basis (columns = images)."""
    cols = [_reduce_coeffs(j + s, n) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def kn_matrix(n: int) -> list[list[int]]:
    """Matrix on window bases of the flop equivalences: column j is
    [O(-j)] reduced into the window.

    Write K = Z[h, h^-1]/(1-h)^n with h = [O(-1)], so [O(a)] = h^-a and
    the Koszul relation is [O(a)] (1-h)^n = 0.  The substitution
    sigma: h -> h^-1 is a ring automorphism of K, because
    (1-h^-1)^n = (-h^-1)^n (1-h)^n generates the same ideal.  Hence
    sigma [O(a)] = [O(-a)] for every a: the rule [O(a)] -> [O(-a)] on
    any width-n window (a basis of K) extends to sigma, so every flop
    functor, from either side to the other, has this matrix, and it
    squares to the identity.
    """
    cols = [_reduce_coeffs(-j, n) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# ledger objects


class _Ledger(tuple):
    """A ledger object equals and hashes with its own type only: as plain
    tuples OY(1) would equal JP(1), and FSheaf() would equal ConeH()."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self).__name__, *self))


class OY(_Ledger, namedtuple("OY", "a")):
    __slots__ = ()


class JP(_Ledger, namedtuple("JP", "b")):
    """j_* O_P(b): the zero section pushforward."""

    __slots__ = ()


class FSheaf(_Ledger, namedtuple("FSheaf", "")):
    """The sheaf F = (flop-back of O(1)) sitting in
    0 -> j_*O_P(-1) -> F -> O_Y(-1) -> j_*O_P(-1) -> 0."""

    __slots__ = ()


class ConeH(_Ledger, namedtuple("ConeH", "")):
    """C(h), the cone of the degree-2 generator
    h : j_*O_P(-1)[-2] -> j_*O_P(-1)."""

    __slots__ = ()


F = FSheaf()
Ch = ConeH()


class AmbiguousConnectingMap(ValueError):
    """Raised when a triangle assembly would need a connecting-map rank
    that is not forced by 0/1-dimensional Hom spaces."""


def _shift(profile: ExtProfile, s: int) -> ExtProfile:
    """Profile of X[s]: Ext^k(A, X[s]) = Ext^{k+s}(A, X)."""
    return {k - s: v for k, v in profile.items()}


def _cone_profile(x: ExtProfile, y: ExtProfile) -> ExtProfile:
    """Profile of RHom(A, Cone(X -> Y)) from the profiles of X and Y,
    assuming every induced map Ext^k(A,X) -> Ext^k(A,Y) has maximal
    rank: degree k holds its cokernel and the kernel in degree k + 1.
    Sound only when each overlapping pair of dimensions is 0 or 1;
    larger overlaps raise."""
    rank = {k: min(x[k], y[k]) for k in x.keys() & y.keys()}
    for k, r in sorted(rank.items()):
        if r and max(x[k], y[k]) > 1:
            raise AmbiguousConnectingMap(f"degree {k}: dims {x[k]} -> {y[k]} not forced")
    out: dict[int, int] = {}
    for k in sorted(x.keys() | y.keys() | {d - 1 for d in x}):
        v = y.get(k, 0) - rank.get(k, 0) + x.get(k + 1, 0) - rank.get(k + 1, 0)
        if v:
            out[k] = v
    return out


def _p_coh(n: int, t: int) -> ExtProfile:
    return bwb.cohomology(bwb.line_bundle(n, 0), t)


def _profile_jp_oy(c: int, b: int, n: int) -> ExtProfile:
    """Ext^*(j_*O_P(c), O_Y(b)) = H^*(P, O(b - c - n)) [shift n-1].

    The c = -1 instances and the duality symmetry against the opposite
    order pin this formula; see the ledger tests.
    """
    coh = _p_coh(n, b - c - n)
    return {k + (n - 1): v for k, v in coh.items()}


def _profile_oy_jp(a: int, b: int, n: int) -> ExtProfile:
    """Ext^*(O_Y(a), j_*O_P(b)) = H^*(P, O(b-a)) by adjunction."""
    return dict(_p_coh(n, b - a))


def _profile_jp_jp(b: int, c: int, n: int) -> ExtProfile:
    """Ext^*(j_*O_P(b), j_*O_P(c)) = sum_q H^{*-q}(P, Omega^q(c-b)).

    For b != c this rests on the collapse of the local-to-global
    sequence, and only the Euler characteristic of such a profile is
    cross-checked (criterion 5, against `chi_jp_class`); the equal-twist
    case needs none, as the contributions sit in distinct total degrees."""
    return dict(_omega_profile(c - b, n))


@lru_cache(maxsize=None)
def _omega_profile(t: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (degree, dim) items of sum_q H^{*-q}(P, Omega^q(t)), degree
    ascending, read as the twists by t of the n bundles Omega^q; cached,
    as each (t, n) reads n tables.  The bundles depend on n alone, so
    they are built once per n (`_omegas`)."""
    out: dict[int, int] = {}
    for q, e in enumerate(_omegas(n)):
        for p, v in bwb.cohomology(e, t).items():
            out[p + q] = out.get(p + q, 0) + v
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _omegas(n: int) -> tuple[bwb.BundleExpr, ...]:
    """Omega^q for q = 0..n-1, untwisted."""
    return tuple(bwb.omega(n, q, 0) for q in range(n))


def _profile_jp_ch(n: int) -> ExtProfile:
    a = _profile_jp_jp(-1, -1, n)
    return _cone_profile(_shift(a, -2), a)


def _profile_jp_f(n: int) -> ExtProfile:
    x = _shift(_profile_jp_oy(-1, -1, n), -1)
    y = _profile_jp_ch(n)
    return _cone_profile(x, y)


def _profile_ch_f(n: int) -> ExtProfile:
    """Ext^*(C(h), F) via the contravariant long exact sequence of the
    defining triangle of C(h): the cone on the h-composition map
    Ext^k(X, F) -> Ext^{k+2}(X, F), X = j_*O_P(-1), shifted by one."""
    xf = _profile_jp_f(n)
    return _shift(_cone_profile(xf, {k - 2: v for k, v in xf.items()}), -1)


def ext_profile(A, B, n: int) -> ExtProfile:
    """Ext-dimension profile {degree: dim} between ledger objects.

    Supported pairs: (JP, OY), (OY, JP), (JP, JP), (JP, Ch), (JP, F),
    (Ch, F).  Anything else raises.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if isinstance(A, JP) and isinstance(B, OY):
        return _profile_jp_oy(A.b, B.a, n)
    if isinstance(A, OY) and isinstance(B, JP):
        return _profile_oy_jp(A.a, B.b, n)
    if isinstance(A, JP) and isinstance(B, JP):
        return _profile_jp_jp(A.b, B.b, n)
    if isinstance(A, JP) and isinstance(B, ConeH):
        if A.b != -1:
            raise ValueError("C(h) profiles are pinned to the twist -1 object")
        return _profile_jp_ch(n)
    if isinstance(A, JP) and isinstance(B, FSheaf):
        if A.b != -1:
            raise ValueError("F profiles are pinned to the twist -1 object")
        return _profile_jp_f(n)
    if isinstance(A, ConeH) and isinstance(B, FSheaf):
        return _profile_ch_f(n)
    raise ValueError(f"unsupported ledger pair ({A}, {B})")


def euler_chi(profile: ExtProfile) -> int:
    return sum((-1) ** k * v for k, v in profile.items())


@lru_cache(maxsize=None)
def chi_jp_oy(b: int, a: int, n: int) -> int:
    return euler_chi(_profile_jp_oy(b, a, n))


def chi_jp_class(b: int, kc: KClass) -> int:
    """chi(j_*O_P(b), x) for x given in the window basis, by linearity."""
    return sum(
        c * chi_jp_oy(b, j, kc.n) for j, c in enumerate(kc.coords) if c
    )


# ---------------------------------------------------------------------------
# recorded pushforward facts and the image table of the basic flop functor


def oe_pushforward_class(k: int, n: int) -> KClass | None:
    """K-class on the far side of the derived pushforward of O_E(kE)
    from the exceptional divisor of the blown-up correspondence:
    zero for 1 <= k <= n-2, and j'_*O_{P^v}(-n) placed in degree n-2
    for k = n-1.  Recorded as data; everything downstream assembles
    from these values."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range [1, {n - 1}]")
    if k <= n - 2:
        return None
    return kclass_jpdual(-n, n).scale((-1) ** (n - 2))


class KNZeroRow(namedtuple("KNZeroRow", "a correction ok")):
    __slots__ = ()


def kn0_image_table(n: int) -> list[KNZeroRow]:
    """Tabulate, for a in [-n+1, 0], the correction that KN_0 adds to
    [O(-a)] in [KN_0(O_Y(a))], from the Fourier-Mukai constituents of the
    correspondence square

        KN_0(X) -> Phi_blowup(X) + Phi_product(X) -> Phi_divisor(X).

    The product term RGamma(P, O(a)) (x) j'_*O_{P^v} cancels against the
    untwisted part of the divisor term, and the blowup term is [O(-a)]
    plus the O_E(kE) pushforwards, k = 1..-a, twisted by O(-a).  So the
    correction is those O_E(kE) terms plus the twisted product term
    RGamma(P, O(a-1)) (x) j'_*O_{P^v}(-1), both nonzero only at a = -n+1.
    The pushforwards are recorded data (:func:`oe_pushforward_class`);
    chi(O(a-1)) and the twist are computed.  A row's `ok` holds exactly
    when the correction is zero.

    That is all of the check: [O(-a)] + correction equals the flop-matrix
    image of [O(a)] exactly when the correction is zero, wherever the
    matrix :func:`kn_matrix` sends [O(a)] to [O(-a)], and criterion 6
    checks that window rule for every |a| <= 2n, which holds every a here.
    """
    rows = []
    for a in range(-n + 1, 1):
        chi_a1 = bwb.euler_characteristic(bwb.line_bundle(n, a - 1))
        correction = kclass_jpdual(-1, n).scale(chi_a1)
        for k in range(1, -a + 1):
            fact = oe_pushforward_class(k, n)
            if fact is not None:
                # the recorded class, twisted by O(-a) on the far side
                col = matmul(twist_matrix(n, -a), [[x] for x in fact.coords])
                correction = correction + KClass(n, "Yplus", tuple(x for x, in col))
        rows.append(KNZeroRow(a, correction.coords, not any(correction.coords)))
    return rows


# ---------------------------------------------------------------------------
# the twist ledger


class LedgerStep(namedtuple("LedgerStep", "name claim value expected ok")):
    __slots__ = ()

    def as_dict(self):
        return {
            "step": self.name,
            "claim": self.claim,
            "value": _jsonable(self.value),
            "expected": _jsonable(self.expected),
            "ok": self.ok,
        }


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): val for k, val in sorted(v.items())}
    if isinstance(v, tuple):
        return list(v)
    return v


class LedgerReport(namedtuple("LedgerReport", "n passed steps failing_step")):
    __slots__ = ()

    def as_dict(self):
        return {
            "n": self.n,
            "pass": self.passed,
            "failing_step": self.failing_step,
            "steps": [s.as_dict() for s in self.steps],
        }


def ptwist_ledger_check(n: int) -> LedgerReport:
    """Replay, at the level of Ext dimensions, the chain of computations
    showing that the twist attached to j_*O_P(-1) carries the flopped
    O(1) back to O_Y(-1).

    Steps: the RHom profiles of j_*O_P(-1) against O_Y(b), itself, C(h)
    and F; the one-dimensionality of Hom(C(h), F) identifying the
    evaluation map; and the final cone, whose RHom profile against
    j_*O_P(-1) must match that of O_Y(-1).
    """
    if n < 3:
        raise ValueError("the ledger needs n >= 3")
    steps: list[LedgerStep] = []

    def add(name, claim, value, expected):
        steps.append(LedgerStep(name, claim, value, expected, value == expected))

    E = JP(-1)
    for b in range(0, n - 1):
        add(
            f"vanishing-b{b}",
            f"RHom(j_*O_P(-1), O_Y({b})) = 0",
            ext_profile(E, OY(b), n),
            {},
        )
    add(
        "against-O(-1)",
        "RHom(j_*O_P(-1), O_Y(-1)) is one line in degree 2n-2",
        ext_profile(E, OY(-1), n),
        {2 * n - 2: 1},
    )
    add(
        "self-profile",
        "the self-Ext algebra has one line in each even degree 0..2n-2",
        ext_profile(E, E, n),
        {2 * q: 1 for q in range(n)},
    )
    add(
        "against-cone",
        "RHom(j_*O_P(-1), C(h)) has lines in degrees 0 and 2n-1",
        ext_profile(E, Ch, n),
        {0: 1, 2 * n - 1: 1},
    )
    add(
        "against-F",
        "RHom(j_*O_P(-1), F) is one line in degree 0",
        ext_profile(E, F, n),
        {0: 1},
    )
    add(
        "hom-cone-F",
        "Hom(C(h), F) is one-dimensional, so evaluation is the connecting "
        "map up to scale",
        {k: v for k, v in ext_profile(Ch, F, n).items() if k == 0},
        {0: 1},
    )
    # final cone: twist(F) = Cone(C(h) (x) RHom(E,F) -> F) with RHom(E,F) = C
    twisted_profile = _cone_profile(ext_profile(E, Ch, n), ext_profile(E, F, n))
    add(
        "twisted-profile",
        "the profile of RHom(j_*O_P(-1), twist(F)) matches that of O_Y(-1)",
        twisted_profile,
        ext_profile(E, OY(-1), n),
    )
    failing = next((s.name for s in steps if not s.ok), None)
    return LedgerReport(n=n, passed=failing is None, steps=tuple(steps), failing_step=failing)
