"""The doubled Beilinson quiver with relations, and its graded dimensions.

The quiver has vertices 0..n-1, n forward arrows f_1..f_n between
consecutive vertices and n backward arrows v_1..v_n.  Words are stored
in application order (first arrow applied first); the generators of the
relation ideal are listed once, in `relations`, and each is embedded in
every composable context.  ``graded_dim`` computes the dimension of
paths from a to b of length l modulo the ideal.

Two computations are provided.  The direct oracle materializes the free
span and the contextual relation instances and takes an exact rank; it
is the tests' reference for the engine at small scale and never a
fallback.  The engine builds the same quotient degree by degree:
writing W for the space spanned by (top arrow) applied to the previous
degree's quotient, the degree-(l+1) quotient is W modulo the
relation instances whose context sits entirely below the top arrow.
Every arrow and every relation generator is homogeneous for the
GL(V)-torus weight (f_i -> +e_i, v_i -> -e_i), so the engine splits
each cell into weight blocks, each eliminated on its own rows.

The symmetric group S_n permutes the labels 1..n.  It maps the quiver
to itself and the generators to generators up to sign, so each sigma
is an algebra automorphism over Z that carries the weight-u block of a
cell onto the weight-sigma(u) block.  The engine therefore eliminates
only the canonical blocks, w sorted descending, one per S_n-orbit,
those of a level together in a few batched mod-p calls across widths,
each block zero-padded to its call's widest and tallest block.  The
basis of any other block u is pi_u applied to the basis of canon(u),
pi_u the stable sort taking canon(u) to u.  One formula moves a map by
a label permutation sigma: the map that block c's map on
sigma(y) induces on arrow y is that map after the action of sigma on
the arrow's source block one level down (`_moved`).  With sigma =
pi_u^-1 it is the map of block u on y; with any tau fixing a canonical
weight w, its nonpivot columns give the matrix rho_w(tau) of tau on
block w.  The action of a permutation from one block to another is that
of some tau fixing the source block's canonical weight.  The top level's
other blocks are never built, and a lower one's maps are all moved when
the block is first read.

The reflection, vertex s -> n-1-s with f_i <-> v_i, maps the quiver
to itself, a word to the word of the reflected steps in the same order,
and weight w to -w.  The ideal is generated in degree 2, so if the
reflection maps every generator into the span of its image cell's
generators (the constructor checks this over Q, `_check_reflection`),
it maps the ideal onto itself and is an automorphism of the quotient
over Q (`relations` proves it for the package's generators).  A path
never leaves its source, so the rows of the quotient (the paths out of
one vertex a) are built independently, and the reflection carries row
a onto row n-1-a.  The engine therefore builds only the rows a < (n+1)//2 and
reads block w of a cell (a, b) of any other row as block -w of cell
(n-1-a, n-1-b), each map keyed by its reflected arrow: a relabeling,
with no matrix work.  The middle row of odd n is its own mirror and is
built in full.

The engine runs mod p for speed and its answers are certified exact by
a sandwich: mod-p dimensions bound the rational dimension from above,
while evaluating paths to monomials in Sym V (x) Sym V* exhibits a
surjection onto the graded Hom pieces of the cone, whose dimensions
(the closed-form trace coranks of `cohengine.sym_pair_corank`) bound it
from below.  The surjection exists only if the evaluation carries the
relation ideal into the ideal of the trace t = sum_i x_i y_i, whose
cokernel the coranks count; the engine stops each elimination at the
bound, so its constructor refuses a generator that evaluates to
anything but 0 or a multiple of t.  The surjection preserves the torus
weight, so each block has its own exact lower bound (`_weight_target`),
which depends only on the multiset of the weight.  Each canonical block
is certified against it; sigma, being defined over Z, carries the
certified rational dimension to every block of the orbit, whose target
is the same, and a cell's dimension is the sum over its canonical
blocks of dimension times orbit size.  A cell of a mirrored row is
certified the same way: its rational dimension is its mirror cell's,
which the mirror's mod-p dimension bounds from above, and its own
`_cell_target`, computed for the cell itself, bounds it from below.
Equality of the bounds certifies the value; the engine records its
verdict on every cell as it builds the level, and a cell whose bounds
disagree raises `CertificationError` and is reported, never patched.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, itemgetter, sub

import numpy as np

from .cohengine import sym_pair_corank
from .linalg import MODP, quotient_maps, rank_exact, rref_stack
from .relations import relation_generators


class Quiver(namedtuple("Quiver", "n")):
    __slots__ = ()

    def __new__(cls, n: int):
        if n < 2:
            raise ValueError("n must be at least 2")
        return tuple.__new__(cls, (n,))

    def arrows_from(self, s: int) -> list[tuple[str, int]]:
        out = []
        if s <= self.n - 2:
            out += [("f", i) for i in range(1, self.n + 1)]
        if s >= 1:
            out += [("v", i) for i in range(1, self.n + 1)]
        return out


def _step_target(n: int, s: int, step: tuple[str, int]) -> int | None:
    kind, _ = step
    t = s + 1 if kind == "f" else s - 1
    return t if 0 <= t <= n - 1 else None


class QuiverWord(namedtuple("QuiverWord", "n source steps")):
    """A composable path: steps in application order.  Its len is the
    number of steps."""

    __slots__ = ()

    def __new__(cls, n: int, source: int, steps: tuple[tuple[str, int], ...]):
        cur = source
        for step in steps:
            cur = _step_target(n, cur, step)
            if cur is None:
                raise ValueError(f"word leaves the quiver: {steps}")
        return tuple.__new__(cls, (n, source, steps))

    @property
    def target(self) -> int:
        cur = self.source
        for step in self.steps:
            cur = _step_target(self.n, cur, step)
        return cur

    def __len__(self) -> int:
        return len(self.steps)


def _check_cell(n: int, a: int, b: int, length: int) -> None:
    """Raise ValueError naming the range unless a and b are vertices
    0..n-1 and length >= 0."""
    if not (0 <= a <= n - 1 and 0 <= b <= n - 1):
        raise ValueError(f"vertex ({a}, {b}) out of range 0..{n - 1}")
    if length < 0:
        raise ValueError(f"length={length} out of range: must be at least 0")


def enumerate_paths(quiver: Quiver, a: int, b: int, length: int) -> list[QuiverWord]:
    """All composable words of the given length from a to b, in a fixed
    deterministic order.  A vertex outside 0..n-1 or a negative length
    raises ValueError."""
    n = quiver.n
    _check_cell(n, a, b, length)
    out: list[QuiverWord] = []

    def rec(cur, steps):
        if len(steps) == length:
            if cur == b:
                out.append(QuiverWord(n, a, tuple(steps)))
            return
        for step in quiver.arrows_from(cur):
            rec(_step_target(n, cur, step), steps + [step])

    rec(a, [])
    return out


def path_count(n: int, a: int, b: int, length: int) -> int:
    """Number of free paths, computed by walk counting (each step has n
    label choices).  A vertex outside 0..n-1 or a negative length raises
    ValueError."""
    _check_cell(n, a, b, length)
    walks = {a: 1}
    for _ in range(length):
        nxt: dict[int, int] = {}
        for s, c in walks.items():
            if s + 1 <= n - 1:
                nxt[s + 1] = nxt.get(s + 1, 0) + c
            if s - 1 >= 0:
                nxt[s - 1] = nxt.get(s - 1, 0) + c
        walks = nxt
    return walks.get(b, 0) * n ** length


def relation_instances(quiver: Quiver, a: int, b: int, length: int):
    """Every contextual embedding prefix * generator * suffix landing in
    the (a, b, length) cell, as {word: coeff} vectors."""
    n = quiver.n
    out = []
    rem = length - 2
    if rem < 0:
        return out
    for gen in relation_generators(n):
        for pre_len in range(rem + 1):
            suf_len = rem - pre_len
            for pre in enumerate_paths(quiver, a, gen.source, pre_len):
                for suf in enumerate_paths(quiver, gen.target, b, suf_len):
                    vec: dict[QuiverWord, int] = {}
                    for coeff, steps in gen.terms:
                        w = QuiverWord(n, a, pre.steps + steps + suf.steps)
                        vec[w] = vec.get(w, 0) + coeff
                    vec = {w: c for w, c in vec.items() if c}
                    if vec:
                        out.append(vec)
    return out


def graded_dim_direct(quiver: Quiver, a: int, b: int, length: int) -> int:
    """Free-span oracle: number of paths minus the exact rank of the
    contextual relation matrix.  Exponential in length; small cells only."""
    paths = enumerate_paths(quiver, a, b, length)
    index = {w: i for i, w in enumerate(paths)}
    rows = [
        {index[w]: c for w, c in vec.items()}
        for vec in relation_instances(quiver, a, b, length)
    ]
    return len(paths) - rank_exact(rows, len(paths))


# ---------------------------------------------------------------------------
# degree-by-degree engine


def _cell_target(n: int, a: int, b: int, length: int) -> int:
    """Exact lower bound for the cell dimension: the corank of the
    matching graded Hom piece (paths evaluate onto monomials, and the
    relation ideal dies under the evaluation, as `QuiverDimEngine`
    checks on its generators)."""
    down2 = length - (b - a)
    up2 = length + (b - a)
    if down2 < 0 or up2 < 0 or down2 % 2 or up2 % 2:
        return 0
    return sym_pair_corank(n, down2 // 2, up2 // 2)


def _weight_target(n: int, a: int, b: int, length: int, w: tuple[int, ...]) -> int:
    """Exact lower bound for the weight-w block of a cell.

    The GL(V)-torus weight of a path adds e_i for each f_i and -e_i for
    each v_i, so a path of the cell has u = (length + b - a)/2 forward
    arrows and a weight w with sum(w) = b - a.  The evaluation sends it
    to a monomial pair x^alpha y^beta with alpha - beta = w, so the
    surjection behind `_cell_target` is a sum of one surjection per
    weight.  The pairs of weight w with |alpha| = u are alpha =
    max(w, 0) + gamma and beta = max(-w, 0) + gamma, with gamma >= 0 of
    size k = u - sum(max(w_i, 0)): there are C(k + n - 1, n - 1) of them
    when k >= 0 and none otherwise.  The trace t = sum_i x_i y_i has
    weight 0, lowers k by one and is injective (Sym V (x) Sym V* is a
    domain), so the weight-w part of its cokernel has dimension
    C(k + n - 1, n - 1) - C(k + n - 2, n - 1) = C(k + n - 2, n - 2) for
    k >= 0, and 0 otherwise.  Summed over w this is `_cell_target`.
    """
    up2 = length + b - a
    if up2 < 0 or up2 % 2:
        return 0
    k = up2 // 2 - sum(x for x in w if x > 0)
    return comb(k + n - 2, n - 2) if k >= 0 else 0


def _reflected(step: tuple[str, int]) -> tuple[str, int]:
    """The reflected arrow: f_i <-> v_i."""
    kind, i = step
    return ("v" if kind == "f" else "f", i)


def _weight(n: int, steps) -> tuple[int, ...]:
    """Torus weight of a word: +e_i per f_i, -e_i per v_i."""
    w = [0] * n
    for kind, i in steps:
        w[i - 1] += 1 if kind == "f" else -1
    return tuple(w)


def _relation_rows(rows, layout, rels) -> None:
    """Write the relation rows of a weight block into `rows` (zero on
    entry, at least as tall as the block's rows): `layout` is {arrow:
    (column offset, source block)}, a source block (dim, maps) as
    `QuiverDimEngine.block` reads it; `rels` is the flat list dq,
    terms, ... of the generators applied to blocks two levels down."""
    start = 0
    it = iter(rels)
    for dq, terms in zip(it, it):
        r = rows[start : start + dq]
        start += dq
        # a term (first, top) maps the source block through `first` into
        # the (a, mid) block that `top` carries into this one, the piece
        # `top` of W; a missing piece is a zero block, where the term
        # dies.  The terms of a generator end in distinct arrows, so each
        # writes its own columns.
        for coeff, first, top in terms:
            piece = layout.get(top)
            if piece:
                off, (width, mats) = piece
                if coeff == 1:
                    r[:, off : off + width] = mats[first].T
                else:
                    np.multiply(mats[first].T, coeff, out=r[:, off : off + width])


class CertificationError(RuntimeError):
    """A cell whose mod-p dimension misses its corank lower bound; `cell`
    is the engine's (a, b, length, dim, target) entry."""

    def __init__(self, cell: tuple[int, int, int, int, int]):
        a, b, length, dim, target = cell
        super().__init__(f"cell (a={a}, b={b}, l={length}): mod-p dimension "
                         f"{dim} misses the corank lower bound {target}")
        self.cell = cell


# float64 entries in one zero-padded stack of blocks, counted as blocks x
# tallest x widest (256 KiB): bounds the transient memory of a level
# while keeping the stacks of small blocks large enough to share the
# loop's per-row cost
_STACK_CAP = 2 ** 15


@lru_cache(maxsize=None)
def _canonical(w):
    """(canon(w), pi_w, pi_w^-1): w sorted descending, and the stable
    sort pi_w taking canon(w) to w (canon(w)[k] = w[pi_w[k]]), as
    one-line tuples of the 0-based labels 0..len(w)-1."""
    pi = sorted(range(len(w)), key=w.__getitem__, reverse=True)
    return (tuple(sorted(w, reverse=True)), tuple(pi),
            tuple(sorted(range(len(w)), key=pi.__getitem__)))


@lru_cache(maxsize=None)
def _tau(sigma, v):
    """(canon(v), tau) for a label permutation sigma (one-line tuple) and
    a weight v: tau is the element of Stab(canon(v)) with sigma pi_v =
    pi_(sigma v) tau, or None when it is the identity, so that sigma
    carries block v onto block sigma(v) as rho_canon(v)(tau) does."""
    cv, pv, _ = _canonical(v)
    # sigma(v)[sigma[k]] = v[k], and inv = pi_(sigma v)^-1
    inv = _canonical(tuple(map(v.__getitem__, sorted(range(len(v)), key=sigma.__getitem__))))[2]
    tau = tuple(map(inv.__getitem__, map(sigma.__getitem__, pv)))
    return cv, None if tau == tuple(range(len(v))) else tau


@lru_cache(maxsize=None)
def _orbit_size(w) -> int:
    """n! / prod(run length!) for a canonical w, n = len(w)."""
    size, run = 1, 0
    for k in range(len(w)):
        run = run + 1 if k and w[k] == w[k - 1] else 1
        size = size * (k + 1) // run
    return size


class QuiverDimEngine:
    """Degree-by-degree quotient construction, mod p, one S_n-orbit of
    torus-weight blocks at a time.

    The constructor raises ValueError unless n >= 2, every relation
    generator is homogeneous for the torus weight, has its terms end in
    distinct arrows and evaluates to 0 or a multiple of the trace (the
    premise of the stop below), the generating set is stable under
    the adjacent label swaps up to sign (checked first), and the
    reflection s -> n-1-s, f_i <-> v_i maps each generator into the
    span of its image cell's generators.  So the quotient splits into
    weight blocks, the blocks of weights u and sigma(u) are isomorphic,
    and row a is isomorphic to row n-1-a.  Each distinct terms tuple,
    which a family shares across vertices, is checked and moved once.
    `levels[l]` holds the built rows a < (n+1)//2 only: it maps each
    of their cells (a, b) reached from level l - 1 to its canonical
    blocks, {w: (dim, {arrow: map})} with w sorted descending:
    the map on an arrow is the part of the block's projection T (dim, W)
    onto its quotient on the arrow's piece of W, the source block of
    weight w - wt(arrow), in that block's basis.
    Blocks of dim 0 are not kept; a cell's dim is the sum over its
    blocks of dim times orbit size.  `block` reads any weight of any row
    (a mirrored row's off its mirror, as `dim` reads any cell); the maps
    of a non-canonical block are all moved from its canonical block when
    the block is first read, by `_moved`, the one place a map is moved
    by a label permutation (the stabilizer actions rho_w(tau) of `_rho`
    read it too).  The tau of a move, with sigma pi_v = pi_(sigma v) tau,
    depends on (sigma, v) alone and comes from the cached `_tau` (None
    for the identity); `_rho` memoizes each action and stores None for
    one it computed to be the identity, so `_moved` forms a product only
    for an action that is not.

    A level is built in two passes: the first collects each canonical
    block once, with its width W, its layout {arrow: (column offset,
    source block)} and its relation rows (the generators applied to the
    blocks of weight w - wt(generator) two levels down), into one list;
    the second eliminates them in a few zero-padded stacks across widths
    (`_eliminate`, `linalg.rref_stack`), every block stopped at
    W - `_weight_target`.
    The blocks stay independent (each has its own rows, stop and RREF;
    zero columns are never pivots, so padding changes none of them),
    so every block dim is at least its target, and a cell meets
    `_cell_target` exactly when every canonical block meets its own.
    The engine records its verdict on every cell of a level as it builds
    it, mirrored or not, in `verdicts`, each against the cell's own
    `_cell_target`; the cells that miss their target are listed in
    `uncertified`."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be at least 2")
        self.n = n
        # the rows a < half are built; row a >= half is read off row n-1-a
        self._half = half = (n + 1) // 2
        origin = (0,) * n
        self.levels: list[dict] = [{(a, a): {origin: (1, {})} for a in range(half)}]
        # parallel to levels: (a, b) -> {w: the block's nonpivot columns},
        # split by piece once `_rho` first acts on the block
        self._free: list[dict] = [{(a, a): {origin: np.arange(1)} for a in range(half)}]
        # (a, b, length) -> None if certified, else (a, b, length, dim, target)
        self.verdicts: dict[tuple[int, int, int], tuple | None] = {}
        self._id = tuple(range(n))
        self._swaps = [self._id[:k] + (k + 1, k) + self._id[k + 2 :] for k in range(n - 1)]
        self._aw = {arrow: _weight(n, (arrow,)) for arrow, _ in
                    self._arrows_into(0) + self._arrows_into(n - 1)}
        # vertex b -> [(arrow, source vertex, arrow weight)] of the arrows into b
        self._into = [[(arrow, src, self._aw[arrow]) for arrow, src in self._arrows_into(b)]
                      for b in range(n)]
        # (l, a, b, w, tau) -> rho_w(tau) or None, and (l, a, b, w) -> the moved
        # maps of a non-canonical block
        self._rho_cache: dict = {}
        self._transported: dict = {}
        self._certify(0)
        # target vertex -> {(source, weight): [terms, ...]}; a term is
        # (coeff, first, top)
        self._gens_by_target: dict[int, dict] = {}
        gens = relation_generators(n)
        # the trace t = sum_i x_i y_i, as the monomials of its terms
        trace = {(("f", i), ("v", i)) for i in range(1, n + 1)}
        # terms -> (weight, [(coeff, first, top), ...]) of the terms that
        # passed: the premises depend on the terms alone, which a family
        # shares across vertices, so each distinct terms is checked once
        checked: dict = {}
        for gen in gens:
            premise = checked.get(gen.terms)
            if premise is None:
                weights = {_weight(n, steps) for _, steps in gen.terms}
                if len(weights) != 1:
                    raise ValueError(
                        f"generator {gen.name} ({gen.source} -> {gen.target}) "
                        f"is not torus-weight homogeneous: {gen.terms}"
                    )
                if len({steps[-1] for _, steps in gen.terms}) != len(gen.terms):
                    raise ValueError(
                        f"generator {gen.name} ({gen.source} -> {gen.target}) "
                        f"has two terms ending in one arrow: {gen.terms}"
                    )
                # the evaluation f_i -> x_i, v_j -> y_j: a word's monomial is
                # its sorted steps
                image: dict = {}
                for coeff, steps in gen.terms:
                    mono = tuple(sorted(steps))
                    image[mono] = image.get(mono, 0) + coeff
                image = {mono: c for mono, c in image.items() if c}
                if image and (image.keys() != trace or len(set(image.values())) != 1):
                    raise ValueError(
                        f"generator {gen.name} ({gen.source} -> {gen.target}) "
                        f"evaluates to {image}, not to 0 or a multiple of the "
                        f"trace, so the corank targets are no lower bounds"
                    )
                premise = checked[gen.terms] = (weights.pop(), [
                    (coeff, first, top) for coeff, (first, top) in gen.terms])
            weight, terms = premise
            self._gens_by_target.setdefault(gen.target, {}).setdefault(
                (gen.source, weight), []).append(terms)
        # terms -> [(image, frozenset(image))] under each adjacent label swap,
        # then under the reflection, and -> the frozensets of the terms and
        # of their negative: formed once per distinct terms
        images, keys = {}, {}
        for terms in checked:
            moved = [[(c, tuple([(kind, sk[i - 1] + 1) for kind, i in steps]))
                      for c, steps in terms] for sk in self._swaps]
            moved.append([(c, tuple(map(_reflected, steps))) for c, steps in terms])
            images[terms] = [(m, frozenset(m)) for m in moved]
            keys[terms] = (frozenset(terms), frozenset((-c, steps) for c, steps in terms))
        # each generator and its negative, as (source, target, frozenset(terms))
        signed = {(g.source, g.target, fs) for g in gens for fs in keys[g.terms]}
        self._check_symmetry(gens, signed, images)
        self._check_reflection(gens, signed, images)

    def _check_symmetry(self, gens, signed, images) -> None:
        """Raise ValueError unless every adjacent label swap maps every
        generator to plus or minus a generator, one of `signed`; `images`
        holds each terms' images."""
        for gen in gens:
            for k, (moved, image) in enumerate(images[gen.terms][:-1]):
                if (gen.source, gen.target, image) not in signed:
                    raise ValueError(
                        f"generator {gen.name} ({gen.source} -> {gen.target}) "
                        f"is not S_n-stable: swapping labels {k + 1} and {k + 2} "
                        f"gives {moved}, which is no generator up to sign"
                    )

    def _check_reflection(self, gens, signed, images) -> None:
        """Raise ValueError, naming the cell, unless the reflection (vertex
        s -> n-1-s, f_i <-> v_i) maps every generator into the span of the
        generators of its image cell; `images` holds each terms' reflected
        image.  A moved generator that is plus or minus a generator passes
        by lookup in `signed`; any other must leave the exact rank of its
        cell's generators unchanged.  The ideal is generated in degree 2,
        so the reflection then maps it into itself, and, being an
        involution, is an automorphism of the quotient over Q that carries
        row a onto row n-1-a."""
        n = self.n
        for gen in gens:
            s, t = n - 1 - gen.source, n - 1 - gen.target
            moved, image = images[gen.terms][-1]
            if (s, t, image) in signed:
                continue
            cell = [g.terms for g in gens if (g.source, g.target) == (s, t)]
            index: dict = {}
            rows = [{index.setdefault(steps, len(index)): c for c, steps in terms}
                    for terms in cell + [moved]]
            if rank_exact(rows, len(index)) > rank_exact(rows[:-1], len(index)):
                raise ValueError(
                    f"generator {gen.name} ({gen.source} -> {gen.target}) "
                    f"is not reflection-stable: the reflection s -> n-1-s, "
                    f"f_i <-> v_i gives {moved}, outside the span of the "
                    f"generators of cell ({s}, {t})"
                )

    @property
    def uncertified(self) -> list[tuple[int, int, int, int, int]]:
        return [entry for entry in self.verdicts.values() if entry]

    def dim(self, a: int, b: int, length: int) -> int:
        """Dimension of the cell (a, b, length), its level built first; a
        vertex outside 0..n-1 or a negative length raises ValueError."""
        _check_cell(self.n, a, b, length)
        self.ensure(length)
        return self._prev_dim(a, b, length)

    def ensure(self, length: int) -> None:
        while len(self.levels) <= length:
            self._build_level(len(self.levels))

    def _prev_dim(self, a: int, s: int, lev: int) -> int:
        if a >= self._half:
            a, s = self.n - 1 - a, self.n - 1 - s
        blocks = self.levels[lev].get((a, s))
        if not blocks:
            return 0
        return sum(_orbit_size(w) * dim for w, (dim, _) in blocks.items())

    def block(self, l: int, a: int, b: int, w):
        """(dim, {arrow: map}) of the weight-w block of cell (a, b, l), for
        any w, or None if it is zero: the basis of block w is pi_w applied
        to the basis of block canon(w), and its maps are all moved by
        pi_w^-1 on the first read, each from block canon(w)'s map on
        pi_w^-1(y) for its arrow y (`_moved`).  A block of a row
        a >= (n+1)//2 is block -w of cell (n-1-a, n-1-b), with each map
        keyed by its reflected arrow."""
        if a >= self._half:
            blk = self.block(l, self.n - 1 - a, self.n - 1 - b, tuple(-x for x in w))
            return blk and (blk[0], {_reflected(y): M for y, M in blk[1].items()})
        cell = self.levels[l].get((a, b))
        c, pi, piinv = _canonical(w)
        blk = cell.get(c) if cell else None
        if not blk or c == w:
            return blk
        key = (l, a, b, w)
        maps = self._transported.get(key)
        if maps is None:
            maps = self._transported[key] = {}
            for (kind, i), M in blk[1].items():
                y = (kind, pi[i - 1] + 1)
                maps[y] = self._moved(l, a, b, M, kind, piinv, tuple(map(sub, w, self._aw[y])))
        return blk[0], maps

    def _moved(self, l: int, a: int, b: int, M, kind, sigma, v, cols=None):
        """Columns `cols` (all if None) of the map on an arrow y of the
        given kind, of source block v one level down, of the block that
        the label permutation sigma (one-line tuple) carries onto a
        canonical block of cell (a, b, l), whose map on sigma(y) is M:
        M @ A[:, cols], A the matrix of sigma from block v to block
        sigma(v), in the bases of `block`.  sigma pi_v = pi_(sigma v) tau
        with tau in Stab(canon(v)), read from `_tau`, so A is
        rho_canon(v)(tau).  When tau is the identity, or `_rho` found that
        tau acts as the identity (it stores None then), the columns of M
        are the map and no product is formed: M's entries lie in [0, p),
        so M @ I % p would be M.
        `block` transports with sigma = pi_u^-1 and keeps every column;
        `_rho` acts with sigma = tau in Stab(c) and keeps the piece's
        nonpivot columns, so no product is formed only to be sliced."""
        cv, tau = _tau(sigma, v)
        A = tau and self._rho(l - 1, a, b - 1 if kind == "f" else b + 1, cv, tau)
        if A is None:
            return M if cols is None else M[:, cols]
        return M @ (A if cols is None else A[:, cols]) % MODP

    def _rho(self, l: int, a: int, b: int, w, tau):
        """The action rho_w(tau) (dim, dim) of tau in Stab(w) on canonical
        block w of cell (a, b, l), or None if it is the identity (detected
        on the computed matrix, never assumed: a stabilizer can act by
        -1).  Column j holds the coordinates of tau(basis vector j).
        Basis vector m, nonpivot column m at piece x, is the class of
        (source basis vector j) x, which tau sends to tau(source vector)
        tau(x) in block tau(w) = w, whose coordinates are column j of
        `_moved` with sigma = tau.  Only the pieces that hold nonpivot
        columns are visited; on the block's first action its nonpivots
        in `_free` are split once into (arrow x, source weight, first and
        last column + 1 of R, the piece's own columns).  Level 0's block,
        the empty path, has no pieces, and its rho is the identity."""
        key = (l, a, b, w, tau)
        if key not in self._rho_cache:
            dim, maps = self.levels[l][(a, b)][w]
            free = self._free[l][(a, b)]
            pieces = free[w]
            if isinstance(pieces, np.ndarray):
                offs = [0, *accumulate(T.shape[1] for T in maps.values())]
                edges = np.searchsorted(pieces, offs).tolist()
                pieces = free[w] = [
                    (x, tuple(map(sub, w, self._aw[x])), lo, hi, pieces[lo:hi] - off)
                    for x, off, lo, hi in zip(maps, offs, edges, edges[1:]) if hi > lo]
            eye = np.eye(dim)
            R = eye.copy()
            for (kind, i), v, lo, hi, cols in pieces:
                R[:, lo:hi] = self._moved(l, a, b, maps[kind, tau[i - 1] + 1], kind, tau, v, cols)
            self._rho_cache[key] = None if R.tolist() == eye.tolist() else R
        return self._rho_cache[key]

    def _build_level(self, l: int) -> None:
        n = self.n
        prev = self.levels[l - 1]
        below = self.levels[l - 2] if l >= 2 else {}
        newlevel, newfree = {}, {}
        # [(W, height, the cell's blocks, their nonpivots, w, layout, stop,
        # relation terms)]
        todo: list = []
        for a in range(self._half):
            for b in range(n):
                into = [x for x in self._into[b] if prev.get((a, x[1]))]
                # canon(s0 + wt(x)) over the canonical source blocks s0 and
                # the arrows x: every block of the cell is in one of their
                # orbits
                targets = {_canonical(tuple(map(add, sw, aw)))[0]
                           for _, src, aw in into for sw in prev[(a, src)]}
                if not targets:
                    continue
                blocks = newlevel[(a, b)] = {}
                free = newfree[(a, b)] = {}
                gens = [(below[(a, src)], gw, terms)
                        for (src, gw), terms in self._gens_by_target.get(b, {}).items()
                        if below.get((a, src))]
                for w in targets:
                    layout, W = {}, 0
                    for arrow, src, aw in into:
                        source = self.block(l - 1, a, src, tuple(map(sub, w, aw)))
                        if source:
                            layout[arrow] = (W, source)
                            W += source[0]
                    stop = W - _weight_target(n, a, b, l, w)
                    # [dq, terms, dq, terms, ...]: per generator, the dim of
                    # the block of weight w - wt(gen) two levels down and
                    # the generator's terms, flat to save a tuple per pair
                    rel: list = []
                    if stop > 0:
                        for cell, gw, term_lists in gens:
                            low = cell.get(_canonical(tuple(map(sub, w, gw)))[0])
                            if low:
                                for terms in term_lists:
                                    rel += (low[0], terms)
                    todo.append((W, sum(rel[::2]), blocks, free, w, layout, stop, rel))
        self._eliminate(todo)
        self.levels.append(newlevel)
        self._free.append(newfree)
        # level l + 1 transports maps of level l only: drop level l - 1's
        self._transported.clear()
        self._certify(l)

    @staticmethod
    def _eliminate(todo) -> None:
        """Eliminate the canonical blocks of a level, sorted by (W, height)
        and cut into parts widest first: each part is a run of blocks
        whose zero-padded stack (blocks x tallest x widest) holds at most
        `_STACK_CAP` entries, or one block that alone is larger, and goes
        through one `rref_stack` call.  Zero columns are never pivots, so
        padding changes no rank, stop, RREF on the true columns, T or
        nonpivot; `quotient_maps` builds each T at its block's true
        width.  Each block's (dim, maps) and nonpivot columns are stored in
        its cell, and each record is dropped as its maps are stored, so
        the transient memory of a level stays small."""
        todo.sort(key=itemgetter(0, 1))
        # parts are cut off the end: widest first, while the level holds
        # the fewest maps
        while todo:
            W = todo[-1][0]
            H = k = 0
            while k < len(todo):
                h = max(H, todo[-1 - k][1])
                if k and (k + 1) * h * W > _STACK_CAP:
                    break
                H, k = h, k + 1
            part = todo[-k:]
            del todo[-k:]
            stack = np.zeros((k, H, W))
            for rows, (_, _, _, _, _, layout, _, rel) in zip(stack, part):
                _relation_rows(rows, layout, rel)
            rref = rref_stack(stack, [block[6] for block in part])
            del stack
            projections, nonpivots = quotient_maps(*rref, [block[0] for block in part])
            while part:
                _, _, blocks, free, w, layout, _, _ = part.pop()
                T, cols = projections.pop(), nonpivots.pop()
                if len(T):
                    blocks[w] = (len(T), {arrow: T[:, off : off + sdim]
                                          for arrow, (off, (sdim, _)) in layout.items()})
                    free[w] = cols

    def _certify(self, l: int) -> None:
        """Record the verdict on every (a, b, l) cell, with or without
        paths: None if its dim meets `_cell_target`, otherwise its
        (a, b, l, dim, target) entry."""
        for a in range(self.n):
            for b in range(self.n):
                dim = self._prev_dim(a, b, l)
                target = _cell_target(self.n, a, b, l)
                self.verdicts[(a, b, l)] = (
                    None if dim == target else (a, b, l, dim, target))

    def _arrows_into(self, b: int):
        out = []
        if b - 1 >= 0:
            out += [(("f", i), b - 1) for i in range(1, self.n + 1)]
        if b + 1 <= self.n - 1:
            out += [(("v", i), b + 1) for i in range(1, self.n + 1)]
        return out


_engines: dict[int, QuiverDimEngine] = {}


def _engine(n: int) -> QuiverDimEngine:
    if n not in _engines:
        _engines[n] = QuiverDimEngine(n)
    return _engines[n]


def graded_dim(quiver: Quiver, a: int, b: int, length: int) -> int:
    """Dimension of the degree-(a, b, length) piece of the quotient path
    algebra: the engine's value, certified exact by the corank sandwich.
    A cell whose value misses its corank target raises
    `CertificationError` with the engine's entry for it, and a vertex
    outside 0..n-1 or a negative length raises ValueError."""
    eng = _engine(quiver.n)
    dim = eng.dim(a, b, length)
    entry = eng.verdicts[(a, b, length)]
    if entry:
        raise CertificationError(entry)
    return dim


def _parity_cells(n: int, max_len: int):
    """The cells (a, b, length) with length = b - a (mod 2), length
    ascending; every arrow moves one vertex, so the other cells hold no
    paths.  Raises ValueError if max_len < 0."""
    if max_len < 0:
        raise ValueError(f"max_len={max_len} out of range: must be at least 0")
    for length in range(max_len + 1):
        for a in range(n):
            for b in range(n):
                if (length - (b - a)) % 2 == 0:
                    yield a, b, length


# ---------------------------------------------------------------------------
# comparison against the graded Hom dimensions


class CellResult(namedtuple("CellResult", "a b length dim")):
    __slots__ = ()


class CompareReport(namedtuple("CompareReport", "n max_len cells mismatches")):
    """cells are the certified CellResults, mismatches the
    (a, b, length, dim, target) entries of the uncertified cells."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "max_len": self.max_len,
            "pass": self.passed,
            "cells_checked": len(self.cells) + len(self.mismatches),
            "mismatches": [
                dict(zip(("a", "b", "length", "dim", "target"), m))
                for m in self.mismatches
            ],
        }


def compare_with_nccr(n: int, max_len: int) -> CompareReport:
    """For every parity cell, compare the quotient path-algebra
    dimension with the graded Hom dimension of the matching piece on the
    cone: a path with p backward arrows from a to b matches internal
    degree min(p, p + b - a) of Hom(O(a), O(b)).  That dimension is the
    corank target, so every certified cell matches it; each cell that
    `graded_dim` cannot certify is listed under ``mismatches``."""
    q = Quiver(n)
    cells, mismatches = [], []
    for a, b, length in _parity_cells(n, max_len):
        try:
            cells.append(CellResult(a, b, length, graded_dim(q, a, b, length)))
        except CertificationError as e:
            mismatches.append(e.cell)
    return CompareReport(n, max_len, tuple(cells), tuple(mismatches))
