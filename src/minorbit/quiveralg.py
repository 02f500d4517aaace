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
each cell into weight blocks, each eliminated on its own rows; a level
maps each cell to its blocks, {weight: (dim, maps)}, and the blocks of
a level that share a width go through one batched mod-p call.
The engine runs mod p for speed and its answers are certified exact by
a sandwich: mod-p dimensions bound the rational dimension from above,
while evaluating paths to monomials in Sym V (x) Sym V* exhibits a
surjection onto the graded Hom pieces of the cone, whose dimensions
(the closed-form trace coranks of `cohengine.sym_pair_corank`) bound it
from below.  The surjection preserves the torus weight, so each block
has its own exact lower bound (`_weight_target`); the blocks are
certified one by one and summed per cell.  Equality of the bounds
certifies the value; the engine records its verdict on every cell as
it builds the level, and a cell whose bounds disagree raises
`CertificationError` and is reported, never patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add, itemgetter

import numpy as np

from .cohengine import sym_pair_corank
from .linalg import quotient_maps, rank_exact, rref_stack
from .relations import relation_generators


@dataclass(frozen=True)
class Quiver:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")

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


@dataclass(frozen=True)
class QuiverWord:
    """A composable path: steps in application order."""

    n: int
    source: int
    steps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        cur = self.source
        for step in self.steps:
            cur = _step_target(self.n, cur, step)
            if cur is None:
                raise ValueError(f"word leaves the quiver: {self.steps}")

    @property
    def target(self) -> int:
        cur = self.source
        for step in self.steps:
            cur = _step_target(self.n, cur, step)
        return cur

    def __len__(self) -> int:
        return len(self.steps)


def enumerate_paths(quiver: Quiver, a: int, b: int, length: int) -> list[QuiverWord]:
    """All composable words of the given length from a to b, in a fixed
    deterministic order."""
    n = quiver.n
    if not (0 <= a <= n - 1 and 0 <= b <= n - 1):
        raise ValueError("vertex out of range")
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
    label choices)."""
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
    relation ideal dies under the evaluation)."""
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


def _weight(n: int, steps) -> tuple[int, ...]:
    """Torus weight of a word: +e_i per f_i, -e_i per v_i."""
    w = [0] * n
    for kind, i in steps:
        w[i - 1] += 1 if kind == "f" else -1
    return tuple(w)


def _relation_rows(rows, layout, rels) -> None:
    """Write the relation rows of a weight block into `rows` (zero on
    entry, at least as tall as the block's rows): `layout` is {arrow:
    (column offset, source block)}, and `rels` is the flat list dq,
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


# float64 entries in one stack of same-width blocks (256 KiB): bounds the
# transient memory of a level while keeping the stacks of small blocks
# large enough to share the loop's per-row cost
_STACK_CAP = 2 ** 15


class QuiverDimEngine:
    """Degree-by-degree quotient construction, mod p, one torus-weight
    block at a time.

    Every relation generator is homogeneous for the torus weight (the
    constructor raises ValueError otherwise), and so are the arrows, so
    the quotient splits into weight blocks.  `levels[l]` maps each cell
    (a, b) reached from level l - 1 to its blocks, {w: (dim, {arrow:
    map})}: the map on an arrow is the part of the block's projection T
    (dim, W) onto its quotient on the arrow's piece of W, the source
    block of weight w - wt(arrow).  Blocks of dim 0 are not kept, and a
    cell's dim is the sum of its blocks.  A level is built in two passes:
    the first collects each block once, with its layout {arrow: (column
    offset, source block)} and its relation rows (the generators applied
    to the blocks of weight w - wt(generator) two levels down), into the
    group of its width W; the second eliminates each group together
    (`linalg.rref_stack`), every block stopped at W - `_weight_target`.
    The blocks stay independent (each has its own rows, stop and RREF),
    so every block dim is at least its target, and a cell meets
    `_cell_target` exactly when every block meets its own.  The engine
    records its verdict on every cell of a level as it builds it, in
    `verdicts`; the cells that miss their target are listed in
    `uncertified`."""

    def __init__(self, n: int):
        self.n = n
        origin = (0,) * n
        self.levels: list[dict] = [{(a, a): {origin: (1, {})} for a in range(n)}]
        # (a, b, length) -> None if certified, else (a, b, length, dim, target)
        self.verdicts: dict[tuple[int, int, int], tuple | None] = {}
        self._certify(0)
        # target vertex -> [(source, weight, [(coeff, first, top)])]
        self._gens_by_target: dict[int, list] = {}
        for gen in relation_generators(n):
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
            terms = [(coeff, first, top) for coeff, (first, top) in gen.terms]
            self._gens_by_target.setdefault(gen.target, []).append(
                (gen.source, weights.pop(), terms))

    @property
    def uncertified(self) -> list[tuple[int, int, int, int, int]]:
        return [entry for entry in self.verdicts.values() if entry]

    def dim(self, a: int, b: int, length: int) -> int:
        self.ensure(length)
        return self._prev_dim(a, b, length)

    def ensure(self, length: int) -> None:
        while len(self.levels) <= length:
            self._build_level(len(self.levels))

    def _prev_dim(self, a: int, s: int, lev: int) -> int:
        blocks = self.levels[lev].get((a, s))
        return sum(dim for dim, _ in blocks.values()) if blocks else 0

    def _build_level(self, l: int) -> None:
        n = self.n
        prev = self.levels[l - 1]
        below = self.levels[l - 2] if l >= 2 else {}
        newlevel: dict = {}
        # W -> [(height, the cell's blocks, w, layout, stop, relation terms)]
        groups: dict = {}
        for a in range(n):
            for b in range(n):
                # weight w -> its layout, and w -> its width so far
                layouts, widths = {}, {}
                for arrow, src in self._arrows_into(b):
                    aw = _weight(n, (arrow,))
                    for sw, block in prev.get((a, src), {}).items():
                        w = tuple(map(add, sw, aw))
                        off = widths.get(w, 0)
                        widths[w] = off + block[0]
                        layouts.setdefault(w, {})[arrow] = (off, block)
                if not layouts:
                    continue
                blocks = newlevel[(a, b)] = {}
                # weight w -> [dq, terms, dq, terms, ...]: per generator, the
                # dim of the block of weight w - wt(gen) two levels down and
                # the generator's terms, flat to save a tuple per pair
                rels: dict = {}
                for src, gw, terms in self._gens_by_target.get(b, ()):
                    for sw, (sdim, _) in below.get((a, src), {}).items():
                        rels.setdefault(tuple(map(add, sw, gw)), []).extend((sdim, terms))
                for w, layout in layouts.items():
                    W = widths[w]
                    stop = W - _weight_target(n, a, b, l, w)
                    rel = rels.get(w, ()) if stop > 0 else ()
                    groups.setdefault(W, []).append(
                        (sum(rel[::2]), blocks, w, layout, stop, rel))
        # widest first, while the level holds the fewest maps
        for W in sorted(groups, reverse=True):
            self._eliminate(W, groups.pop(W))
        self.levels.append(newlevel)
        self._certify(l)

    @staticmethod
    def _eliminate(W: int, group) -> None:
        """Eliminate a group of width-W blocks, tallest first, one
        `rref_stack` call per part of at most `_STACK_CAP` stacked entries
        (or of one block that alone is larger), and store each block's
        (dim, maps) in its cell.  Each record is dropped as its maps are
        stored, so the transient memory of a level stays small."""
        group.sort(key=itemgetter(0))
        while group:
            H = group[-1][0]
            part = group[-max(1, _STACK_CAP // max(H * W, 1)) :]
            del group[-len(part) :]
            stack = np.zeros((len(part), H, W))
            for rows, (_, _, _, layout, _, rel) in zip(stack, part):
                _relation_rows(rows, layout, rel)
            rref = rref_stack(stack, [block[4] for block in part])
            del stack
            projections = quotient_maps(*rref)
            while part:
                _, blocks, w, layout, _, _ = part.pop()
                T = projections.pop()
                if len(T):
                    blocks[w] = (len(T), {arrow: T[:, off : off + sdim]
                                          for arrow, (off, (sdim, _)) in layout.items()})

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
    `CertificationError` with the engine's entry for it."""
    eng = _engine(quiver.n)
    eng.ensure(length)
    entry = eng.verdicts[(a, b, length)]
    if entry:
        raise CertificationError(entry)
    return eng.dim(a, b, length)


def evaluation_kills_generators(n: int) -> bool:
    """Check on generators that the monomial evaluation used for the
    lower bound annihilates the relation ideal: commutation relations
    evaluate to syntactically equal monomials and trace relations to the
    trace element itself, which spans the quotient kernel.  Returns True
    when every generator term-multiset matches that pattern.

    It also shows that every generator is torus-weight homogeneous, as
    the engine's weight blocks require: all terms of a commutator have
    one (down, up) label content, hence one weight, and every trace term
    f_i v_i has weight 0.  (The engine raises ValueError on a generator
    that is not homogeneous.)"""
    for gen in relation_generators(n):
        content = set()
        for coeff, steps in gen.terms:
            down = tuple(sorted(i for kind, i in steps if kind == "v"))
            up = tuple(sorted(i for kind, i in steps if kind == "f"))
            content.add((down, up))
        if gen.name.startswith("trace"):
            # terms must be exactly (v_i, f_i) over all i, coefficient 1
            if content != {((i,), (i,)) for i in range(1, n + 1)}:
                return False
            if any(c != 1 for c, _ in gen.terms):
                return False
        else:
            if len(content) != 1:
                return False
            if sorted(c for c, _ in gen.terms) != [-1, 1]:
                return False
    return True


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


def dim_table(n: int, max_len: int) -> dict[tuple[int, int, int], int]:
    """Table {(a, b, length): dim} over the parity cells; entries with
    length < |b - a| are 0.  Raises `CertificationError` on the first
    uncertified cell."""
    q = Quiver(n)
    return {cell: graded_dim(q, *cell) for cell in _parity_cells(n, max_len)}


# ---------------------------------------------------------------------------
# comparison against the graded Hom dimensions


@dataclass(frozen=True)
class CellResult:
    a: int
    b: int
    length: int
    dim: int


@dataclass(frozen=True)
class CompareReport:
    n: int
    max_len: int
    cells: tuple[CellResult, ...]  # the certified cells
    # the (a, b, length, dim, target) entries of the uncertified cells
    mismatches: tuple[tuple[int, int, int, int, int], ...]

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
