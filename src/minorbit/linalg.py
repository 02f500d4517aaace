"""Exact and certified linear algebra helpers.

Two rank routines are provided:

- `rank_exact`: exact fraction-free elimination over the integers, for
  the small matrices of the direct path-algebra oracle (the tests'
  reference for the quiver engine) and of the engine's check that the
  reflection maps the degree-2 relations into their span;
- one mod-p reduced-row-echelon loop on numpy float64 arrays, the
  elimination kernel of the quiver engine, in `rref_stack` alone.  It
  runs over a stack of matrices at once, the shorter and narrower ones
  zero-padded (with `quotient_maps` for the projections onto the
  quotients, each at its matrix's true width), and
  `ModPRref` is its view of a single matrix that grows by `add` calls,
  each of which re-runs it on the rows so far and the new ones.  It
  works modulo one fixed prime, `MODP`, read at call time.  Inside the
  loop every reduction mod p is x - p * rint(x / p), exact on float64
  integers below 2**53 - p and about 15x cheaper than float `np.mod`; it
  leaves a representative in [-(p + 1) / 2, (p + 1) / 2], and the rows a
  call returns are mapped once to [0, p).  Float64 arithmetic is exact
  while width * (MODP - 1)**2 < 2**53, that is for widths up to 8192,
  with either range of representatives; the engine's torus-weight blocks
  are at most 294 wide (n=7, l=6).

A mod-p rank is always a lower bound for the rational rank, so "full
column rank mod p" certifies full rational column rank, and a mod-p
quotient dimension is an upper bound for the rational quotient
dimension.  Callers combine these with independent exact lower bounds
to certify final answers; no result rests on a single prime alone.
"""

from __future__ import annotations

from math import gcd

import numpy as np

# 2**20 - 3, prime (asserted in the test suite)
MODP = 1048573


def rank_exact(rows, ncols: int) -> int:
    """Rank over Q of integer rows given as {col: coeff} dicts.

    Fraction-free elimination with gcd reduction; intended for small
    matrices: the direct path-algebra oracle's, the quiver engine's
    reflection check on the degree-2 relations, and unit tests'.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            if lead not in echelon:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                echelon[lead] = {c: v // g for c, v in row.items()}
                break
            piv = echelon[lead]
            a, b = piv[lead], row[lead]
            new = {}
            for c in set(row) | set(piv):
                v = a * row.get(c, 0) - b * piv.get(c, 0)
                if v:
                    new[c] = v
            row = new
    return len(echelon)


def _centered(x, p):
    """x mod p, for float64 integers |x| < 2**53 - p, as the
    representative x - p * rint(x / p), in [-(p + 1) / 2, (p + 1) / 2].
    x / p is correctly rounded, so rint misses the nearest integer only
    next to a half-integer, and p * rint(x / p) stays below 2**53: every
    step is exact."""
    q = x / p
    np.rint(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


def rref_stack(stack, stops):
    """Reduced row echelon forms mod `MODP` of a stack (B, H, W) of
    matrices of float64 integers below 2**53 - MODP in
    magnitude, matrix i stopped once its rank reaches `stops[i]` (see
    `ModPRref` for why a caller may stop early).  This is the one
    elimination loop of the package.

    Row step t runs over every matrix still short of its stop: row t is
    reduced mod `MODP` and against the matrix's rows so far, and if
    anything is left it is scaled to a leading 1, cleared from the other
    rows at its lead, and appended.  Zero rows change nothing and a zero
    column is never a pivot, so matrices of different heights and widths
    can share a stack, zero-padded below and on the right.
    Inside the loop entries are `_centered` representatives.

    Returns (rows, pivots, ranks): matrix i has rank `ranks[i]`, rows
    `rows[i, :ranks[i]]`, every entry in [0, MODP), and pivot columns
    `pivots[i, :ranks[i]]` in insertion order; its rows past the rank are
    zero.
    """
    B, H, W = stack.shape
    p = MODP
    # accumulated dot products must stay exactly representable
    if W * (p - 1) ** 2 >= 2 ** 53:
        raise ValueError(f"width {W} too large for prime {p}")
    stops = np.asarray(stops, dtype=np.intp)
    # no rank exceeds the height, the width or the stop
    R = max(0, min(H, W, int(stops.max(initial=0))))
    buf = np.zeros((B, R, W))
    pivots = np.zeros((B, R), dtype=np.intp)
    ranks = np.zeros(B, dtype=np.intp)
    todo = np.flatnonzero(ranks < stops)
    for t in range(H):
        if not todo.size:
            break
        v = _centered(stack[todo, t], p)
        r = int(ranks[todo].max())
        if r:
            # a buffer row past the rank is zero, so its pivot is moot
            coef = v[np.arange(len(todo))[:, None], pivots[todo, :r]]
            v = _centered(v - (coef[:, None, :] @ buf[todo, :r])[:, 0], p)
        nz = v != 0
        live = nz.any(axis=1)
        if not live.any():
            continue
        got, v = todo[live], v[live]
        lead = nz[live].argmax(axis=1)
        inv = [pow(int(x), p - 2, p) for x in v[np.arange(len(got)), lead].tolist()]
        v = _centered(v * np.array(inv)[:, None], p)
        r = int(ranks[got].max())
        if r:
            rows = buf[got, :r]
            col = rows[np.arange(len(got)), :, lead]
            if col.any():
                buf[got, :r] = _centered(rows - col[:, :, None] * v[:, None, :], p)
        at = ranks[got]
        buf[got, at] = v
        pivots[got, at] = lead
        ranks[got] += 1
        todo = todo[ranks[todo] < stops[todo]]
    np.add(buf, p, out=buf, where=buf < 0)
    return buf, pivots, ranks


def quotient_maps(rows, pivots, ranks, widths=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """For each matrix of an `rref_stack` result, the projection T
    (W - rank, W) onto the quotient by its row space, and its nonpivot
    columns, ascending.  The class of v is T @ v: the j-th nonpivot
    column maps to the j-th quotient coordinate and a pivot column to
    minus its row of E = rows[:, nonpivots].

    W is the matrix's true width, `widths[i]` (default: the stack's
    width for every matrix).  A matrix narrower than the stack was
    zero-padded on the right before `rref_stack`; zero columns are never
    pivots, so its pivots and its rows on the true columns are those of
    the unpadded matrix, and its T is built at the true width and is the
    unpadded matrix's T.  Built in one pass per (rank, width), so no T
    is a view into a buffer wider than itself."""
    B, _, width = rows.shape
    groups: dict = {}
    for i, key in enumerate(zip(ranks.tolist(), [width] * B if widths is None else widths)):
        groups.setdefault(key, []).append(i)
    out: list = [None] * B
    free_cols: list = [None] * B
    for (r, W), members in groups.items():
        idx = np.array(members)
        G, d = len(idx), W - r
        g = np.arange(G)[:, None]
        piv = pivots[idx, :r]
        free = np.ones((G, W), dtype=bool)
        free[g, piv] = False
        nonpiv = np.nonzero(free)[1].reshape(G, d)
        # T transposed, (W, d) per matrix
        Tt = np.zeros((G, W, d))
        Tt[g, nonpiv, np.arange(d)] = 1
        E = rows[idx[:, None, None], np.arange(r)[:, None], nonpiv[:, None, :]]
        Tt[g, piv] = -E % MODP
        for j, i in enumerate(members):
            out[i] = Tt[j].T
            free_cols[i] = nonpiv[j]
    return out, free_cols


class ModPRref:
    """Accumulates vectors mod `MODP`, kept in reduced row-echelon form:
    the single-matrix view of `rref_stack`.

    Rows are stored unsorted; `pivots[i]` is the pivot column of row i,
    in insertion order, and every row is fully reduced against every
    other, so the class of a vector v modulo the row space is
    v - v[pivots] @ rows.  `projection` returns it in quotient
    coordinates: T (width - rank, width), whose row j picks the j-th
    nonpivot column and whose column at pivot i is minus row i at the
    nonpivots, so the class of v is T @ v mod `MODP`.

    `add` runs `rref_stack` on the current rows followed by the new
    ones.  The rows are the unique RREF of their row space, and old rows
    never change their leading column, so each current row goes back in
    unchanged, at its own pivot and place; the result does not depend on
    how rows are split into `add` calls, nor on which other matrices
    share a stack.

    `stop_at_rank` is checked before every row.  Callers pass W - target,
    where the target is an exact lower bound for the quotient dimension:
    the mod-p rank of every row they will ever offer is at most the
    rational rank, W - dim <= W - target, so once the threshold is
    reached the rows already span all of them and stopping only skips
    rows that cannot change them.  A stop below the current rank keeps
    every row.
    """

    def __init__(self, width: int):
        self.width = width
        self._rref = rref_stack(np.zeros((1, 0, width)), [0])

    @property
    def rank(self) -> int:
        return int(self._rref[2][0])

    @property
    def pivots(self) -> list[int]:
        return self._rref[1][0, : self.rank].tolist()

    def rows(self) -> np.ndarray:
        return self._rref[0][0, : self.rank]

    def add(self, block, stop_at_rank: int | None = None) -> None:
        """Insert rows of `block`; stop early once `stop_at_rank` is reached
        (callers use this only when the remaining rows provably cannot
        lower the quotient dimension further)."""
        stop = self.width if stop_at_rank is None else stop_at_rank
        rows = np.concatenate([self.rows(), np.asarray(block, dtype=np.float64)])
        self._rref = rref_stack(rows[None], [max(stop, self.rank)])

    def projection(self) -> np.ndarray:
        """The projection T (width - rank, width) onto the quotient by the
        row space, as `quotient_maps` builds it: the class of v is
        T @ v mod `MODP`."""
        return quotient_maps(*self._rref)[0][0]
