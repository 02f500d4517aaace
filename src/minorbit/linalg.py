"""Exact and certified linear algebra helpers.

Two rank routines are provided:

- `rank_exact`: exact fraction-free elimination over the integers, for
  the small matrices of the direct path-algebra oracle (the fallback
  when a quiver cell fails certification);
- `ModPRref`: a mod-p reduced-row-echelon accumulator on numpy float64
  buffers, the one elimination kernel of the quiver engine (float64
  arithmetic is exact because width * (p - 1)**2 < 2**53 is enforced).

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
# largest prime below 2**16; used when row widths would push float64
# dot products past 2**53 with the default prime
MODP_SMALL = 65521

# rows per elimination chunk of ModPRref.add; the result does not depend
# on it (the buffer is the unique RREF of its row space)
_CHUNK = 512


def rank_exact(rows, ncols: int) -> int:
    """Rank over Q of integer rows given as {col: coeff} dicts.

    Fraction-free elimination with gcd reduction; intended for the small
    matrices of the direct path-algebra oracle and unit tests.
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


class ModPRref:
    """Accumulates vectors mod p, kept in reduced row-echelon form.

    Rows are stored unsorted; `pivots[i]` is the pivot column of row i and
    every row is fully reduced against every other, so the class of a
    vector v modulo the row space is v - v[pivots] @ rows.

    `add` eliminates block-wise (delayed reduction in the style of
    FFLAS-FFPACK).  Each chunk of offered rows is reduced against the
    buffer with one matrix product, its surviving rows are brought to
    reduced row-echelon form among themselves only, and the rows already
    in the buffer are then cleared at the new pivots with one more
    product and a single `% p`.  Old rows never change their leading
    column, so the buffer is always the unique RREF of its row space:
    the result does not depend on how rows are split into chunks or
    `add` calls.

    `stop_at_rank` is checked before every row, also inside a chunk, and
    a chunk that stops early still clears the older rows at the pivots
    it added.  Callers pass W - target, where the target is an exact
    lower bound for the quotient dimension: the mod-p rank of every row
    they will ever offer is at most the rational rank, W - dim <=
    W - target, so once the threshold is reached the buffer already
    spans all of them and stopping only skips rows that cannot change it.
    """

    def __init__(self, width: int, p: int = MODP):
        self.width = width
        self.p = p
        # accumulated dot products must stay exactly representable
        if width * (p - 1) ** 2 >= 2 ** 53:
            raise ValueError(
                f"width {width} too large for prime {p}; use a smaller prime"
            )
        self._buf = np.zeros((max(16, min(width, 1024)), width))
        self._n = 0
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return self._n

    def rows(self) -> np.ndarray:
        return self._buf[: self._n]

    def reduce(self, block) -> np.ndarray:
        """Reduce the rows of `block` modulo the current row space."""
        block = np.asarray(block, dtype=np.float64) % self.p
        if self._n:
            # rows()[:, pivots] is the identity, so the pivot columns of
            # the result are zero and only the free columns are computed
            free = self.nonpivots()
            out = np.zeros_like(block)
            out[:, free] = (
                block[:, free] - block[:, self.pivots] @ self._buf[: self._n, free]
            ) % self.p
            block = out
        return block

    def _grow(self) -> None:
        if self._n == self._buf.shape[0]:
            new = np.zeros((2 * self._buf.shape[0], self.width))
            new[: self._n] = self._buf[: self._n]
            self._buf = new

    def add(self, block, stop_at_rank: int | None = None) -> None:
        """Insert rows of `block`; stop early once `stop_at_rank` is reached
        (callers use this only when the remaining rows provably cannot
        lower the quotient dimension further)."""
        block = np.asarray(block, dtype=np.float64)
        p = self.p
        for start in range(0, block.shape[0], _CHUNK):
            if stop_at_rank is not None and self._n >= stop_at_rank:
                return
            sub = self.reduce(block[start : start + _CHUNK])
            base = self._n
            for row in sub:
                if stop_at_rank is not None and self._n >= stop_at_rank:
                    break
                # only this chunk's rows: sub is already reduced by the rest
                new = self._buf[base : self._n]
                if self._n > base:
                    row = (row - row[self.pivots[base:]] @ new) % p
                nz = np.flatnonzero(row)
                if nz.size == 0:
                    continue
                lead = int(nz[0])
                row = (row * pow(int(row[lead]), p - 2, p)) % p
                col = new[:, lead]
                if np.any(col):
                    new[:] = (new - np.outer(col, row)) % p
                self._grow()
                self._buf[self._n] = row
                self._n += 1
                self.pivots.append(lead)
            if 0 < base < self._n:
                # the chunk's rows are zero at the old pivots and the
                # identity at their own, so the update clears the old
                # rows at the new pivots and changes only free columns
                free = self.nonpivots()
                newp = self.pivots[base:]
                old = self._buf[:base]
                upd = (old[:, free] - old[:, newp] @ self._buf[base : self._n, free]) % p
                old[:, newp] = 0
                old[:, free] = upd

    def nonpivots(self) -> list[int]:
        pset = set(self.pivots)
        return [c for c in range(self.width) if c not in pset]

    def projection(self) -> tuple[list[int], np.ndarray]:
        """Quotient coordinates: (nonpivot columns, matrix E) so that the
        class of v is v[nonpivots] - v[pivots] @ E."""
        nonpiv = self.nonpivots()
        return nonpiv, self.rows()[:, nonpiv].copy()
