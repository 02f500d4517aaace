"""Exact and certified linear algebra helpers.

Two rank routines are provided:

- `rank_exact`: exact fraction-free elimination over the integers, for
  the small matrices of the direct path-algebra oracle (the tests'
  reference for the quiver engine);
- `ModPRref`: a mod-p reduced-row-echelon accumulator on numpy float64
  buffers, the one elimination kernel of the quiver engine.  It works
  modulo one fixed prime, `MODP`.  Float64 arithmetic is exact while
  width * (MODP - 1)**2 < 2**53, that is for widths up to 8192; the
  engine's torus-weight blocks are at most 180 wide (n=6, l=6).

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
    """Accumulates vectors mod `MODP`, kept in reduced row-echelon form.

    Rows are stored unsorted; `pivots[i]` is the pivot column of row i,
    in insertion order, and every row is fully reduced against every
    other, so the class of a vector v modulo the row space is
    v - v[pivots] @ rows.

    `add` inserts one row at a time: the row is reduced against the
    buffer, scaled to a leading 1, and cleared from the other rows at
    its pivot.  Two facts keep this loop all the kernel needs.  The
    buffer is the unique RREF of its row space (old rows never change
    their leading column), so the result does not depend on how rows are
    split into `add` calls.  And the rank of a block is at most its
    width, so the buffer, which grows as rows arrive, never holds more
    than `width` rows; the quiver engine eliminates torus-weight blocks
    at most 180 wide.

    `stop_at_rank` is checked before every row.  Callers pass W - target,
    where the target is an exact lower bound for the quotient dimension:
    the mod-p rank of every row they will ever offer is at most the
    rational rank, W - dim <= W - target, so once the threshold is
    reached the buffer already spans all of them and stopping only skips
    rows that cannot change it.
    """

    def __init__(self, width: int):
        # accumulated dot products must stay exactly representable
        if width * (MODP - 1) ** 2 >= 2 ** 53:
            raise ValueError(f"width {width} too large for prime {MODP}")
        self.width = width
        self._buf = np.zeros((0, width))
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rows(self) -> np.ndarray:
        return self._buf[: self.rank]

    def add(self, block, stop_at_rank: int | None = None) -> None:
        """Insert rows of `block`; stop early once `stop_at_rank` is reached
        (callers use this only when the remaining rows provably cannot
        lower the quotient dimension further)."""
        block = np.asarray(block, dtype=np.float64) % MODP
        r = self.rank
        height = min(r + block.shape[0], self.width)
        if height > self._buf.shape[0]:
            buf = np.zeros((height, self.width))
            buf[:r] = self._buf[:r]
            self._buf = buf
        for row in block:
            if stop_at_rank is not None and r >= stop_at_rank:
                return
            rows = self._buf[:r]
            if r:
                row = (row - row[self.pivots] @ rows) % MODP
            nz = np.flatnonzero(row)
            if nz.size == 0:
                continue
            lead = int(nz[0])
            row = (row * pow(int(row[lead]), MODP - 2, MODP)) % MODP
            col = rows[:, lead]
            if np.any(col):
                rows[:] = (rows - np.outer(col, row)) % MODP
            self._buf[r] = row
            self.pivots.append(lead)
            r += 1

    def nonpivots(self) -> list[int]:
        pset = set(self.pivots)
        return [c for c in range(self.width) if c not in pset]

    def projection(self) -> tuple[list[int], np.ndarray]:
        """Quotient coordinates: (nonpivot columns, matrix E) so that the
        class of v is v[nonpivots] - v[pivots] @ E."""
        nonpiv = self.nonpivots()
        return nonpiv, self.rows()[:, nonpiv].copy()
