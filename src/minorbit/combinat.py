"""Exact combinatorial kernel.

Partitions are stored as tuples of weakly decreasing positive integers
with trailing zeros stripped; the empty tuple is the empty partition.
All functions return exact integers; entries are read with
`operator.index`, so a float or a string raises TypeError.
Littlewood-Richardson products are chains of horizontal strips, each
cut as it is placed (see `lr_product`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, index

Partition = tuple


def normalize_partition(parts) -> tuple[int, ...]:
    """Canonical form: validate weak decrease / nonnegativity, strip zeros."""
    out = tuple(map(index, parts))
    for i in range(len(out) - 1):
        if out[i] < out[i + 1]:
            raise ValueError(f"not weakly decreasing: {out}")
    if out and out[-1] < 0:
        raise ValueError(f"negative part: {out}")
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def dim_sym(n: int, k: int) -> int:
    """Dimension of Sym^k of an n-dimensional space; 0 for k < 0."""
    if n < 1:
        raise ValueError("n must be positive")
    return comb(n + k - 1, k) if k >= 0 else 0


def dim_wedge(n: int, k: int) -> int:
    """Dimension of the k-th exterior power of an n-dimensional space."""
    if n < 1:
        raise ValueError("n must be positive")
    return comb(n, k) if 0 <= k <= n else 0


def weyl_dim(m: int, weights) -> int:
    """Dimension of the GL_m irreducible with highest weight `weights`.

    `weights` is a weakly decreasing integer vector of length <= m (entries
    may be negative when full length is given); shorter input is padded
    with zeros.  The product formula

        prod_{i<j} (w_i - w_j + j - i) / (j - i)

    is evaluated with exact integer division.  The value is invariant under
    adding a constant to all entries (a determinant twist).
    """
    w = list(map(index, weights))
    if len(w) > m:
        raise ValueError(f"weight has more than {m} entries: {w}")
    w += [0] * (m - len(w))
    for i in range(m - 1):
        if w[i] < w[i + 1]:
            raise ValueError(f"not weakly decreasing: {tuple(w)}")
    num = 1
    den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def _horizontal_strips(shape: tuple[int, ...], size: int, above: tuple[int, ...],
                       rows: int):
    """Horizontal strips of `size` boxes on `shape` (no two boxes in one
    column) in rows below `rows`, each as its box count per row, whose
    boxes in rows 0..r number at most above[r] for every r."""
    padded = (shape + (0,))[:rows]

    def rec(r, left):
        if r == len(padded):
            if not left:
                yield ()
            return
        # row r may not pass the old row r-1, nor the bound of rows 0..r
        room = left if r == 0 else min(left, padded[r - 1] - padded[r])
        for k in range(min(room, above[r] - size + left) + 1):
            for tail in rec(r + 1, left - k):
                yield (k,) + tail

    return rec(0, size)


@lru_cache(maxsize=None)
def _lr_cached(lam: tuple, mu: tuple, rows: int) -> tuple:
    results: dict[tuple, int] = {}

    # letter i fills the i-th strip; `prev` is the strip of letter i-1
    def rec(i, shape, prev):
        if i == len(mu):
            results[shape] = results.get(shape, 0) + 1
            return
        above = (0, *accumulate(prev)) if i else (mu[0],) * (len(shape) + 1)
        for strip in _horizontal_strips(shape, mu[i], above, rows):
            new = tuple(map(add, shape + (0,), strip))
            rec(i + 1, new if new[-1] else new[:-1], strip)

    rec(0, lam, ())
    return tuple(sorted(results.items()))


def lr_product(lam, mu, max_rows: int | None = None) -> dict[tuple, int]:
    """Littlewood-Richardson decomposition of the product of Schur
    functors ``S_lam . S_mu`` as a multiset {nu: c^nu_{lam,mu}}, without
    the nu of more than `max_rows` rows (GL_m truncation).

    c^nu_{lam,mu} counts the semistandard fillings of nu/lam with content
    mu whose reverse reading word (rows top to bottom, each right to
    left) is a lattice word.  They are built as chains of horizontal
    strips, letter i filling the i-th strip on the shape of the smaller
    letters: a strip puts its boxes right of the smaller letters in a
    row and below them in a column, at most one per column, so the
    filling is semistandard.  Read right to left, each row's letters
    decrease, so the i's of row r are read together, after rows 0..r-1
    and before the (i-1)'s of row r.  Only reading an i raises the
    count of i against that of i-1, so the word is a lattice word
    exactly when, for each letter i > 0 and row r, the i's in rows 0..r
    number at most the (i-1)'s in rows 0..r-1; each strip is cut by
    that bound as it is placed.  Strips only add boxes, so a shape past
    the cap never comes back under it: no strip puts a box there.  As
    c^nu_{lam,mu} = c^nu_{mu,lam}, the factor with fewer boxes fills
    the strips.
    """
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    rows = len(lam) + len(mu) if max_rows is None else max_rows
    return dict(_lr_cached(lam, mu, rows)) if len(lam) <= rows else {}
