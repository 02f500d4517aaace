from itertools import combinations, product

import numpy as np
import pytest

from minorbit import bwb, combinat
from minorbit.combinat import (
    dim_sym,
    dim_wedge,
    lr_product,
    normalize_partition,
    weyl_dim,
)


def all_partitions(size, max_rows=None):
    if size == 0:
        yield ()
        return
    def rec(rem, maxpart, acc):
        if rem == 0:
            yield tuple(acc)
            return
        for p in range(min(rem, maxpart), 0, -1):
            if max_rows is not None and len(acc) == max_rows:
                return
            yield from rec(rem - p, p, acc + [p])
    yield from rec(size, size, [])


def test_dim_sym_examples():
    assert dim_sym(3, 2) == 6
    assert dim_sym(2, 0) == 1
    assert dim_sym(5, -1) == 0


def test_dim_wedge_examples():
    assert dim_wedge(4, 2) == 6
    assert dim_wedge(3, 0) == 1
    assert dim_wedge(3, 5) == 0


def test_pascal_recurrence():
    for n in range(2, 7):
        for k in range(1, 10):
            assert dim_sym(n, k) == dim_sym(n - 1, k) + dim_sym(n, k - 1)


def test_weyl_dim_examples():
    assert weyl_dim(3, (1, 0, 0)) == 3
    assert weyl_dim(3, (2, 1, 0)) == 8
    for k in range(6):
        assert weyl_dim(2, (k, 0)) == k + 1


def test_weyl_dim_shift_invariance():
    for lam in [(3, 1, 0), (2, 2, 1), (0, -1, -4), (5, 0, 0)]:
        base = weyl_dim(3, lam)
        for c in (-3, -1, 1, 7):
            assert weyl_dim(3, tuple(x + c for x in lam)) == base


def test_weyl_dim_rejects_non_decreasing():
    with pytest.raises(ValueError):
        weyl_dim(3, (0, 1, 0))


def test_partition_normalization():
    assert normalize_partition((3, 1, 0, 0)) == (3, 1)
    assert normalize_partition(()) == ()
    with pytest.raises(ValueError):
        normalize_partition((1, 2))


def test_lr_examples():
    assert lr_product((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert lr_product((1, 1), (1,)) == {(2, 1): 1, (1, 1, 1): 1}
    assert lr_product((), (3, 1)) == {(3, 1): 1}


def _pairs_up_to(size):
    """Every pair of partitions with |lam| + |mu| <= size."""
    for total in range(size + 1):
        for s1 in range(total + 1):
            for lam in all_partitions(s1):
                for mu in all_partitions(total - s1):
                    yield lam, mu


def test_lr_symmetric():
    # the factor with fewer boxes fills the strips; the product is
    # symmetric, and empty when a factor has more rows than the cap
    for lam, mu in _pairs_up_to(8):
        for r in (None, 0, 1, 2, 3, 4, 5):
            prod = lr_product(lam, mu, max_rows=r)
            assert prod == lr_product(mu, lam, max_rows=r), (lam, mu, r)
            if r is not None and max(len(lam), len(mu)) > r:
                assert prod == {}, (lam, mu, r)


def test_lr_sizes_add_up():
    for lam, mu in product([(2, 1), (1, 1, 1), (3,)], repeat=2):
        total = sum(lam) + sum(mu)
        for nu, c in lr_product(lam, mu).items():
            assert c >= 1
            assert sum(nu) == total


def test_lr_pieri_rule():
    # multiplying by a single row gives horizontal strips, multiplicity one
    for lam in [(2, 1), (3, 1, 1), (2, 2)]:
        for k in range(1, 5):
            prod = lr_product(lam, (k,))
            for nu, c in prod.items():
                assert c == 1
                padded = tuple(lam) + (0,) * (len(nu) - len(lam))
                assert all(nu[i] >= padded[i] for i in range(len(nu)))
                assert all(
                    nu[i + 1] <= padded[i] for i in range(len(nu) - 1)
                )


def test_dimension_additivity_exhaustive():
    # dim(S_lam) * dim(S_mu) = sum of multiplicities times dims, GL_m, m <= 4
    for m in range(2, 5):
        for total in range(0, 7):
            for s1 in range(total + 1):
                for lam in all_partitions(s1, max_rows=m):
                    for mu in all_partitions(total - s1, max_rows=m):
                        lhs = weyl_dim(m, lam) * weyl_dim(m, mu)
                        rhs = sum(
                            c * weyl_dim(m, nu)
                            for nu, c in lr_product(lam, mu, max_rows=m).items()
                        )
                        assert lhs == rhs, (m, lam, mu)


def reference_lr(lam, mu):
    """Littlewood-Richardson coefficients from explicit fillings: every
    chain of horizontal strips, kept when its reverse reading word (rows
    top to bottom, each right to left) is a lattice word."""
    results = {}

    def strips(shape, size):
        padded = shape + (0,)

        def rec(i, left):
            if i == len(padded):
                if left == 0:
                    yield ()
                return
            hi = padded[i] + left if i == 0 else min(padded[i] + left, padded[i - 1])
            for new in range(padded[i], hi + 1):
                for tail in rec(i + 1, left - (new - padded[i])):
                    yield (new,) + tail

        for cand in rec(0, size):
            yield normalize_partition(cand)

    def is_lattice(rows):
        counts = {}
        for row in rows:
            for letter in reversed(row):
                counts[letter] = counts.get(letter, 0) + 1
                if letter > 0 and counts.get(letter - 1, 0) < counts[letter]:
                    return False
        return True

    def rec(i, shape, rows):
        if i == len(mu):
            if is_lattice(rows):
                results[shape] = results.get(shape, 0) + 1
            return
        for new in strips(shape, mu[i]):
            old = shape + (0,) * (len(new) - len(shape))
            grown = rows + [[] for _ in range(len(new) - len(rows))]
            rec(i + 1, new, [r + [i] * (new[j] - old[j]) for j, r in enumerate(grown)])

    rec(0, tuple(lam), [[] for _ in lam])
    return results


def test_lr_matches_the_filling_reference():
    # every pair with |lam| + |mu| <= 8, with and without a row cap
    for lam, mu in _pairs_up_to(8):
        ref = reference_lr(lam, mu)
        assert lr_product(lam, mu) == ref, (lam, mu)
        for m in (1, 2, 3):
            assert lr_product(lam, mu, max_rows=m) == {
                nu: c for nu, c in ref.items() if len(nu) <= m}, (lam, mu, m)


def test_lr_vertical_pieri_rule():
    # multiplying by a single column gives every vertical strip, each once
    for lam in [(), (1,), (2, 1), (3, 1, 1), (2, 2), (4, 2, 2, 1)]:
        for k in range(11):
            rows = len(lam) + k
            padded = lam + (0,) * k
            strips = set()
            for added in combinations(range(rows), k):
                nu = tuple(p + (i in added) for i, p in enumerate(padded))
                if all(nu[i] >= nu[i + 1] for i in range(rows - 1)):
                    strips.add(normalize_partition(nu))
            prod = lr_product(lam, (1,) * k)
            assert set(prod) == strips, (lam, k)
            assert set(prod.values()) == {1}, (lam, k)


def test_dimension_additivity_for_two_columns():
    # GL_10: dim(Lambda^h1) * dim(Lambda^h2) for columns of height <= 10
    m = 10
    for h1 in range(m + 1):
        for h2 in range(m + 1):
            rhs = sum(c * weyl_dim(m, nu)
                      for nu, c in lr_product((1,) * h1, (1,) * h2, max_rows=m).items())
            assert dim_wedge(m, h1) * dim_wedge(m, h2) == rhs, (h1, h2)


def test_entries_must_be_integers():
    # int() used to truncate: weyl_dim(3, (2.9, 0.5)) returned dim (2, 0)
    for call in (lambda: weyl_dim(3, (2.9, 0.5)),
                 lambda: normalize_partition(("2", "1")),
                 lambda: lr_product((1.9,), (1,)),
                 lambda: bwb.schur_of_omega1(3, (1.5,))):
        with pytest.raises(TypeError):
            call()
    assert weyl_dim(3, np.array([2, 1, 0])) == weyl_dim(3, (2, 1)) == 8
    assert normalize_partition((np.int64(2), np.int32(1), 0)) == (2, 1)


def test_strips_stop_at_the_row_cap(monkeypatch):
    # a product filtered after the fact has the same output, so watch
    # the strips themselves: none may put a box in a row at or past the cap
    real = combinat._horizontal_strips
    seen, placed = [], 0

    def watched(*args):
        for strip in real(*args):
            seen.append(strip)
            yield strip

    monkeypatch.setattr(combinat, "_horizontal_strips", watched)
    combinat._lr_cached.cache_clear()
    try:
        for lam, mu in _pairs_up_to(7):
            for cap in range(1, 5):
                seen.clear()
                lr_product(lam, mu, max_rows=cap)
                assert all(not k for strip in seen for k in strip[cap:]), (lam, mu, cap)
                placed += len(seen)
    finally:
        combinat._lr_cached.cache_clear()
    assert placed  # the products were built here, strip by strip
