"""The relation ideal of the doubled Beilinson quiver, written once.

The ideal is generated by

    v_i v_j = v_j v_i,  f_i f_j = f_j f_i,  v_j f_i = f_i v_j,
    f_k v_j f_i = f_i v_j f_k,  v_j f_i v_l = v_l f_i v_j,
    sum_i f_i v_i = 0 = sum_i v_i f_i,

instantiated at every vertex where the words exist.  `quiveralg` builds
the quotient path algebra from these generators and `repmoduli`
evaluates them on representations, so both check the same algebra.
Words are step tuples in application order (first arrow applied
first); an ("f", i) step moves from vertex k to k+1 and a ("v", j) step
from k to k-1.  This module imports only the standard library, so that
importing `repmoduli` loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True, slots=True)
class RelationGen:
    """One vertex-instantiated generating relation: a formal combination
    of same-source, same-target words."""

    source: int
    target: int
    length: int
    terms: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]
    name: str


@lru_cache(maxsize=None)
def relation_generators(n: int) -> tuple[RelationGen, ...]:
    gens: list[RelationGen] = []

    # a family's terms do not depend on the vertex: store each tuple once
    shared: dict = {}

    def add(s, t, terms, name):
        terms = shared.setdefault(tuple(terms), tuple(terms))
        gens.append(RelationGen(s, t, len(terms[0][1]), terms, name))

    for s in range(n):
        if s <= n - 3:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    add(s, s + 2, [
                        (1, (("f", i), ("f", j))),
                        (-1, (("f", j), ("f", i))),
                    ], "ff")
        if s >= 2:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    add(s, s - 2, [
                        (1, (("v", i), ("v", j))),
                        (-1, (("v", j), ("v", i))),
                    ], "vv")
        if 1 <= s <= n - 2:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    # v_j f_i (f first) = f_i v_j (v first)
                    add(s, s, [
                        (1, (("f", i), ("v", j))),
                        (-1, (("v", j), ("f", i))),
                    ], "mixed")
        if s <= n - 2:
            for j in range(1, n + 1):
                for i in range(1, n + 1):
                    for k in range(i + 1, n + 1):
                        add(s, s + 1, [
                            (1, (("f", i), ("v", j), ("f", k))),
                            (-1, (("f", k), ("v", j), ("f", i))),
                        ], "fvf")
        if s >= 1:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for l in range(j + 1, n + 1):
                        add(s, s - 1, [
                            (1, (("v", l), ("f", i), ("v", j))),
                            (-1, (("v", j), ("f", i), ("v", l))),
                        ], "vfv")
        if s >= 1:
            add(s, s, [(1, (("v", i), ("f", i))) for i in range(1, n + 1)], "trace-fv")
        if s <= n - 2:
            add(s, s, [(1, (("f", i), ("v", i))) for i in range(1, n + 1)], "trace-vf")
    return tuple(gens)
