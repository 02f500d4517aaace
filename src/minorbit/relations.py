"""The relation ideal of the doubled Beilinson quiver, written once.

The ideal is quadratic.  It is generated by

    v_i v_j = v_j v_i,  f_i f_j = f_j f_i,  v_j f_i = f_i v_j,
    sum_i f_i v_i = 0 = sum_i v_i f_i,

and `relation_generators` instantiates them as `ff`, `vv` and `mixed`
wherever the words exist, plus one trace per vertex: `trace-vf` (f
first, then v) at s <= n-2 and `trace-fv` (v first, then f) only at the
top vertex s = n-1.  In every length-2 cell these generators are a
basis of the degree-2 relations (the tests check this for n <= 7).

They also generate the ideal of the longer presentation that adds the
cubic relations f_k v_j f_i = f_i v_j f_k, v_j f_i v_l = v_l f_i v_j
and trace-fv at every vertex s >= 1.  Written in application order:

- fvf at s >= 1: (f_i, v_j, f_k) = (v_j, f_i, f_k) by mixed(s),
  = (v_j, f_k, f_i) by ff(s-1), = (f_k, v_j, f_i) by mixed(s).
- fvf at s = 0, n >= 3: (f_i, v_j, f_k) = (f_i, f_k, v_j) by mixed(1),
  = (f_k, f_i, v_j) by ff(0), = (f_k, v_j, f_i) by mixed(1).  For n = 2
  the relations of the cell (0, 1, 3) are spanned by trace-vf(0)
  followed by an f arrow and by an f arrow followed by trace-fv(1).
- vfv is the mirror case, with vv and mixed.
- trace-fv(s) for 1 <= s <= n-2 equals trace-vf(s) modulo the i = j
  generators of mixed(s): their sum over i is trace-vf(s) - trace-fv(s).

The reflection (vertex s -> n-1-s, f_i <-> v_i, each word's steps
kept in order) maps every generator into the integer span of the
generators of its image cell:

- ff(s) -> vv(n-1-s) and vv(s) -> ff(n-1-s), term for term;
- mixed(s) for (i, j) -> minus mixed(n-1-s) for (j, i), since
  (f_i, v_j) - (v_j, f_i) goes to (v_i, f_j) - (f_j, v_i);
- trace-vf(s) -> trace-fv(n-1-s).  That is a generator at s = 0, and
  for 1 <= s <= n-2 it is trace-vf(n-1-s) minus the i = j generators
  of mixed(n-1-s), as shown above.  trace-fv(n-1) -> trace-vf(0).

The reflection is a graded automorphism of the path algebra over Z and
an involution, and the ideal is generated in degree 2, so it maps the
ideal onto itself and is an automorphism of the quotient.  It carries
the paths out of vertex a onto the paths out of n-1-a, and on the cone
it is the transpose X -> X^T.

`quiveralg` builds the quotient path algebra from these generators and
`repmoduli` evaluates them on representations, so both check the same
algebra.  Words are step tuples in application order (first arrow
applied first); an ("f", i) step moves from vertex k to k+1 and a
("v", j) step from k to k-1.  This module imports only the standard
library, so that importing `repmoduli` loads no numpy.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


class RelationGen(namedtuple("RelationGen", "source target terms name")):
    """One vertex-instantiated generating relation: a formal combination
    of same-source, same-target two-arrow words.  terms holds
    (coeff, word) pairs."""

    __slots__ = ()


@lru_cache(maxsize=None)
def relation_generators(n: int) -> tuple[RelationGen, ...]:
    gens: list[RelationGen] = []

    # a family's terms do not depend on the vertex: store each tuple once
    shared: dict = {}

    def add(s, t, terms, name):
        terms = shared.setdefault(tuple(terms), tuple(terms))
        gens.append(RelationGen(s, t, terms, name))

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
        if s == n - 1:
            add(s, s, [(1, (("v", i), ("f", i))) for i in range(1, n + 1)], "trace-fv")
        else:
            add(s, s, [(1, (("f", i), ("v", i))) for i in range(1, n + 1)], "trace-vf")
    return tuple(gens)
