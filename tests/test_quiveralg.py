from itertools import permutations, product

import numpy as np
import pytest

from minorbit import acceptance, quiveralg
from minorbit.cli import main
from minorbit.linalg import MODP, ModPRref, rank_exact
from minorbit.quiveralg import (
    CertificationError,
    QuiverDimEngine,
    Quiver,
    QuiverWord,
    compare_with_nccr,
    enumerate_paths,
    graded_dim,
    graded_dim_direct,
    path_count,
    relation_generators,
    relation_instances,
)
from minorbit.relations import RelationGen


def test_word_validity():
    QuiverWord(2, 0, (("f", 1), ("v", 2)))
    with pytest.raises(ValueError):
        QuiverWord(2, 0, (("v", 1),))
    with pytest.raises(ValueError):
        QuiverWord(2, 1, (("f", 1),))


def test_enumerate_paths_examples():
    q2 = Quiver(2)
    assert len(enumerate_paths(q2, 0, 1, 1)) == 2
    assert enumerate_paths(Quiver(3), 0, 0, 1) == []
    assert len(enumerate_paths(q2, 0, 0, 2)) == 4


def test_path_count_matches_enumeration():
    for n in (2, 3):
        q = Quiver(n)
        for a in range(n):
            for b in range(n):
                for l in range(5):
                    assert path_count(n, a, b, l) == len(
                        enumerate_paths(q, a, b, l)
                    )


def test_relation_instances_examples():
    q2 = Quiver(2)
    inst = relation_instances(q2, 0, 0, 2)
    assert len(inst) == 1
    (vec,) = inst
    assert sorted(vec.values()) == [1, 1]  # the f-then-v trace loop at 0
    inst3 = relation_instances(Quiver(3), 0, 2, 2)
    assert len(inst3) == 3  # the C(3,2) ff-commutators
    for n in (2, 3):
        assert relation_instances(Quiver(n), 0, 1, 1) == []


def test_graded_dim_examples():
    q2 = Quiver(2)
    assert graded_dim_direct(q2, 0, 0, 2) == 3
    assert graded_dim_direct(q2, 0, 0, 4) == 5
    assert graded_dim_direct(Quiver(3), 0, 1, 1) == 3


def test_degenerate_length_zero():
    for n in (2, 3):
        q = Quiver(n)
        for a in range(n):
            for b in range(n):
                assert graded_dim(q, a, b, 0) == (1 if a == b else 0)


def test_engine_matches_direct_oracle():
    for n, lmax in ((2, 6), (3, 4)):
        q = Quiver(n)
        for l in range(lmax + 1):
            for a in range(n):
                for b in range(n):
                    if path_count(n, a, b, l) == 0:
                        continue
                    assert graded_dim(q, a, b, l) == graded_dim_direct(q, a, b, l)


def test_dim_below_free_path_count():
    for n in (2, 3):
        q = Quiver(n)
        for l in range(5):
            for a in range(n):
                for b in range(n):
                    assert graded_dim(q, a, b, l) <= path_count(n, a, b, l)


def test_label_swap_symmetry():
    # exchanging forward and backward arrows reflects vertices, so the
    # cell (a, b) matches both (b, a) and (n-1-a, n-1-b)
    for n in (2, 3):
        q = Quiver(n)
        for l in range(7):
            for a in range(n):
                for b in range(n):
                    d = graded_dim(q, a, b, l)
                    assert d == graded_dim(q, b, a, l)
                    assert d == graded_dim(q, n - 1 - a, n - 1 - b, l)


def test_generator_terms_are_composable_and_uniform():
    for n in (2, 3, 4):
        for gen in relation_generators(n):
            for _, steps in gen.terms:
                w = QuiverWord(n, gen.source, steps)
                assert w.target == gen.target
                assert len(steps) == 2


def _dropped_generators(n):
    """The relations the quadratic presentation leaves out, as
    (source, target, length, {word: coeff}): the cubic fvf and vfv
    commutations and trace-fv at the interior vertices."""
    out = []

    def rel(s, t, terms):
        vec = {}
        for c, steps in terms:
            w = QuiverWord(n, s, steps)
            vec[w] = vec.get(w, 0) + c
        out.append((s, t, len(terms[0][1]), vec))

    labels = range(1, n + 1)
    for s in range(n):
        for j in labels:
            for i in labels:
                for k in range(i + 1, n + 1):
                    if s <= n - 2:
                        rel(s, s + 1, [(1, (("f", i), ("v", j), ("f", k))),
                                       (-1, (("f", k), ("v", j), ("f", i)))])
                    if s >= 1:
                        rel(s, s - 1, [(1, (("v", i), ("f", j), ("v", k))),
                                       (-1, (("v", k), ("f", j), ("v", i)))])
        if 1 <= s <= n - 2:
            rel(s, s, [(1, (("v", i), ("f", i))) for i in labels])
    return out


def test_dropped_generators_lie_in_the_kept_ideal():
    # each left-out relation is in the span of the kept generators'
    # instances in its own cell, so both presentations give one ideal
    for n in range(2, 7):
        q = Quiver(n)
        cells = {}
        for s, t, length, vec in _dropped_generators(n):
            cells.setdefault((s, t, length), []).append(vec)
        for (a, b, length), dropped in cells.items():
            index = {w: i for i, w in enumerate(enumerate_paths(q, a, b, length))}
            kept = [{index[w]: c for w, c in vec.items()}
                    for vec in relation_instances(q, a, b, length)]
            extra = [{index[w]: c for w, c in vec.items()} for vec in dropped]
            assert rank_exact(kept + extra, len(index)) == rank_exact(
                kept, len(index)
            ), (n, a, b, length)


def test_generators_are_a_basis_of_the_degree_two_relations():
    # in a length-2 cell every instance is a bare generator; they must be
    # independent and exactly as many as the relations the cell needs.
    # The reflection s -> n-1-s, f_i <-> v_i must carry the generators of
    # the mirror cell (n-1-a, n-1-b) into the span of the cell's own,
    # checked here on the words of the cell, apart from the engine's check
    flip = {"f": "v", "v": "f"}
    for n in range(2, 8):
        q = Quiver(n)
        for a in range(n):
            for b in range(n):
                npaths = path_count(n, a, b, 2)
                if npaths == 0:
                    continue
                gens = [g for g in relation_generators(n)
                        if (g.source, g.target) == (a, b)]
                assert len(gens) == npaths - quiveralg._cell_target(n, a, b, 2)
                index = {w: i for i, w in enumerate(enumerate_paths(q, a, b, 2))}
                rows = [{index[QuiverWord(n, a, steps)]: c for c, steps in g.terms}
                        for g in gens]
                assert rank_exact(rows, npaths) == len(gens), (n, a, b)
                images = [{index[QuiverWord(n, a, tuple((flip[k], i) for k, i in steps))]: c
                           for c, steps in g.terms}
                          for g in relation_generators(n)
                          if (g.source, g.target) == (n - 1 - a, n - 1 - b)]
                assert len(images) == len(gens)
                assert rank_exact(rows + images, npaths) == len(gens), (n, a, b)


def test_engine_refuses_n_below_2():
    # n = 1 would build levels and certify its lone vertex's cells
    for n in (1, 0):
        with pytest.raises(ValueError, match="n must be at least 2"):
            QuiverDimEngine(n)


def test_engine_certified_at_small_n():
    eng = QuiverDimEngine(2)
    eng.ensure(8)
    assert eng.uncertified == []


def test_compare_examples():
    assert compare_with_nccr(2, 6).passed
    rep = compare_with_nccr(3, 6)
    assert rep.passed
    assert not rep.mismatches
    d = rep.as_dict()
    assert d["pass"] is True and d["cells_checked"] == len(rep.cells)
    assert d["mismatches"] == []
    eng = QuiverDimEngine(3)
    assert {(c.a, c.b, c.length): c.dim for c in rep.cells} == {
        cell: eng.dim(*cell) for cell in quiveralg._parity_cells(3, 6)}


def test_compare_cells_parity_invariant():
    for n in (2, 3):
        table = {(c.a, c.b, c.length): c.dim for c in compare_with_nccr(n, 5).cells}
        assert set(table) == {
            (a, b, l)
            for l in range(6) for a in range(n) for b in range(n)
            if (l - (b - a)) % 2 == 0
        }
        for (a, b, l), d in table.items():
            if l < abs(b - a):
                assert d == 0
            elif l == abs(b - a):
                assert d > 0


def _no_direct_calls(monkeypatch):
    """Record every call of the direct oracle; graded_dim must make none."""
    calls = []
    monkeypatch.setattr(quiveralg, "graded_dim_direct",
                        lambda *args: calls.append(args))
    return calls


def test_uncertified_cell_raises_without_the_direct_oracle(monkeypatch, understate_target):
    # a small cell once went to the direct oracle; now it raises like any
    # other, carrying the engine's entry, and the oracle is never asked.
    # (2, 1, 3) is the mirror of (0, 1, 3): the engine reads its dim off
    # row 0, but compares it with its own target, so either cell fails
    # alone while the other stays certified
    calls = _no_direct_calls(monkeypatch)
    assert path_count(3, 0, 1, 3) < path_count(3, 1, 1, 6)
    for cell, mirror in (((0, 1, 3), (2, 1, 3)), ((2, 1, 3), (0, 1, 3))):
        understate_target((3,) + cell)
        with pytest.raises(CertificationError, match=r"a=%d, b=%d, l=%d" % cell) as e:
            graded_dim(Quiver(3), *cell)
        assert e.value.cell == cell + (15, 14)
        assert quiveralg._engines[3].uncertified == [cell + (15, 14)]
        assert graded_dim(Quiver(3), *mirror) == 15
    assert calls == []


def test_uncertified_large_cell_raises(monkeypatch, understate_target):
    calls = _no_direct_calls(monkeypatch)
    understate_target((3, 1, 1, 6))
    with pytest.raises(CertificationError, match=r"a=1, b=1, l=6") as e:
        graded_dim(Quiver(3), 1, 1, 6)
    assert e.value.cell == (1, 1, 6, 64, 63)
    assert quiveralg._engines[3].uncertified == [(1, 1, 6, 64, 63)]
    assert calls == []


def test_compare_lists_an_uncertified_cell_and_keeps_going(understate_target):
    understate_target((3, 1, 1, 6))
    rep = compare_with_nccr(3, 6)
    assert not rep.passed
    assert rep.mismatches == ((1, 1, 6, 64, 63),)
    assert rep.as_dict()["mismatches"] == [
        {"a": 1, "b": 1, "length": 6, "dim": 64, "target": 63}]
    # every other parity cell is still certified and reported
    expected = set(quiveralg._parity_cells(3, 6)) - {(1, 1, 6)}
    assert {(c.a, c.b, c.length) for c in rep.cells} == expected
    assert rep.as_dict()["cells_checked"] == len(expected) + 1


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_weight_targets_sum_to_the_cell_target():
    # the weights of a cell are the alpha - beta, with alpha and beta
    # compositions of its forward and backward arrow counts into n parts
    for n in range(2, 6):
        for l in range(8):
            for a in range(n):
                for b in range(n):
                    up2, down2 = l + (b - a), l - (b - a)
                    if up2 < 0 or down2 < 0 or up2 % 2:
                        continue
                    weights = {
                        tuple(x - y for x, y in zip(alpha, beta))
                        for alpha in _compositions(up2 // 2, n)
                        for beta in _compositions(down2 // 2, n)
                    }
                    total = sum(quiveralg._weight_target(n, a, b, l, w) for w in weights)
                    assert total == quiveralg._cell_target(n, a, b, l), (n, a, b, l)


def _direct_block_dims(n, a, b, length):
    """{weight: dim} of a cell from the direct oracle's free span and
    relation instances, each split by torus weight; no label symmetry is
    assumed."""
    q = Quiver(n)
    index: dict = {}
    for path in enumerate_paths(q, a, b, length):
        block = index.setdefault(quiveralg._weight(n, path.steps), {})
        block[path] = len(block)
    rows: dict = {}
    for vec in relation_instances(q, a, b, length):
        weight = quiveralg._weight(n, next(iter(vec)).steps)
        rows.setdefault(weight, []).append({index[weight][path]: c for path, c in vec.items()})
    return {weight: len(block) - rank_exact(rows.get(weight, []), len(block))
            for weight, block in index.items()}


@pytest.mark.parametrize("n, max_len", [(3, 5), (4, 4)])
def test_block_dims_match_the_direct_oracle_per_weight(n, max_len):
    # every weight of every cell, read through its orbit's canonical block
    eng = QuiverDimEngine(n)
    eng.ensure(max_len)
    checked = 0
    for l in range(max_len + 1):
        for a in range(n):
            for b in range(n):
                for w, d in _direct_block_dims(n, a, b, l).items():
                    block = eng.block(l, a, b, w)
                    assert (block[0] if block else 0) == d, (l, a, b, w)
                    checked += w != tuple(sorted(w, reverse=True))
    assert checked > 200


def test_overstated_weight_target_is_uncertified(monkeypatch, fresh_engines):
    # a block stopped one row early keeps one dimension too many, and so
    # does every block of its orbit: (1, 0, 0) carries it to (0, 1, 0)
    # and (0, 0, 1), so its cell misses the cell target by 3.  The mirror
    # cell (2, 1, 3) reads the same dim against the same target, so the
    # two are listed by the engine and are the mismatches of the
    # comparison that reaches them
    q = Quiver(3)
    true_dim = graded_dim_direct(q, 0, 1, 3)
    real_target = quiveralg._weight_target
    cell, weight = (3, 0, 1, 3), (1, 0, 0)

    def target(n, a, b, length, w):
        t = real_target(n, a, b, length, w)
        return t + 1 if ((n, a, b, length), w) == (cell, weight) else t

    monkeypatch.setattr(quiveralg, "_weight_target", target)
    calls = _no_direct_calls(monkeypatch)
    entries = [(a, 1, 3, true_dim + 3, true_dim) for a in (0, 2)]
    rep = compare_with_nccr(3, 3)
    assert quiveralg._engines[3].uncertified == entries
    assert rep.mismatches == tuple(entries)
    assert rep.as_dict()["mismatches"] == [
        dict(zip(("a", "b", "length", "dim", "target"), entry)) for entry in entries
    ]
    assert compare_with_nccr(3, 2).passed
    assert calls == []


def _rebuilt_block(eng, l, a, b, w):
    """(dim, maps) of the canonical weight-w block of cell (a, b, l),
    eliminated on its own through ModPRref from the engine's blocks one
    and two levels down, of any weight, read through `block`: its pieces
    in the order of the arrows into b, its relation rows generator by
    generator, stopped at W - `_weight_target`."""
    n = eng.n
    offs, W = {}, 0
    for arrow, src in eng._arrows_into(b):
        sw = tuple(x - y for x, y in zip(w, quiveralg._weight(n, (arrow,))))
        block = eng.block(l - 1, a, src, sw)
        if block:
            offs[arrow] = (W, block[0], block[1])
            W += block[0]
    rows = []
    for gen in relation_generators(n):
        gw = quiveralg._weight(n, gen.terms[0][1])
        low = eng.block(l - 2, a, gen.source, tuple(x - y for x, y in zip(w, gw))) \
            if gen.target == b and l >= 2 else None
        if not low:
            continue
        r = np.zeros((low[0], W))
        for coeff, (first, top) in gen.terms:
            if top in offs:
                off, width, mats = offs[top]
                r[:, off : off + width] += coeff * mats[first].T
        rows.append(r)
    rref = ModPRref(W)
    stop = W - quiveralg._weight_target(n, a, b, l, w)
    if rows and stop > 0:
        rref.add(np.vstack(rows), stop_at_rank=stop)
    T = rref.projection()
    return len(T), {arrow: T[:, off : off + width] for arrow, (off, width, _) in offs.items()}


def _weights(eng, l, a, b):
    """Every weight of cell (a, b, l): the orbits of its canonical blocks,
    or for a row the engine reads off its mirror, the mirror cell's
    weights negated."""
    n = eng.n
    if a >= (n + 1) // 2:
        return {tuple(-x for x in w) for w in _weights(eng, l, n - 1 - a, n - 1 - b)}
    return {w for c in eng.levels[l].get((a, b), {}) for w in set(permutations(c))}


@pytest.mark.parametrize("n, max_len", [(3, 6), (4, 5)])
def test_batched_blocks_match_blocks_eliminated_one_by_one(n, max_len, monkeypatch):
    # the engine eliminates a level's canonical blocks in shared stacks,
    # narrower and shorter blocks zero-padded, on maps of lower blocks of
    # every weight that it transports; each canonical block, rebuilt and
    # eliminated on its own from the lower blocks read through `block`,
    # must give the same dim and the same map on every arrow, entry for
    # entry (only the built rows hold canonical blocks).  Some stack must
    # mix widths, so that the padding is what is checked: the true widths
    # of each `rref_stack` call's blocks are read where `quotient_maps`
    # takes them
    stacks = []
    quotient_maps = quiveralg.quotient_maps

    def recorded(rows, pivots, ranks, widths):
        stacks.append((rows.shape[2], widths))
        return quotient_maps(rows, pivots, ranks, widths)

    monkeypatch.setattr(quiveralg, "quotient_maps", recorded)
    eng = QuiverDimEngine(n)
    eng.ensure(max_len)
    assert all(W == max(widths) for W, widths in stacks)
    assert any(len(set(widths)) > 1 for _, widths in stacks)
    checked = 0
    for l in range(1, max_len + 1):
        for (a, b), cell in eng.levels[l].items():
            canonical = {quiveralg._canonical(v)[0] for v in {
                tuple(x + y for x, y in zip(sw, quiveralg._weight(n, (arrow,))))
                for arrow, src in eng._arrows_into(b)
                for sw in _weights(eng, l - 1, a, src)}}
            rebuilt = {w: _rebuilt_block(eng, l, a, b, w) for w in canonical}
            rebuilt = {w: block for w, block in rebuilt.items() if block[0]}
            assert cell.keys() == rebuilt.keys(), (l, a, b)
            for w, (dim, maps) in cell.items():
                ref_dim, ref_maps = rebuilt[w]
                assert dim == ref_dim and maps.keys() == ref_maps.keys()
                for arrow, m in maps.items():
                    assert m.shape == ref_maps[arrow].shape
                    assert np.array_equal(m, ref_maps[arrow]), (l, a, b, w, arrow)
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("n, max_len", [(3, 6), (4, 5)])
def test_generators_vanish_on_the_transported_maps(n, max_len):
    # for every block r of every weight of every row and every generator
    # out of its vertex, sum coeff * M(top) @ M(first) is the generator's
    # action on the quotient, so it must be zero mod p; almost every
    # block it reads is transported, and the rows a >= (n+1)//2 read the
    # maps of their mirror rows keyed by the reflected arrows
    eng = QuiverDimEngine(n)
    eng.ensure(max_len)
    checked = 0
    for l in range(max_len - 1):
        for a, s in product(range(n), repeat=2):
            for r in _weights(eng, l, a, s):
                for gen in relation_generators(n):
                    if gen.source != s:
                        continue
                    acc, read = 0, False
                    for coeff, (first, top) in gen.terms:
                        mid_w = tuple(x + y for x, y in zip(r, quiveralg._weight(n, (first,))))
                        mid = eng.block(l + 1, a, quiveralg._step_target(n, s, first), mid_w)
                        up_w = tuple(x + y for x, y in zip(mid_w, quiveralg._weight(n, (top,))))
                        up = eng.block(l + 2, a, gen.target, up_w)
                        if mid and up:
                            acc = acc + coeff * (up[1][top] @ mid[1][first] % MODP)
                            read = True
                    assert not np.any(np.asarray(acc) % MODP), (l, a, s, r, gen)
                    # a case counts only if some term read both of its blocks
                    checked += read
    assert checked > 1000


def _rho(eng, l, a, b, w, tau):
    """rho_w(tau) as a matrix: `_rho` stores None where the action it
    computed is the identity."""
    R = eng._rho(l, a, b, w, tau)
    return np.eye(eng.levels[l][(a, b)][w][0]) if R is None else R


@pytest.mark.parametrize("n, max_len", [(4, 7), (5, 4)])
def test_swap_actions_are_involutions_with_braid_relations(n, max_len):
    # rho(s_k) on a canonical block w is defined when s_k fixes w; each is
    # an involution, and adjacent ones satisfy (rho(s_k) rho(s_k+1))^3 = I
    eng = QuiverDimEngine(n)
    eng.ensure(max_len)
    braids = 0
    for l in range(max_len + 1):
        for (a, b), cell in eng.levels[l].items():
            for w, (dim, _) in cell.items():
                eye = np.eye(dim)
                rho = {k: _rho(eng, l, a, b, w, eng._swaps[k])
                       for k in range(n - 1) if w[k] == w[k + 1]}
                for k, R in rho.items():
                    assert np.array_equal(R @ R % MODP, eye), (l, a, b, w, k)
                    if k + 1 in rho:
                        P = R @ rho[k + 1] % MODP
                        assert np.array_equal(P @ P % MODP @ P % MODP, eye), (l, a, b, w, k)
                        braids += dim > 1
    assert braids > 30


@pytest.mark.parametrize("n, max_len", [(4, 6), (5, 4)])
def test_stabilizer_actions_respect_products(n, max_len):
    # `_rho` builds each rho_w(tau) on its own from `_moved`, so nothing
    # in its construction makes rho a homomorphism: check
    # rho(tau s_k) = rho(tau) rho(s_k), with (tau s_k)[i] = tau[s_k[i]],
    # for every tau in Stab(w), the identity included, and every swap
    # s_k in Stab(w)
    eng = QuiverDimEngine(n)
    eng.ensure(max_len)
    checked = 0
    for l in range(max_len + 1):
        for (a, b), cell in eng.levels[l].items():
            for w, (dim, _) in cell.items():
                stab = [tau for tau in permutations(range(n))
                        if all(w[t] == x for t, x in zip(tau, w))]
                swaps = [sk for sk in eng._swaps if sk in stab]
                assert eng._rho(l, a, b, w, eng._id) is None
                for tau in stab:
                    R = _rho(eng, l, a, b, w, tau)
                    for sk in swaps:
                        tau_sk = tuple(tau[i] for i in sk)
                        assert np.array_equal(_rho(eng, l, a, b, w, tau_sk),
                                              R @ _rho(eng, l, a, b, w, sk) % MODP), (
                            l, a, b, w, tau, sk)
                        checked += 1
    assert checked > 1000


def test_identity_actions_are_detected_not_assumed():
    # at n = 2 the swap fixes weight 0 and acts on block (0, 0) of cell
    # (0, 0, 2), spanned by f_1 v_1 = -f_2 v_2 modulo the trace, by -1:
    # `_rho` reads the identity off the matrix it computed, never off tau
    eng = QuiverDimEngine(2)
    eng.ensure(2)
    R = eng._rho(2, 0, 0, (0, 0), (1, 0))
    assert R is not None and np.array_equal(R, [[MODP - 1]])
    assert eng._rho(2, 0, 0, (0, 0), (0, 1)) is None


def _tau_reference(sigma, v):
    """tau with sigma pi_v = pi_(sigma v) tau, from the stable sorts alone."""
    n = len(v)
    moved = [0] * n
    for k, x in zip(sigma, v):
        moved[k] = x
    pi_v = sorted(range(n), key=lambda i: -v[i])
    pi_moved = sorted(range(n), key=lambda i: -moved[i])
    return tuple(pi_moved.index(sigma[pi_v[k]]) for k in range(n))


def test_tau_relates_the_stable_sorts():
    # for random sigma and v: tau fixes canon(v), sigma pi_v = pi_(sigma v)
    # tau as one-line tuples, and `_tau` returns None exactly when tau is
    # the identity
    rng = np.random.default_rng(34)
    identities = 0
    for n in range(2, 7):
        for _ in range(300):
            v = tuple(int(x) for x in rng.integers(-2, 3, size=n))
            sigma = tuple(int(x) for x in rng.permutation(n))
            c, tau = quiveralg._tau(sigma, v)
            assert c == quiveralg._canonical(v)[0]
            ref = _tau_reference(sigma, v)
            assert (tau is None) == (ref == tuple(range(n)))
            tau = tau or tuple(range(n))
            assert tau == ref
            assert all(c[tau[k]] == c[k] for k in range(n))
            moved = [0] * n
            for k, x in zip(sigma, v):
                moved[k] = x
            pi_v, pi_moved = quiveralg._canonical(v)[1], quiveralg._canonical(tuple(moved))[1]
            # `_canonical` keeps the stable descending sort of every weight
            assert pi_v == tuple(sorted(range(n), key=lambda i: -v[i]))
            assert all(sigma[pi_v[k]] == pi_moved[tau[k]] for k in range(n))
            identities += tau == tuple(range(n))
    assert 0 < identities < 1500


def _explicit_moved(eng, l, a, b, M, kind, sigma, v, cols=None):
    """`_moved` without a shortcut: always M @ A[:, cols] % p, A the
    explicit action of tau on the source block, tau from the stable
    sorts."""
    A = _explicit_rho(eng, l - 1, a, b - 1 if kind == "f" else b + 1,
                      quiveralg._canonical(v)[0], _tau_reference(sigma, v))
    return M @ (A if cols is None else A[:, cols]) % MODP


def _explicit_rho(eng, l, a, b, w, tau):
    """rho_w(tau) as a matrix, the identity included, each piece of the
    block's nonpivot columns found by its own search."""
    key = ("explicit", l, a, b, w, tau)
    if key not in eng._rho_cache:
        dim, maps = eng.levels[l][(a, b)][w]
        free = eng._free[l][(a, b)][w]
        R, off = np.eye(dim), 0
        for (kind, i), T in maps.items():
            lo, hi = np.searchsorted(free, (off, off + T.shape[1])).tolist()
            if hi > lo:
                v = tuple(x - y for x, y in zip(w, eng._aw[kind, i]))
                R[:, lo:hi] = _explicit_moved(eng, l, a, b, maps[kind, tau[i - 1] + 1], kind,
                                              tau, v, free[lo:hi] - off)
            off += T.shape[1]
        eng._rho_cache[key] = R
    return eng._rho_cache[key]


@pytest.mark.parametrize("n, max_len", [(2, 6), (3, 6), (4, 8), (5, 6)])
def test_moved_maps_equal_the_explicit_products(n, max_len, monkeypatch):
    # on criterion 1's grid for n <= 5: every map `_moved` returns, the
    # identity shortcut taken or not, equals the explicit product on a
    # reference engine that always multiplies; both build the same
    # levels, and every action the engine stored as None is the identity
    # matrix computed in full
    with monkeypatch.context() as m:
        m.setattr(QuiverDimEngine, "_moved", _explicit_moved)
        ref = QuiverDimEngine(n)
        ref.ensure(max_len)
    moved, shortcuts = QuiverDimEngine._moved, []

    def compared(self, l, a, b, M, kind, sigma, v, cols=None):
        got = moved(self, l, a, b, M, kind, sigma, v, cols)
        want = _explicit_moved(ref, l, a, b, M, kind, sigma, v, cols)
        assert got.shape == want.shape and np.array_equal(got, want), (l, a, b, kind, sigma, v)
        cv, tau = quiveralg._tau(sigma, v)
        src = b - 1 if kind == "f" else b + 1
        shortcuts.append(tau is None or self._rho(l - 1, a, src, cv, tau) is None)
        return got

    monkeypatch.setattr(QuiverDimEngine, "_moved", compared)
    eng = QuiverDimEngine(n)
    eng.ensure(max_len)
    assert not eng.uncertified and eng.verdicts == ref.verdicts
    # both the shortcut and the product were taken
    assert any(shortcuts) and not all(shortcuts)
    for l, level in enumerate(eng.levels):
        assert level.keys() == ref.levels[l].keys()
        for cell, blocks in level.items():
            ref_blocks = ref.levels[l][cell]
            assert blocks.keys() == ref_blocks.keys(), (l, cell)
            for w, (dim, maps) in blocks.items():
                assert dim == ref_blocks[w][0] and maps.keys() == ref_blocks[w][1].keys()
                for arrow, M in maps.items():
                    assert np.array_equal(M, ref_blocks[w][1][arrow]), (l, cell, w, arrow)
    identities = 0
    for (l, a, b, w, tau), R in list(eng._rho_cache.items()):
        full = _explicit_rho(ref, l, a, b, w, tau)
        assert np.array_equal(full, np.eye(len(full)) if R is None else R), (l, a, b, w, tau)
        assert R is None or not np.array_equal(R, np.eye(len(R))), (l, a, b, w, tau)
        identities += R is None
    if n > 2:
        assert 0 < identities < len(eng._rho_cache)


def test_engine_rejects_a_generator_set_that_is_not_label_symmetric(capsys, monkeypatch,
                                                                   fresh_engines):
    # the engine eliminates one block per S_n-orbit, which is sound only
    # if swapping two labels maps each generator to one up to sign, and
    # builds only the rows a < (n+1)//2, which is sound only if the
    # reflection s -> n-1-s, f_i <-> v_i maps each generator into the
    # span of its image cell's.  Dropping the first generator breaks the
    # first, which is checked first.  Dropping trace-vf(0), which every
    # label swap fixes, breaks only the second: trace-fv(n-1) reflects
    # onto it, and the cell (0, 0) has no other generator
    real = quiveralg.relation_generators
    monkeypatch.setattr(quiveralg, "relation_generators", lambda n: real(n)[1:])
    with pytest.raises(ValueError, match="not S_n-stable"):
        QuiverDimEngine(3)
    monkeypatch.setattr(quiveralg, "relation_generators", lambda n: tuple(
        g for g in real(n) if (g.name, g.source) != ("trace-vf", 0)))
    for n in (3, 4, 5):
        with pytest.raises(ValueError, match=r"generator trace-fv \({0} -> {0}\) is not "
                           r"reflection-stable: .* cell \(0, 0\)$".format(n - 1)):
            QuiverDimEngine(n)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [acceptance.criterion_1])
    assert main(["accept"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL criterion 1: raised ValueError"
    assert lines[1].strip().startswith("generator trace-fv (1 -> 1) is not reflection-stable")


_REFUSALS = {
    # ff(0) for (1, 3) dropped: the swap of labels 2 and 3 moves ff(0)
    # for (1, 2) onto it
    "swap image": (3, lambda g: g.name == "ff" and g.terms[0][1] == (("f", 1), ("f", 3)), (
        "generator ff (0 -> 2) is not S_n-stable: swapping labels 2 and 3 gives "
        "[(1, (('f', 1), ('f', 3))), (-1, (('f', 3), ('f', 1)))], which is no "
        "generator up to sign")),
    # every vv(3) dropped: the set stays S_n-stable, and ff(0), whose
    # reflected image is a vv(3), is refused first
    "reflected generator": (4, lambda g: g.name == "vv" and g.source == 3, (
        "generator ff (0 -> 2) is not reflection-stable: the reflection s -> n-1-s, "
        "f_i <-> v_i gives [(1, (('v', 1), ('v', 2))), (-1, (('v', 2), ('v', 1)))], "
        "outside the span of the generators of cell (3, 1)")),
    # trace-vf(1) dropped: trace-vf(2) still reflects into the span of
    # cell (2, 2), but trace-vf(3) reflects out of the span of cell
    # (1, 1), which now differs from cell (2, 2)
    "trace": (5, lambda g: (g.name, g.source) == ("trace-vf", 1), (
        "generator trace-vf (3 -> 3) is not reflection-stable: the reflection "
        "s -> n-1-s, f_i <-> v_i gives [(1, (('v', 1), ('f', 1))), (1, (('v', 2), "
        "('f', 2))), (1, (('v', 3), ('f', 3))), (1, (('v', 4), ('f', 4))), (1, "
        "(('v', 5), ('f', 5)))], outside the span of the generators of cell (1, 1)")),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refusals_keep_their_text(case, monkeypatch):
    # the constructor forms each distinct terms' images once: every
    # refusal names the same generator, swap, moved list and cell as it
    # did when each generator was moved on its own
    n, dropped, message = _REFUSALS[case]
    real = quiveralg.relation_generators
    monkeypatch.setattr(quiveralg, "relation_generators",
                        lambda n: tuple(g for g in real(n) if not dropped(g)))
    with pytest.raises(ValueError) as refusal:
        QuiverDimEngine(n)
    assert str(refusal.value) == message


def test_graded_dim_reads_the_engine_verdict(monkeypatch):
    # the engine certifies each cell once, as it builds the level;
    # graded_dim reports that verdict and computes no target of its own
    eng = quiveralg._engine(3)
    eng.ensure(4)
    assert set(eng.verdicts) == {
        (a, b, l) for l in range(len(eng.levels)) for a in range(3) for b in range(3)}

    def no_target(*args):
        raise AssertionError("graded_dim recomputed a target")

    monkeypatch.setattr(quiveralg, "_cell_target", no_target)
    assert graded_dim(Quiver(3), 1, 1, 4) == eng.dim(1, 1, 4)


_LENGTH = "length=-1 out of range: must be at least 0"


def _engine_dim(n, a, b, length):
    eng = quiveralg._engine(n)
    eng.ensure(4)
    return eng.dim(a, b, length)


@pytest.mark.parametrize(
    "count, args, match",
    [(graded_dim, (Quiver(3), 5, 0, 2), r"vertex \(5, 0\) out of range 0\.\.2"),
     (graded_dim, (Quiver(3), 0, -1, 2), r"vertex \(0, -1\) out of range 0\.\.2"),
     (graded_dim, (Quiver(3), 0, 0, -1), _LENGTH),
     (path_count, (3, 0, 0, -1), _LENGTH),
     (path_count, (3, -1, 0, 1), r"vertex \(-1, 0\) out of range 0\.\.2"),
     (enumerate_paths, (Quiver(3), 0, 0, -1), _LENGTH),
     (enumerate_paths, (Quiver(3), 0, 3, 1), r"vertex \(0, 3\) out of range 0\.\.2"),
     (_engine_dim, (3, 0, 0, -1), _LENGTH),
     (_engine_dim, (3, 7, 0, 2), r"vertex \(7, 0\) out of range 0\.\.2")],
    ids=["source", "target", "length", "path_count-length", "path_count-source",
         "enumerate_paths-length", "enumerate_paths-target", "engine-length",
         "engine-source"],
)
def test_graded_dim_names_the_range_of_a_bad_cell(count, args, match):
    # a ValueError naming the range: not a KeyError from the engine's
    # verdicts, a float or a count for a vertex off the quiver from the
    # walk count, a RecursionError from the enumeration, or the engine's
    # count of another cell (a negative length reads the top level)
    with pytest.raises(ValueError, match=match):
        count(*args)


def test_a_cell_without_paths_keeps_its_check(understate_target):
    # (0, 3, 1) at n = 4 is a parity cell with no paths: its dim 0 is
    # certified against its target like any other cell's
    understate_target((4, 0, 3, 1))
    entry = (0, 3, 1, 0, -1)
    with pytest.raises(CertificationError) as e:
        graded_dim(Quiver(4), 0, 3, 1)
    assert e.value.cell == entry
    assert quiveralg._engines[4].uncertified == [entry]
    assert compare_with_nccr(4, 1).mismatches == (entry,)


def test_engine_rejects_a_generator_with_two_terms_on_one_arrow(monkeypatch):
    # each term of a generator writes the piece of W of its last arrow,
    # so two terms ending in one arrow would overwrite each other
    real = quiveralg.relation_generators

    def doubled(n):
        gens = list(real(n))
        g = gens[0]
        gens[0] = type(g)(g.source, g.target, (g.terms[0], g.terms[0]), g.name)
        return tuple(gens)

    monkeypatch.setattr(quiveralg, "relation_generators", doubled)
    with pytest.raises(ValueError, match="two terms ending in one arrow"):
        QuiverDimEngine(3)


def test_every_route_refuses_a_generator_the_evaluation_keeps(capsys, monkeypatch,
                                                             fresh_engines):
    # f_i v_i at vertex 1 evaluates to x_i y_i, no multiple of the trace,
    # so the corank targets are no lower bounds and the engine's stop at
    # W - target would report false certified dims (8 for the true 6 at
    # (1, 1, 2) of n = 3): the engine, the comparison, `quiver --compare`
    # and `accept` all refuse it
    real = quiveralg.relation_generators

    def extra(n):
        if n < 3:
            return real(n)
        return real(n) + tuple(RelationGen(1, 1, ((1, (("f", i), ("v", i))),), "extra")
                               for i in range(1, n + 1))

    monkeypatch.setattr(quiveralg, "relation_generators", extra)
    refusal = r"generator extra \(1 -> 1\) evaluates to"
    with pytest.raises(ValueError, match=refusal):
        QuiverDimEngine(3)
    with pytest.raises(ValueError, match=refusal):
        compare_with_nccr(3, 4)
    assert main(["quiver", "--compare", "--n", "3", "--max-len", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: generator extra (1 -> 1) evaluates to")
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [acceptance.criterion_1])
    assert main(["accept"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL criterion 1: raised ValueError"
    assert lines[1].strip().startswith("generator extra (1 -> 1) evaluates to")


def test_negated_generators_give_the_same_dims(monkeypatch, fresh_engines):
    # -g spans the ideal g does, and evaluates to 0 or to -t for the
    # traces: the engine builds and certifies the real dims
    real_dims = {}
    for n in range(2, 6):
        eng = QuiverDimEngine(n)
        real_dims[n] = {cell: eng.dim(*cell) for cell in quiveralg._parity_cells(n, 4)}
    real = quiveralg.relation_generators
    monkeypatch.setattr(quiveralg, "relation_generators", lambda n: tuple(
        RelationGen(g.source, g.target, tuple((-c, w) for c, w in g.terms), g.name)
        for g in real(n)))
    for n in range(2, 6):
        assert {(c.a, c.b, c.length): c.dim
                for c in compare_with_nccr(n, 4).cells} == real_dims[n]
        assert quiveralg._engines[n].uncertified == []
