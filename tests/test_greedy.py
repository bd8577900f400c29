"""Unit tests for the greedy walks and the sweep decomposition."""

import random

import pytest

import _reference as ref
from mdbs import gamma, greedy
from mdbs.gamma import HamCycle
from mdbs.greedy import PsiDecomposition


def hamiltonian_inits(n):
    """Initial vertices from which prefer-complement closes a cycle."""
    return {v for v in range(1, 1 << n)
            if greedy.is_hamiltonian(greedy.prefer_complement(n, v), n)}


def test_prefer_complement_known_walks():
    assert greedy.prefer_complement(4, 1) \
        == [1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15]
    assert greedy.prefer_complement(4, 3) \
        == [3, 9, 13, 5, 10, 11, 6, 12, 7, 1, 2, 4, 8, 15, 14]
    assert greedy.prefer_complement(4, 6) == [6, 3, 9, 13, 5, 10, 11]


def test_modified_prefer_double_known_walks():
    assert greedy.modified_prefer_double(4, 5) \
        == [5, 10, 4, 8, 15, 14, 12, 7, 1, 2, 11, 6, 3, 9, 13]
    assert greedy.modified_prefer_double(5, 10) \
        == [10, 20, 8, 16, 31, 30, 28, 24, 15, 1, 2, 4, 23, 14, 3, 6,
            12, 7, 17, 29, 26, 11, 22, 19, 25, 18, 27, 9, 13, 5, 21]
    assert not greedy.is_hamiltonian(greedy.modified_prefer_double(4, 1), 4)


def test_is_hamiltonian():
    path = greedy.prefer_complement(4, 1)
    assert greedy.is_hamiltonian(path, 4)
    assert not greedy.is_hamiltonian(path[:-1], 4)
    assert not greedy.is_hamiltonian(greedy.prefer_complement(4, 6), 4)


def test_hamiltonian_walks_validate_as_cycles():
    for n in (4, 5):
        for v in hamiltonian_inits(n):
            path = greedy.prefer_complement(n, v)
            HamCycle(path, n)


def test_hamiltonian_init_sets():
    assert hamiltonian_inits(4) == {1, 3, 7, 8, 12, 14, 15}
    assert hamiltonian_inits(5) == {1, 3, 7, 15, 16, 24, 28, 30, 31}


def test_distinct_cycle_count_is_order_minus_one():
    for n in (4, 5, 6):
        inits = hamiltonian_inits(n)
        cycles = {HamCycle(greedy.prefer_complement(n, v), n) for v in inits}
        assert len(cycles) == n - 1


def test_shared_inits_give_the_same_cycle():
    groups4 = {(1, 15, 8), (3, 14), (7, 12)}
    for group in groups4:
        cycles = {HamCycle(greedy.prefer_complement(4, v), 4) for v in group}
        assert len(cycles) == 1


def test_modified_prefer_double_succeeds_only_at_third_points():
    for n in (4, 5, 6):
        size = (1 << n) - 1
        expected = {size // 3, size - size // 3}
        good = {v for v in range(1, size + 1)
                if greedy.is_hamiltonian(greedy.modified_prefer_double(n, v),
                                         n)}
        assert good == expected
        cycles = {HamCycle(greedy.modified_prefer_double(n, v), n)
                  for v in good}
        assert len(cycles) == 1


def test_psi_decompose_visit_order_prefix():
    dec = greedy.psi_decompose(4, visit_order=(6, 4, 14))
    assert dec.cycles == ((6, 3, 9, 13, 5, 10, 11), (4, 7, 1, 2),
                          (14, 12, 8, 15))
    assert tuple(c[0] for c in dec.cycles) == (6, 4, 14)
    assert tuple(c[-1] for c in dec.cycles) == (11, 2, 15)
    assert dec.order[:3] == (6, 4, 14)
    assert dec.seed is None


def test_psi_decompose_natural_order_single_cycle():
    for n in range(4, 13):
        dec = greedy.psi_decompose(n)
        assert len(dec.cycles) == 1
        only = dec.cycles[0]
        assert len(only) == (1 << n) - 1
        assert only[0] == 1
        assert only[-1] == (1 << n) - 1


def test_psi_decompose_partitions_vertices():
    rng = random.Random(401)
    for _ in range(30):
        n = rng.choice((4, 5, 6))
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        seen = [v for c in dec.cycles for v in c]
        assert sorted(seen) == list(range(1, 1 << n))


def test_psi_successor_map_is_a_bijection():
    rng = random.Random(402)
    for _ in range(20):
        n = rng.choice((4, 5))
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        succ = {}
        for cycle in dec.cycles:
            for i, v in enumerate(cycle):
                succ[v] = cycle[(i + 1) % len(cycle)]
        assert len(succ) == (1 << n) - 1
        assert len(set(succ.values())) == len(succ)


def test_psi_steps_follow_arcs_and_preference():
    rng = random.Random(403)
    for _ in range(20):
        n = rng.choice((4, 5))
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        used = set()
        for cycle in dec.cycles:
            used.add(cycle[0])
            for i in range(len(cycle)):
                v = cycle[i]
                nxt = cycle[(i + 1) % len(cycle)]
                d, c = gamma.successors(v, n)
                assert nxt in (d, c)
                if i + 1 < len(cycle):
                    if nxt == d:
                        assert c is None or c in used
                    used.add(nxt)
                else:
                    assert d is None or d in used
                    assert c is None or c in used


def test_even_elements_preceded_by_their_complements():
    # An even vertex is only ever entered through its double arc, which
    # the preference rule takes after the odd complement has been used,
    # so in sweep order the complement of every even non-start element
    # comes first.  Within a single-cycle decomposition that means
    # strictly earlier in the cycle itself.
    rng = random.Random(404)
    for _ in range(20):
        n = rng.choice((4, 5, 6))
        size = (1 << n) - 1
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        starts = {c[0] for c in dec.cycles}
        swept = []
        for cycle in dec.cycles:
            for v in cycle:
                if v % 2 == 0 and v not in starts:
                    partner = size - v
                    assert partner % 2 == 1
                    assert partner in swept
                swept.append(v)
    for n in (4, 5, 6):
        only = greedy.psi_decompose(n).cycles[0]
        size = (1 << n) - 1
        for i, v in enumerate(only):
            if v % 2 == 0 and i > 0:
                assert (size - v) in only[:i]


def test_psi_decompose_seed_is_reproducible():
    a = greedy.psi_decompose(5, seed='trial-7')
    b = greedy.psi_decompose(5, seed='trial-7')
    assert a.cycles == b.cycles
    assert a.order == b.order
    assert a.seed == 'trial-7'
    c = greedy.psi_decompose(5, seed='trial-8')
    assert c.cycles != a.cycles or c.order != a.order


def test_psi_decompose_rejects_bad_orders():
    with pytest.raises(ValueError):
        greedy.psi_decompose(4, visit_order=(6, 6))
    with pytest.raises(ValueError):
        greedy.psi_decompose(4, visit_order=(0,))
    with pytest.raises(ValueError):
        greedy.psi_decompose(4, visit_order=(16,))


def test_decomposition_validation():
    with pytest.raises(ValueError):
        PsiDecomposition(4, [])
    with pytest.raises(ValueError):
        PsiDecomposition(4, [(1, 2), ()])
    with pytest.raises(ValueError):
        PsiDecomposition(4, [(1, 2), (2, 3)])
    dec = PsiDecomposition(4, [(6, 3, 9, 13, 5, 10, 11), (4, 7, 1, 2)])
    assert len(dec) == 2
    assert list(dec) == [(6, 3, 9, 13, 5, 10, 11), (4, 7, 1, 2)]
    with pytest.raises(AttributeError):
        dec.n = 5


@pytest.mark.parametrize('n', range(3, 11))
def test_walks_match_set_based_reference(n):
    for v in range(1, 1 << n):
        assert greedy.prefer_complement(n, v) == ref.ref_greedy_walk(
            n, v, prefer_double=False)
        assert greedy.modified_prefer_double(n, v) == ref.ref_greedy_walk(
            n, v, prefer_double=True)


@pytest.mark.parametrize('n', range(3, 15))
def test_psi_decompose_matches_set_based_reference(n):
    for seed in (None, 0, 1, 2, 3):
        dec = greedy.psi_decompose(n, seed=seed)
        used, cycles = set(), []
        for v in dec.order:
            if v not in used:
                cycles.append(tuple(ref.ref_greedy_walk(
                    n, v, prefer_double=False, used=used)))
        assert dec.cycles == tuple(cycles)


def test_preferred_table_is_keyed_on_order_and_rule():
    greedy._preferred.cache_clear()
    for n in (5, 11, 5):
        for prefer_double in (False, True):
            walk = (greedy.modified_prefer_double if prefer_double
                    else greedy.prefer_complement)
            for v in range(1, 1 << n, 1 if n == 5 else 89):
                assert walk(n, v) == ref.ref_greedy_walk(
                    n, v, prefer_double=prefer_double)
