"""Unit tests for complementary-pair joining and spanning-tree counting."""

import itertools
import random

import pytest

import _reference as ref
from mdbs import gamma, greedy, joiner, seqkit
from mdbs.gamma import GuardRefusal, HamCycle
from mdbs.greedy import PsiDecomposition
from mdbs.joiner import JoinGraph

WORKED = greedy.psi_decompose(4, visit_order=(6, 4, 14))


def fold_joins(dec, pairs):
    """Apply (r, s) joins in the given order and rotate to the start."""
    parts = [list(c) for c in dec.cycles]
    for r, s in pairs:
        ia = next(i for i, p in enumerate(parts) if r in p)
        ib = next(i for i, p in enumerate(parts) if s in p)
        merged = joiner.join_pair(parts[ia], parts[ib], r, s)
        parts = [p for j, p in enumerate(parts) if j not in (ia, ib)]
        parts.append(merged)
    (final,) = parts
    k = final.index(dec.cycles[0][0])
    return HamCycle(final[k:] + final[:k], dec.n)


def test_complement_pairs_worked_edges():
    graph = joiner.complement_pairs(WORKED)
    assert graph.node_count == 3
    assert graph.edges == ((1, 2, 13, 2), (1, 2, 11, 4), (1, 3, 3, 12),
                           (2, 3, 7, 8), (2, 3, 1, 14))


def test_complement_pairs_single_cycle_is_empty():
    dec = greedy.psi_decompose(4)
    assert len(dec.cycles) == 1
    assert joiner.complement_pairs(dec).edges == ()


def test_complement_pairs_all_sum_correctly():
    rng = random.Random(501)
    for _ in range(20):
        n = rng.choice((4, 5, 6))
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        graph = joiner.complement_pairs(dec)
        for i, k, r, s in graph.edges:
            assert 1 <= i < k <= len(dec.cycles)
            assert r in dec.cycles[i - 1] and s in dec.cycles[k - 1]
            assert r + s == (1 << n) - 1


def test_join_matrix_worked_values():
    matrix = joiner.join_matrix(joiner.complement_pairs(WORKED))
    assert matrix.entries == ((3, -2, -1), (-2, 4, -2), (-1, -2, 3))
    assert matrix.cofactor() == 8


def test_join_matrix_shape_properties():
    rng = random.Random(502)
    for _ in range(20):
        n = rng.choice((4, 5, 6))
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        entries = joiner.join_matrix(joiner.complement_pairs(dec)).entries
        for i, row in enumerate(entries):
            assert sum(row) == 0
            for k, value in enumerate(row):
                assert value == entries[k][i]
                if i != k:
                    assert value <= 0


def test_best_count_simple_graphs():
    assert joiner.best_count(JoinGraph(4, 1, [])) == 1
    for k in range(1, 6):
        edges = [(1, 2, r, 15 - r) for r in range(1, k + 1)]
        graph = JoinGraph(4, 2, edges)
        assert joiner.best_count(graph) == k
        assert len(joiner.spanning_trees(graph)) == k
    disconnected = JoinGraph(4, 3, [(1, 2, 7, 8)])
    assert joiner.best_count(disconnected) == 0
    assert joiner.spanning_trees(disconnected) == []


def test_best_count_matches_brute_force():
    rng = random.Random(503)
    checked = 0
    while checked < 30:
        n = rng.choice((4, 5, 6))
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        graph = joiner.complement_pairs(dec)
        if len(graph.edges) > 12:
            continue
        endpoint_pairs = [(i, k) for i, k, _, _ in graph.edges]
        expected = ref.spanning_tree_count(graph.node_count, endpoint_pairs)
        assert joiner.best_count(graph) == expected
        assert len(joiner.spanning_trees(graph)) == expected
        checked += 1


def _ends(graph):
    return [e[:2] for e in graph.edges]


def test_spanning_trees_match_brute_force_in_order():
    # Seeds 0..299 include 208, the 6-cycle, 23-edge graph of 7744 trees.
    checked = 0
    for n in range(3, 7):
        for seed in range(300):
            graph = joiner.complement_pairs(greedy.psi_decompose(n, seed=seed))
            if len(graph.edges) > joiner.MAX_EXHAUSTIVE_EDGES:
                continue
            trees = joiner.spanning_trees(graph)
            assert trees == ref.ref_spanning_trees(graph.node_count,
                                                   _ends(graph))
            if (n, seed) == (6, 208):
                assert len(trees) == 7744 == joiner.best_count(graph)
            checked += 1
    assert checked > 1000


def test_spanning_trees_small_multigraphs_match_brute_force():
    def graph(node_count, ends):
        return JoinGraph(10, node_count, [(i, k, r, 1023 - r)
                                          for r, (i, k) in enumerate(ends, 1)])

    parallel = graph(3, [(1, 2), (1, 2), (2, 3), (1, 3), (2, 3), (1, 2)])
    disconnected = graph(4, [(1, 2), (1, 2), (3, 4), (1, 2)])
    single = graph(1, [])
    assert joiner.spanning_trees(single) == [()]
    assert joiner.spanning_trees(disconnected) == []
    cases = [parallel, disconnected, single]
    rng = random.Random(71)
    for _ in range(300):
        nodes = rng.randint(1, 7)
        pairs = [tuple(sorted(rng.sample(range(1, nodes + 1), 2)))
                 for _ in range(rng.randint(0, 12))] if nodes > 1 else []
        cases.append(graph(nodes, pairs))
    for g in cases:
        assert joiner.spanning_trees(g) == ref.ref_spanning_trees(
            g.node_count, _ends(g))
        assert len(joiner.spanning_trees(g)) == joiner.best_count(g)


def test_spanning_trees_guard():
    edges = [(1, 2, r, 1023 - r) for r in range(1, 26)]
    graph = JoinGraph(10, 2, edges)
    with pytest.raises(GuardRefusal):
        joiner.spanning_trees(graph)


def test_join_pair_worked_chain():
    c1, c2, c3 = (list(c) for c in WORKED.cycles)
    merged = joiner.join_pair(c2, c3, 7, 8)
    assert merged == [4, 8, 15, 14, 12, 7, 1, 2]
    final = joiner.join_pair(c1, merged, 13, 2)
    assert final == [6, 3, 9, 2, 4, 8, 15, 14, 12, 7, 1, 13, 5, 10, 11]


def test_join_pair_preserves_vertices_and_arcs():
    rng = random.Random(504)
    for _ in range(20):
        n = rng.choice((4, 5, 6))
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        graph = joiner.complement_pairs(dec)
        if not graph.edges:
            continue
        i, k, r, s = graph.edges[rng.randrange(len(graph.edges))]
        a, b = dec.cycles[i - 1], dec.cycles[k - 1]
        merged = joiner.join_pair(a, b, r, s)
        assert sorted(merged) == sorted(a + b)
        for pos, v in enumerate(merged):
            nxt = merged[(pos + 1) % len(merged)]
            assert nxt in gamma.successors(v, n)


def test_join_pair_rejects_bad_inputs():
    with pytest.raises(ValueError):
        joiner.join_pair([1, 2], [4, 8], 1, 15)
    with pytest.raises(ValueError):
        joiner.join_pair([1, 2], [4, 8], 2, 13)
    with pytest.raises(ValueError):
        joiner.join_pair([1, 2], [4, 8], 1, 14)
    with pytest.raises(ValueError):
        joiner.join_pair([1, 2], [2, 13], 1, 14)


def test_enumerate_joined_cycles_worked_decomposition():
    results = dict(joiner.enumerate_joined_cycles(WORKED))
    assert len(results) == 8
    by_tree = {frozenset(pairs): cycle.vertices
               for pairs, cycle in results.items()}
    expected = {
        frozenset(((13, 2), (7, 8))):
            (6, 3, 9, 2, 4, 8, 15, 14, 12, 7, 1, 13, 5, 10, 11),
        frozenset(((13, 2), (1, 14))):
            (6, 3, 9, 2, 4, 7, 14, 12, 8, 15, 1, 13, 5, 10, 11),
        frozenset(((11, 4), (7, 8))):
            (6, 3, 9, 13, 5, 10, 4, 8, 15, 14, 12, 7, 1, 2, 11),
        frozenset(((11, 4), (1, 14))):
            (6, 3, 9, 13, 5, 10, 4, 7, 14, 12, 8, 15, 1, 2, 11),
        frozenset(((3, 12), (13, 2))):
            (6, 12, 8, 15, 14, 3, 9, 2, 4, 7, 1, 13, 5, 10, 11),
        frozenset(((3, 12), (11, 4))):
            (6, 12, 8, 15, 14, 3, 9, 13, 5, 10, 4, 7, 1, 2, 11),
        frozenset(((3, 12), (7, 8))):
            (6, 12, 7, 1, 2, 4, 8, 15, 14, 3, 9, 13, 5, 10, 11),
        frozenset(((3, 12), (1, 14))):
            (6, 12, 8, 15, 1, 2, 4, 7, 14, 3, 9, 13, 5, 10, 11),
    }
    assert by_tree == expected
    cycles = list(results.values())
    assert len(set(cycles)) == 8
    for cycle in cycles:
        assert seqkit.is_modified_de_bruijn(gamma.cycle_to_sequence(cycle), 4)


def test_merge_order_does_not_matter():
    for pairs, cycle in joiner.enumerate_joined_cycles(WORKED):
        assert fold_joins(WORKED, pairs) == cycle
        assert fold_joins(WORKED, tuple(reversed(pairs))) == cycle


def _successors(cycles):
    return {v: c[(i + 1) % len(c)] for c in cycles for i, v in enumerate(c)}


def test_a_tree_swaps_the_arcs_into_its_pairs():
    # The joined cycle of a tree is the decomposition's arc set with the
    # predecessors of r and s exchanged at each of the tree's pairs.
    checked = 0
    for n in range(4, 7):
        for seed in range(40):
            dec = greedy.psi_decompose(n, seed=seed)
            if (len(joiner.complement_pairs(dec).edges)
                    > joiner.MAX_EXHAUSTIVE_EDGES):
                continue
            base = _successors(dec.cycles)
            pred = {b: a for a, b in base.items()}
            for pairs, cycle in itertools.islice(
                    joiner.enumerate_joined_cycles(dec), 200):
                want = dict(base)
                for r, s in pairs:
                    want[pred[r]], want[pred[s]] = s, r
                assert _successors([cycle.vertices]) == want
                checked += 1
    assert checked == 2721


# order -> (seeds scanned, how many of their decompositions have at most
# 24 edges and 20,000 spanning trees)
DISTINCT_SCAN = {4: (400, 400), 5: (400, 400), 6: (400, 400), 7: (150, 77)}


@pytest.mark.parametrize('n', sorted(DISTINCT_SCAN))
def test_every_tree_joins_a_distinct_cycle(n):
    seeds, expected = DISTINCT_SCAN[n]
    checked = 0
    for seed in range(seeds):
        dec = greedy.psi_decompose(n, seed=seed)
        graph = joiner.complement_pairs(dec)
        if len(graph.edges) > joiner.MAX_EXHAUSTIVE_EDGES:
            continue
        count = joiner.best_count(graph)
        if count > 20000:
            continue
        cycles = {c.vertices for _, c in joiner.enumerate_joined_cycles(dec)}
        assert len(cycles) == count, seed
        checked += 1
    assert checked == expected


def test_enumerate_joined_cycles_disconnected_warns():
    lonely = PsiDecomposition(4, [(5, 10), (9, 2, 4, 8, 15, 14, 3, 6, 12, 7)])
    assert joiner.complement_pairs(lonely).edges == ()
    with pytest.warns(RuntimeWarning):
        got = list(joiner.enumerate_joined_cycles(lonely))
    assert got == []


def test_join_all_worked_and_random():
    cycle = joiner.join_all(WORKED)
    assert cycle.vertices[0] == 6
    assert len(cycle.vertices) == 15
    rng = random.Random(505)
    for _ in range(20):
        n = rng.choice((4, 5, 6))
        dec = greedy.psi_decompose(n, seed=rng.randrange(1 << 30))
        cycle = joiner.join_all(dec)
        assert len(cycle.vertices) == (1 << n) - 1
        assert cycle.vertices[0] == dec.cycles[0][0]
        assert seqkit.is_modified_de_bruijn(gamma.cycle_to_sequence(cycle), n)


def test_join_all_matches_round_based_reference():
    for n in range(3, 13):
        for seed in range(4):
            dec = greedy.psi_decompose(n, seed=seed)
            assert (list(joiner.join_all(dec).vertices)
                    == ref.ref_join_all(dec.cycles, n))


def test_join_all_without_cross_pair_raises():
    lonely = PsiDecomposition(4, [(5, 10), (9, 2, 4, 8, 15, 14, 3, 6, 12, 7)])
    with pytest.raises(ValueError, match='no cross complementary pair'):
        joiner.join_all(lonely)
    with pytest.raises(ValueError, match='no cross complementary pair'):
        ref.ref_join_all(lonely.cycles, 4)


def test_join_all_single_cycle_is_identity():
    dec = greedy.psi_decompose(4)
    cycle = joiner.join_all(dec)
    assert cycle.vertices == dec.cycles[0]
