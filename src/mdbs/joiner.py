"""Joining disjoint vertex cycles into one Hamiltonian cycle.

Two vertices r and s are a complementary pair when r + s = 2^n - 1;
such vertices share the same pair of predecessors, so two disjoint
cycles through r and s can be spliced into one cycle by exchanging the
predecessors.  The join graph of a decomposition has one node per
cycle and one edge per cross-cycle complementary pair; every spanning
tree of that graph yields one joined Hamiltonian cycle, and the number
of spanning trees is counted exactly by the classic matrix-tree
cofactor (computed with fraction-free integer elimination).

Different spanning trees give different cycles.  r and its complement
s have the same two predecessors q and q + 2^(n-1), each with arcs to
both, and a splice at (r, s) swaps which predecessor enters r and which
enters s.  Different pairs touch disjoint arcs, so the swaps commute: a
tree's cycle is the decomposition's arc set with exactly that tree's
pairs swapped, and two trees differ in the arcs into some pair.  The
number of distinct joined cycles is therefore the tree count, known
before any merge, and a caller that wants k cycles merges only k.
Trees are listed by backtracking whose work grows with the number of
trees, and graphs above MAX_EXHAUSTIVE_EDGES edges are refused.  A
tree's joins and join_all's lowest-pair-first joins go through one
merge routine, which splices without join_pair's checks; HamCycle
validates every joined cycle.
"""

import itertools
import warnings
from typing import NamedTuple, Tuple

from .gamma import GuardRefusal, HamCycle

#: Edge-count ceiling for exhaustive spanning tree enumeration.
MAX_EXHAUSTIVE_EDGES = 24


class JoinGraph:
    """Multigraph over a decomposition's cycles.

    Edges are (i, k, r, s) with 1-based cycle indices i < k: vertex r
    of cycle i and vertex s of cycle k satisfy r + s = 2^n - 1.
    """

    __slots__ = ('n', 'node_count', 'edges')

    def __init__(self, n, node_count, edges):
        size = (1 << n) - 1
        edges = tuple(tuple(e) for e in edges)
        for i, k, r, s in edges:
            if not 1 <= i < k <= node_count:
                raise ValueError(f'bad edge endpoints ({i}, {k})')
            if r + s != size:
                raise ValueError(f'({r}, {s}) is not a complementary pair')
        object.__setattr__(self, 'n', n)
        object.__setattr__(self, 'node_count', node_count)
        object.__setattr__(self, 'edges', edges)

    def __setattr__(self, name, v):
        raise AttributeError('JoinGraph is immutable')

    def __repr__(self):
        return (f'JoinGraph(n={self.n}, nodes={self.node_count}, '
                f'edges={self.edges})')


class JoinMatrix(NamedTuple):
    """Symmetric integer matrix of a join graph.

    Diagonal entries count the edges at each node, off-diagonal entries
    are minus the number of edges between the pair; every row sums to
    zero, and any first cofactor counts the spanning trees.
    """

    entries: Tuple[Tuple[int, ...], ...]

    def cofactor(self):
        """Determinant of the matrix with row 0 and column 0 removed."""
        minor = [list(row[1:]) for row in self.entries[1:]]
        return _det(minor)


def _det(m):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    size = len(m)
    if size == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    denom = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // denom
            m[i][k] = 0
        denom = m[k][k]
    return sign * m[-1][-1]


def complement_pairs(dec):
    """Join graph of a decomposition.

    Cycle pairs are scanned in index order and, within a pair, edges
    appear in the position order of r inside the lower-indexed cycle,
    so the edge list is deterministic.
    """
    size = (1 << dec.n) - 1
    edges = []
    for i, k in itertools.combinations(range(len(dec.cycles)), 2):
        targets = set(dec.cycles[k])
        for r in dec.cycles[i]:
            s = size - r
            if s in targets:
                edges.append((i + 1, k + 1, r, s))
    return JoinGraph(dec.n, len(dec.cycles), edges)


def join_matrix(graph):
    """Matrix-tree matrix of a join graph."""
    j = graph.node_count
    entries = [[0] * j for _ in range(j)]
    for i, k, _, _ in graph.edges:
        entries[i - 1][i - 1] += 1
        entries[k - 1][k - 1] += 1
        entries[i - 1][k - 1] -= 1
        entries[k - 1][i - 1] -= 1
    return JoinMatrix(tuple(map(tuple, entries)))


def best_count(graph):
    """Number of spanning trees of the join graph (0 when disconnected)."""
    return join_matrix(graph).cofactor()


def spanning_trees(graph):
    """All spanning trees as tuples of edge indices, in lexicographic order.

    Include-first backtracking over the edges in index order, with the
    forest's components kept as one label per node: an edge is taken
    when it joins two components, and left out only while the later
    edges can still connect the forest.  On a connected graph every
    branch therefore ends in a tree, so the work grows with the number
    of trees; a disconnected graph is given up after one branch.  Graphs
    with more than MAX_EXHAUSTIVE_EDGES edges are refused.
    """
    if len(graph.edges) > MAX_EXHAUSTIVE_EDGES:
        raise GuardRefusal(
            f'{len(graph.edges)} edges exceed the exhaustive spanning-tree '
            f'ceiling of {MAX_EXHAUSTIVE_EDGES}')
    ends = [e[:2] for e in graph.edges]
    trees, chosen = [], []

    def extend(label, parts, start):
        if parts == 1:
            trees.append(tuple(chosen))
            return
        for idx in range(start, len(ends)):
            i, k = ends[idx]
            li, lk = label[i], label[k]
            if li == lk:
                continue
            chosen.append(idx)
            extend([lk if x == li else x for x in label], parts - 1, idx + 1)
            chosen.pop()
            if not _connects(label, parts, ends[idx + 1:]):
                return

    extend(list(range(graph.node_count + 1)), graph.node_count, 0)
    return trees


def _connects(label, parts, ends):
    """True when the edges `ends` join all `parts` components of `label`.

    Every label is a node that carries its own label, so `label` is a
    union-find forest of depth one.
    """
    parent = label[:]
    for i, k in ends:
        while parent[i] != i:
            i = parent[i]
        while parent[k] != k:
            k = parent[k]
        if i != k:
            parent[i] = k
            parts -= 1
    return parts == 1


def join_pair(cycle_a, cycle_b, r, s):
    """Splice two disjoint cycles at the complementary pair (r, s).

    r must lie on cycle_a and s on cycle_b.  The predecessors of r and
    s are exchanged, which threads cycle_b into cycle_a: the result
    runs cycle_a up to r's position, takes cycle_b from s all the way
    around, and finishes cycle_a from r.
    """
    a, b = list(cycle_a), list(cycle_b)
    total = r + s
    n = total.bit_length()
    if total != (1 << n) - 1:
        raise ValueError(f'({r}, {s}) is not a complementary pair')
    if r not in a:
        raise ValueError(f'vertex {r} is not on the first cycle')
    if s not in b:
        raise ValueError(f'vertex {s} is not on the second cycle')
    if set(a) & set(b):
        raise ValueError('cycles are not disjoint')
    return _splice(a, b, r, s)


def _splice(a, b, r, s):
    """join_pair on lists without its checks: r on a, s on b, disjoint."""
    ia, ib = a.index(r), b.index(s)
    return a[:ia] + b[ib:] + b[:ib] + a[ia:]


def _merge(dec, pairs):
    """Splice each (r, s) whose ends lie on different current cycles.

    Only the absorbed cycle is relabelled; the joined cycle is rotated
    to start at the decomposition's first vertex.
    """
    parts = [list(c) for c in dec.cycles]
    locate = {v: i for i, c in enumerate(parts) for v in c}
    for r, s in pairs:
        ia, ib = locate.get(r), locate.get(s)
        if ia is None or ib is None or ia == ib:
            continue
        parts[ia] = _splice(parts[ia], parts[ib], r, s)
        for v in parts[ib]:
            locate[v] = ia
        parts[ib] = None
    live = [p for p in parts if p]
    if len(live) > 1:
        raise ValueError('cycles admit no cross complementary pair')
    start = live[0].index(dec.cycles[0][0])
    return HamCycle(live[0][start:] + live[0][:start], dec.n)


def enumerate_joined_cycles(dec):
    """One joined cycle per spanning tree of the decomposition's graph.

    Yields (pairs, cycle) where pairs are the (r, s) joins of the tree
    in application order.  The merge result is independent of the
    order the tree edges are applied in; each cycle is rotated to start
    at the decomposition's first vertex.  The trees are listed up front
    (the edge guard may refuse), but each cycle is merged only when it
    is drawn, and no two trees yield the same cycle, so the stream
    holds best_count(graph) distinct cycles.  A decomposition whose join
    graph is disconnected yields nothing (with a warning), which cannot
    happen for decompositions produced by a full greedy sweep.
    """
    graph = complement_pairs(dec)
    trees = spanning_trees(graph)
    if not trees:
        warnings.warn('join graph is disconnected; nothing to join',
                      RuntimeWarning, stacklevel=2)

    def _stream():
        for tree in trees:
            pairs = tuple(graph.edges[idx][2:] for idx in tree)
            yield pairs, _merge(dec, pairs)

    return _stream()


def join_all(dec):
    """Join a whole decomposition into one cycle, lowest pair first.

    Components only merge, so one ascending scan of (r, 2^n - 1 - r)
    joins the smallest cross pair of every round; the result starts at
    the decomposition's first vertex.
    """
    size = (1 << dec.n) - 1
    return _merge(dec, ((r, size - r) for r in range(1, size)))
