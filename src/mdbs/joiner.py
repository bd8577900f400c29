"""Joining disjoint vertex cycles into one Hamiltonian cycle.

Two vertices r and s are a complementary pair when r + s = 2^n - 1;
they share the two predecessors q and q + 2^(n-1), each with arcs to
both, so two disjoint cycles through r and s are spliced into one by
swapping which predecessor enters r and which enters s.  The join graph
of a decomposition has one node per cycle and one edge per cross-cycle
complementary pair; every spanning tree of that graph yields one joined
Hamiltonian cycle, and the number of spanning trees is counted exactly
by the classic matrix-tree cofactor (computed with fraction-free
integer elimination, which needs no row swaps on a Laplacian minor).

Different spanning trees give different cycles.  Different pairs touch
disjoint arcs, so the swaps commute: a tree's cycle is the
decomposition's arc set with exactly that tree's pairs swapped, and two
trees differ in the arcs into some pair.  The number of distinct joined
cycles is therefore the tree count, known before any merge, and a
caller that wants k cycles merges only k.  Trees are listed by
backtracking whose work grows with the number of trees.  A merge is
that swap on one table per decomposition of every vertex's successor,
predecessor and cycle: copy the successors, swap them at each pair and
walk once; HamCycle validates every joined cycle.  The pair scan reads
the table's cycle owners in one pass.  Nothing is cached: a caller
that reads the graph and then streams the joins builds the table
twice, which costs about 0.02 ms at n = 6.
"""

from typing import NamedTuple, Tuple

from .gamma import HamCycle


class JoinGraph(NamedTuple):
    """Multigraph over a decomposition's cycles, built by complement_pairs.

    Edges are (i, k, r, s) with 1-based cycle indices i < k: vertex r
    of cycle i and vertex s of cycle k satisfy r + s = 2^n - 1.
    """

    node_count: int
    edges: Tuple[Tuple[int, int, int, int], ...]


class JoinMatrix(NamedTuple):
    """Symmetric integer matrix of a join graph.

    Diagonal entries count the edges at each node, off-diagonal entries
    are minus the number of edges between the pair; every row sums to
    zero, and any first cofactor counts the spanning trees.
    """

    entries: Tuple[Tuple[int, ...], ...]

    def cofactor(self):
        """Determinant of the minor without row 0 and column 0.

        Exact fraction-free (Bareiss) elimination.  The minor is
        positive semidefinite (PSD), as a Laplacian minor is: pivot k is
        its leading principal minor of order k + 1, and a PSD matrix
        with a zero one is singular, so no row swaps.
        """
        m = [list(row[1:]) for row in self.entries[1:]]
        size = len(m)
        if size == 0:
            return 1
        denom = 1
        for k in range(size - 1):
            if m[k][k] == 0:
                return 0
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // denom
            denom = m[k][k]
        return m[-1][-1]


def _table(dec):
    """Successor, predecessor and 1-based cycle (0 if none) by vertex."""
    succ, pred, owner = ([0] * (1 << dec.n) for _ in range(3))
    for i, c in enumerate(dec.cycles, 1):
        for a, b in zip(c, c[1:] + c[:1]):
            succ[a], pred[b], owner[a] = b, a, i
    return succ, pred, owner


def _plan(dec):
    """Successors, predecessors and the join graph of a decomposition."""
    size = (1 << dec.n) - 1
    succ, pred, owner = _table(dec)
    edges = sorted(((i, owner[size - r], r, size - r)
                    for i, c in enumerate(dec.cycles, 1) for r in c
                    if owner[size - r] > i), key=lambda e: e[:2])
    return succ, pred, JoinGraph(len(dec.cycles), tuple(edges))


def complement_pairs(dec):
    """Join graph of a decomposition.

    One pass lists each edge from its lower-indexed cycle, in the
    position order of r there; a stable sort on the cycle pair keeps
    that order, so the edge list is deterministic.
    """
    return _plan(dec)[2]


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
    of trees; a disconnected graph is given up after one branch.
    """
    ends = [e[:2] for e in graph.edges]
    trees, chosen = [], []

    def extend(label, parts, start):
        if parts <= 1:
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
    ia, ib = a.index(r), b.index(s)
    return a[:ia] + b[ib:] + b[:ib] + a[ia:]


def _merge(dec, succ, pred, pairs):
    """Swap the successors of each pair's predecessors, then walk once.

    Each (r, s) must join two components; the walk from the first
    vertex falls short unless the pairs join every cycle.
    """
    succ = list(succ)
    for r, s in pairs:
        succ[pred[r]], succ[pred[s]] = s, r
    walk = [dec.cycles[0][0]]
    while (v := succ[walk[-1]]) != walk[0]:
        walk.append(v)
    if len(walk) < sum(map(len, dec.cycles)):
        raise ValueError('cycles admit no cross complementary pair')
    return HamCycle(walk, dec.n)


def enumerate_joined_cycles(dec):
    """One joined cycle per spanning tree of the decomposition's graph.

    Yields (pairs, cycle) where pairs are the tree's (r, s) joins in
    edge order, and each cycle starts at the decomposition's first
    vertex.  The trees are listed up front, but each cycle is merged
    only when it is drawn, and no two trees yield the same cycle, so
    the stream holds best_count(graph) distinct cycles: none when the
    join graph is disconnected.
    """
    succ, pred, graph = _plan(dec)
    joins = (tuple(graph.edges[idx][2:] for idx in tree)
             for tree in spanning_trees(graph))
    return ((pairs, _merge(dec, succ, pred, pairs)) for pairs in joins)


def join_all(dec):
    """Join a whole decomposition into one cycle, lowest pair first.

    Components, kept as one label per cycle as in spanning_trees (0 for
    vertices on no cycle), only merge, so one ascending scan of
    (r, 2^n - 1 - r), r < 2^(n-1), joins the smallest cross pair of
    every round; the result starts at the decomposition's first vertex.
    """
    size = (1 << dec.n) - 1
    succ, pred, owner = _table(dec)
    label = list(range(len(dec.cycles) + 1))
    pairs = []
    for r in range(1, 1 << (dec.n - 1)):
        li, lk = label[owner[r]], label[owner[size - r]]
        if li and lk and li != lk:
            label = [lk if x == li else x for x in label]
            pairs.append((r, size - r))
    return _merge(dec, succ, pred, pairs)
