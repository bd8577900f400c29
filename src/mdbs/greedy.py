"""Greedy walks and cycle decompositions on the arc-labeled digraph.

Two preference rules grow a walk from a chosen initial vertex, at each
step moving to an unvisited successor until both are exhausted:

* prefer-complement takes the complement arc whenever its target is
  unvisited, falling back to the double arc;
* modified prefer-double takes the double arc whenever it exists and
  its target is unvisited, falling back to the complement arc.

A walk that visits every vertex and whose last vertex arcs back to the
first is a Hamiltonian cycle; other outcomes are returned as plain
paths and flagged by is_hamiltonian rather than treated as errors.

Running the prefer-complement rule over a whole visit order of the
vertex set partitions it into closed cycles: repeatedly start a cycle
at the first unexplored vertex of the order, grow it greedily against
the set of all vertices used so far, and close it when stuck (the rule
guarantees the stuck vertex arcs back to its cycle's start).  The
resulting PsiDecomposition is the raw material for cycle joining.
"""

import functools
import random

from .gamma import successors, _check_order, _check_vertex


@functools.lru_cache(maxsize=4)
def _preferred(n, prefer_double):
    """Preferred target of every vertex a: ((a << 1) & mask) ^ flip.

    That is the double target for flip = 0 and the complement target
    for flip = mask; the other target is the preferred one XOR mask.
    The tuple holds 2^n ints, as many as a walk's path may, and is
    immutable because every walk of that order and rule shares it.
    """
    mask = (1 << n) - 1
    flip = 0 if prefer_double else mask
    return tuple([((a << 1) & mask) ^ flip for a in range(mask + 1)])


def _grow(path, visited, n, prefer_double):
    """Extend path greedily until both successors are exhausted.

    `visited` is a bytearray over 0 .. 2^n - 1 with slot 0 set: 0 is
    the target of the missing double arc, so that arc reads as visited.
    Each step reads the preferred target from the cached _preferred
    table and falls back to its XOR with mask.  Callers have checked n
    and path[0]; every later vertex is an arc target, so no step
    re-checks.
    """
    preferred = _preferred(n, prefer_double)
    mask = (1 << n) - 1
    append = path.append
    a = path[-1]
    while True:
        a = preferred[a]
        if visited[a]:
            a ^= mask
            if visited[a]:
                return
        visited[a] = 1
        append(a)


def _walk(n, v_init, prefer_double):
    """One rule's walk from v_init, after checking n and v_init."""
    _check_order(n)
    _check_vertex(v_init, n)
    visited = bytearray(1 << n)
    visited[0] = visited[v_init] = 1
    path = [v_init]
    _grow(path, visited, n, prefer_double)
    return path


def prefer_complement(n, v_init):
    """Walk of the prefer-complement rule from v_init.

    Returns the full vertex path; use is_hamiltonian to test whether it
    closed into a Hamiltonian cycle.
    """
    return _walk(n, v_init, prefer_double=False)


def modified_prefer_double(n, v_init):
    """Walk of the modified prefer-double rule from v_init."""
    return _walk(n, v_init, prefer_double=True)


def is_hamiltonian(path, n):
    """True when path visits every vertex once and closes into a cycle."""
    if len(path) != (1 << n) - 1 or len(set(path)) != len(path):
        return False
    return path[0] in successors(path[-1], n)


class PsiDecomposition:
    """Disjoint closed cycles produced by a full greedy sweep.

    `cycles` holds the cycles in discovery order; each cycle starts at
    its start element and ends at its terminating element (the vertex
    whose preferred moves were exhausted, and which arcs back to the
    start).  `order` is the visit order that produced the sweep and
    `seed` the text form of the shuffle seed, if one was used.
    """

    __slots__ = ('n', 'cycles', 'order', 'seed')

    def __init__(self, n, cycles, order=None, seed=None):
        _check_order(n)
        cycles = tuple(tuple(c) for c in cycles)
        if not cycles or any(not c for c in cycles):
            raise ValueError('decomposition needs nonempty cycles')
        seen = set()
        for c in cycles:
            for v in c:
                _check_vertex(v, n)
                if v in seen:
                    raise ValueError(f'vertex {v} appears in two cycles')
                seen.add(v)
        object.__setattr__(self, 'n', n)
        object.__setattr__(self, 'cycles', cycles)
        object.__setattr__(self, 'order',
                           None if order is None else tuple(order))
        object.__setattr__(self, 'seed', seed)

    def __setattr__(self, name, v):
        raise AttributeError('PsiDecomposition is immutable')

    def __len__(self):
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def __repr__(self):
        return f'PsiDecomposition(n={self.n}, cycles={self.cycles})'


def psi_decompose(n, visit_order=None, seed=None):
    """Partition all vertices into greedy cycles along a visit order.

    The order may be given as a duplicate-free sequence of vertices
    (completed with the remaining vertices in ascending order),
    produced by shuffling with `seed`, or left as the natural ascending
    order.  Each sweep starts a cycle at the first unused vertex of the
    order and grows it by the prefer-complement rule against the global
    used set.
    """
    _check_order(n)
    size = (1 << n) - 1
    if visit_order is not None:
        given = tuple(visit_order)
        for v in given:
            _check_vertex(v, n)
        if len(set(given)) != len(given):
            raise ValueError('visit order repeats a vertex')
        rest = sorted(set(range(1, size + 1)) - set(given))
        order = given + tuple(rest)
        seed_text = None
    elif seed is not None:
        order = list(range(1, size + 1))
        random.Random(str(seed)).shuffle(order)
        order = tuple(order)
        seed_text = str(seed)
    else:
        order = tuple(range(1, size + 1))
        seed_text = None
    visited = bytearray(size + 1)
    visited[0] = 1
    cycles = []
    for v in order:
        if visited[v]:
            continue
        cycle = [v]
        visited[v] = 1
        _grow(cycle, visited, n, prefer_double=False)
        d, c = successors(cycle[-1], n)
        if cycle[0] not in (d, c):
            raise AssertionError(
                'internal error: greedy cycle failed to close')
        cycles.append(tuple(cycle))
    return PsiDecomposition(n, cycles, order=order, seed=seed_text)
