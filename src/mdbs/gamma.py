"""Arc-labeled digraph whose Hamiltonian cycles are window-complete walks.

For order n the vertex set is the integers 1 .. 2^n - 1, read as the
nonzero binary words of length n (bit i of the vertex is coefficient i
of the corresponding polynomial).  Every vertex A carries up to two
out-arcs:

* a "double" arc A -> 2A mod 2^n, labeled 0 and drawn blue; it is
  absent exactly when the doubling wraps to 0, i.e. at A = 2^(n-1);
* a "complement" arc A -> (2^n - 1) - (2A mod 2^n), labeled 1 and
  drawn red.

A double target is even and a complement target is odd, so the label
of an arc is the low bit of its target.

Every order has exactly one self-loop, on a complement arc, at vertex
(2^n - 1)/3 for even n and (2^(n+1) - 1)/3 for odd n.

Reading off the arc labels around a Hamiltonian cycle yields a binary
sequence of period 2^n - 1 in which every nonzero n-bit window occurs
exactly once, and conversely each such sequence traces a Hamiltonian
cycle.  Exhaustive cycle enumeration is exponential and therefore sits
behind a guard: orders above the configured ceiling (environment
variable MDBS_EXHAUSTIVE_MAX, default 6) are refused unless explicitly
overridden.
"""

import itertools
import os
from typing import NamedTuple, Optional, Tuple

from .seqkit import BitSequence

#: Environment variable holding the exhaustive-enumeration ceiling.
EXHAUSTIVE_MAX_ENV = 'MDBS_EXHAUSTIVE_MAX'
DEFAULT_EXHAUSTIVE_MAX = 6

Vertex = int


class GuardRefusal(RuntimeError):
    """Raised when an exponential enumeration exceeds the guard ceiling."""


def exhaustive_limit():
    """Current ceiling for exhaustive enumeration."""
    raw = os.environ.get(EXHAUSTIVE_MAX_ENV, '')
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_EXHAUSTIVE_MAX


def guard_exhaustive(n, override_guard=False):
    """Raise GuardRefusal above exhaustive_limit() unless overridden."""
    ceiling = exhaustive_limit()
    if n > ceiling and not override_guard:
        raise GuardRefusal(
            f'exhaustive enumeration at order {n} exceeds the guard '
            f'ceiling {ceiling}; raise {EXHAUSTIVE_MAX_ENV} or override '
            f'to accept the exponential run time')


def _check_order(n, minimum=2):
    if not isinstance(n, int) or n < minimum:
        raise ValueError(f'order n must be an integer >= {minimum}')


def _check_vertex(v, n):
    if not isinstance(v, int) or not 1 <= v <= (1 << n) - 1:
        raise ValueError(f'vertex {v!r} outside 1..{(1 << n) - 1}')


def _targets(a, mask):
    """Arc targets (double, complement) of vertex a, with mask = 2^n - 1.

    No argument is checked.  A double target of 0 marks the missing
    double arc.  A double target is even and a complement target is
    odd, so an arc's label is the low bit of its target.
    """
    d = (a << 1) & mask
    return d, mask ^ d


def successors(a, n):
    """Successor pair (double, complement) of vertex a; double may be None."""
    _check_order(n)
    _check_vertex(a, n)
    d, c = _targets(a, (1 << n) - 1)
    return (d or None, c)


class GammaGraph(NamedTuple):
    """The full digraph of some order n, with arc lookup tables.

    `double[a]` and `comp[a]` give the arc targets of vertex a (index 0
    is padding); a missing double arc is stored as None.  Built by
    `build`.
    """

    n: int
    double: Tuple[Optional[int], ...]
    comp: Tuple[Optional[int], ...]

    @property
    def vertices(self):
        return range(1, 1 << self.n)

    def arcs(self):
        """All arcs as (source, target, label) with label 0 = double."""
        for a in self.vertices:
            if self.double[a] is not None:
                yield (a, self.double[a], 0)
            yield (a, self.comp[a], 1)

    def loop_vertex(self):
        """The vertex carrying the graph's one self-loop.

        A double arc never loops, since 2A = A (mod 2^n) only for A = 0.
        The complement arc loops where 3A = 2^n - 1 (no wrap, n even) or
        3A = 2^(n+1) - 1 (wrap, n odd), so every order n >= 3 has exactly
        one self-loop, on a complement arc, at (2^n - 1)/3 for even n and
        (2^(n+1) - 1)/3 for odd n.  The None return is unreachable for
        the orders `build` accepts.
        """
        for a in self.vertices:
            if self.double[a] == a or self.comp[a] == a:
                return a
        return None

    def __repr__(self):
        return f'GammaGraph(n={self.n})'


def build(n):
    """Construct the graph of order n >= 3."""
    _check_order(n, minimum=3)
    arcs = [(None, None)] + [successors(a, n) for a in range(1, 1 << n)]
    return GammaGraph(n, *zip(*arcs))


def _is_closed_walk(verts, size):
    """True when verts are ints in 1..size, each followed by an arc target.

    Whole-tuple test, wrap-around included: b is a target of a exactly
    when ((a << 1) ^ b) & size is 0 (double arc) or size (complement).
    """
    if set(map(type, verts)) != {int} or min(verts) < 1 or max(verts) > size:
        return False
    follow = verts[1:] + verts[:1]
    return {((a << 1) ^ b) & size for a, b in zip(verts, follow)} <= {0, size}


class HamCycle:
    """A Hamiltonian cycle, stored in a fixed rotation.

    Construction validates length, distinctness, and that every
    consecutive pair (including the wrap-around) is an arc.  Equality
    and hashing are rotation-invariant; `canonical()` returns the
    rotation starting at the all-ones vertex 2^n - 1.
    """

    __slots__ = ('vertices', 'n', '_canon')

    def __init__(self, vertices, n=None):
        vertices = tuple(vertices)
        if n is None:
            n = (len(vertices) + 1).bit_length() - 1
        _check_order(n, minimum=2)
        size = (1 << n) - 1
        if len(vertices) != size:
            raise ValueError(
                f'cycle length {len(vertices)} != {size} for order {n}')
        if len(set(vertices)) != size:
            raise ValueError('cycle vertices are not distinct')
        if not _is_closed_walk(vertices, size):
            # Name the first offender as a per-vertex pass would.  Only
            # vertices of an int subclass, such as bool, get through.
            for i, a in enumerate(vertices):
                _check_vertex(a, n)
                b = vertices[(i + 1) % size]
                if b not in _targets(a, size):
                    raise ValueError(f'({a}, {b}) is not an arc at order {n}')
        top = vertices.index(size)
        object.__setattr__(self, 'vertices', vertices)
        object.__setattr__(self, 'n', n)
        object.__setattr__(self, '_canon', vertices[top:] + vertices[:top])

    def __setattr__(self, name, v):
        raise AttributeError('HamCycle is immutable')

    def canonical(self):
        """The same cycle rotated to start at the all-ones vertex."""
        if self.vertices == self._canon:
            return self
        return HamCycle(self._canon, self.n)

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other):
        if isinstance(other, HamCycle):
            return self.n == other.n and self._canon == other._canon
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self._canon))

    def __repr__(self):
        return f'HamCycle({self.vertices})'


def cycle_to_sequence(cycle):
    """Arc labels around a cycle, starting from its stored first vertex."""
    verts = cycle.vertices
    labels = ''.join('01'[v & 1] for v in verts[1:] + verts[:1])
    return BitSequence.packed(int(labels, 2), len(verts))


def cycle_from_sequence(s, n=None):
    """Rebuild the Hamiltonian cycle whose arc labels are s.

    Inverse of cycle_to_sequence, by one walk that takes the arc labeled
    s[i] out of vertex i.  Each step doubles the vertex, so walking the
    last n labels from 0 first lands on the vertex that emits s[0].
    """
    if n is None:
        n = (s.period + 1).bit_length() - 1
    _check_order(n)
    size = (1 << n) - 1
    if s.period != size:
        raise ValueError(f'period {s.period} != {size} for order {n}')
    text = s.to_text()
    v, verts = 0, []
    for label in map(int, text[-n:] + text[:-1]):
        v = _targets(v, size)[label]
        verts.append(v)
    return HamCycle(verts[n - 1:], n)


def enumerate_hamiltonian(n, limit=None, override_guard=False):
    """All Hamiltonian cycles of order n, canonically rotated.

    Depth-first search from the all-ones start vertex, exploring the
    double arc before the complement arc, so the stream order is
    deterministic.  `limit` truncates the stream.  Orders above the
    exhaustive guard (see guard_exhaustive) raise GuardRefusal unless
    `override_guard` is set.
    """
    _check_order(n, minimum=3)
    guard_exhaustive(n, override_guard)
    cycles = _hamiltonian_dfs(build(n))
    if limit is None:
        return cycles
    return itertools.islice(cycles, max(limit, 0))


def _hamiltonian_dfs(graph):
    """Hamiltonian cycles of the graph, by DFS with an explicit stack.

    `pending[k]` iterates the untried successors of `path[k]`.
    """
    double, comp = graph.double, graph.comp
    size = (1 << graph.n) - 1
    start = size
    used = bytearray(size + 1)
    used[start] = 1
    path = [start]
    pending = [iter((double[start], comp[start]))]
    while pending:
        for b in pending[-1]:
            if b and not used[b]:
                used[b] = 1
                path.append(b)
                if len(path) < size:
                    pending.append(iter((double[b], comp[b])))
                    break
                if start in (double[b], comp[b]):
                    yield HamCycle(tuple(path), graph.n)
                path.pop()
                used[b] = 0
        else:
            pending.pop()
            used[path.pop()] = 0


def dot_export(graph, highlight=None):
    """Graphviz text for the graph; arcs of `highlight` are bolded.

    Double arcs come out as blue with label 0, complement arcs red
    with label 1.  `highlight` may be a HamCycle or an ordered vertex
    sequence; its arcs (including the wrap-around) get style="bold".
    """
    bold = set()
    if highlight is not None:
        verts = tuple(highlight)
        for i, a in enumerate(verts):
            bold.add((a, verts[(i + 1) % len(verts)]))
    lines = [f'digraph gamma_{graph.n} {{']
    for a, b, label in graph.arcs():
        color = 'blue' if label == 0 else 'red'
        attrs = f'label="{label}", color="{color}"'
        if (a, b) in bold:
            attrs += ', style="bold"'
        lines.append(f'  {a} -> {b} [{attrs}];')
    lines.append('}')
    return '\n'.join(lines) + '\n'
