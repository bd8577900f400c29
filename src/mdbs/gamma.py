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
cycle.  Exhaustive cycle enumeration lists the 2^(2^(n-1) - n) cycles
by a depth-first search from the all-ones vertex that tries the double
arc before the complement arc, which lists them in lexicographic order
of their label sequences read from that vertex.  The search carries
each cycle's labels, and it skips every branch that breaks the
last-exit rule of the BEST theorem (van Aardenne-Ehrenfest and de
Bruijn, 1951): A and A XOR 2^(n-1) share both targets, so the cycles
are the Euler circuits of a graph on these pairs, and the last exits
of an Euler circuit form a tree into its end.  At n = 5 the rule cuts
the search from 79,024 steps to 32,607.
"""

from .seqkit import BitSequence, _check_order


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
    """Successor pair (double, complement) of a; double 0 if no such arc."""
    _check_order(n)
    _check_vertex(a, n)
    return _targets(a, (1 << n) - 1)


def arcs(n):
    """All arcs of order n >= 3 as (source, target, label), 0 = double.

    A generator, so n is checked at the first next().
    """
    _check_order(n, minimum=3)
    mask = (1 << n) - 1
    for a in range(1, mask + 1):
        d, c = _targets(a, mask)
        if d:
            yield (a, d, 0)
        yield (a, c, 1)


def loop_vertex(n):
    """The vertex carrying the one self-loop of order n >= 3.

    A double arc never loops, since 2A = A (mod 2^n) only for A = 0.
    The complement arc loops where 3A = 2^n - 1 (no wrap, n even) or
    3A = 2^(n+1) - 1 (wrap, n odd), so every order n >= 3 has exactly
    one self-loop, on a complement arc, at (2^n - 1)/3 for even n and
    (2^(n+1) - 1)/3 for odd n.
    """
    _check_order(n, minimum=3)
    return ((1 << (n + n % 2)) - 1) // 3


def _is_closed_walk(verts, size):
    """True when the tuple verts is a Hamiltonian cycle; size = 2^n - 1.

    Each of the size distinct vertices is an int in 1..size, as for
    _check_vertex, and b follows a exactly when ((a << 1) ^ b) & size
    is 0 (double arc) or size (complement), wrap-around included.
    """
    if (len(verts) != size
            or not all(issubclass(t, int) for t in set(map(type, verts)))
            or len(set(verts)) != size
            or min(verts) < 1 or max(verts) > size):
        return False
    follow = verts[1:] + verts[:1]
    return {((a << 1) ^ b) & size for a, b in zip(verts, follow)} <= {0, size}


class HamCycle:
    """A Hamiltonian cycle, stored in the rotation it was given.

    Construction validates the order n, length, distinctness, and that
    every consecutive pair (including the wrap-around) is an arc.  Equality
    and hashing are rotation-invariant: each call rotates the vertices
    to start at the all-ones vertex 2^n - 1.
    """

    # Not a NamedTuple: tuple.__ne__ would ignore rotation and len() be 2.
    __slots__ = ('vertices', 'n')

    def __init__(self, vertices, n):
        vertices = tuple(vertices)
        _check_order(n)
        size = (1 << n) - 1
        if not _is_closed_walk(vertices, size):
            # Name the first offender.
            if len(vertices) != size:
                raise ValueError(
                    f'cycle length {len(vertices)} != {size} for order {n}')
            # set() needs hashable vertices; the pass below names a
            # vertex that is not an int.
            if (all(isinstance(a, int) for a in vertices)
                    and len(set(vertices)) != size):
                raise ValueError('cycle vertices are not distinct')
            for i, a in enumerate(vertices):
                _check_vertex(a, n)
                b = vertices[(i + 1) % size]
                if b not in _targets(a, size):
                    raise ValueError(f'({a}, {b}) is not an arc at order {n}')
        object.__setattr__(self, 'vertices', vertices)
        object.__setattr__(self, 'n', n)

    def __setattr__(self, *_):
        raise AttributeError('HamCycle is immutable')

    __delattr__ = __setattr__

    def __reduce__(self):
        """Pickles and copies are rebuilt through the checks."""
        return HamCycle, (self.vertices, self.n)

    def _from_top(self):
        """The vertices rotated to start at the all-ones vertex."""
        top = self.vertices.index((1 << self.n) - 1)
        return self.vertices[top:] + self.vertices[:top]

    def __eq__(self, other):
        if isinstance(other, HamCycle):
            return (self.n == other.n
                    and self._from_top() == other._from_top())
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self._from_top()))

    def __repr__(self):
        return f'HamCycle({self.vertices})'


def cycle_to_sequence(cycle):
    """Arc labels around a cycle, starting from its stored first vertex."""
    verts = cycle.vertices
    labels = ''.join(['01'[v & 1] for v in verts])
    return BitSequence(int(labels[1:] + labels[0], 2), len(verts))


def cycle_from_sequence(s, n):
    """Rebuild the Hamiltonian cycle of order n whose arc labels are s.

    Inverse of cycle_to_sequence, by one walk that takes the arc labeled
    s[i] out of vertex i.  Each step doubles the vertex, so walking the
    last n labels from 0 first lands on the vertex that emits s[0].
    """
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


def enumerate_hamiltonian(n):
    """All Hamiltonian cycles of order n, canonically rotated.

    Each vertex tuple of _hamiltonian_dfs is validated as a HamCycle.
    Depth-first search from the all-ones start vertex, exploring the
    double arc (label 0) before the complement arc (label 1), so the
    stream is in lexicographic order of the label sequences read from
    that vertex.
    """
    _check_order(n, minimum=3)
    return (HamCycle(verts, n) for verts, _ in _hamiltonian_dfs(n))


def _hamiltonian_dfs(n):
    """(vertices, labels) of each Hamiltonian cycle of order n, by DFS.

    The vertices start at 2^n - 1, and labels is the packed value of
    their cycle_to_sequence: `labels` gains the low bit of each vertex
    entered, the label of the arc into it.  `used` has slot 0 preset,
    so the missing double arc reads as used.  A vertex with one free
    target moves on to it.  One with two is a branch: it pushes
    (len(path), complement target, labels) and takes the double
    target.  A dead end pops the last branch, unmarks path[k:] and
    truncates the path before taking the branch's complement target.
    h = 2^(n-1) has no double arc, and its complement arc enters the
    start, so it is the last vertex of every cycle: `used[h]` is preset
    too, and a full path closes through h.

    The vertices a and a ^ h form the pair x = a & (h - 1).  They share
    both targets, which no other vertex enters, so a graph with a node
    per pair and an arc per vertex, from the pair that enters it to its
    own, is Eulerian, and the Hamiltonian cycles are its Euler circuits
    from the root pair 0 of h.  By the BEST theorem (van
    Aardenne-Ehrenfest and de Bruijn, Simon Stevin 28, 1951) the last
    exits of the other pairs form a tree into the root.  The search
    leaves a pair for the first time only at a branch, and there fixes
    the target the pair will leave by last: the one it does not take
    now.  `last[x]` holds the pair of that target, or 0 while unfixed;
    2^(n-2), preset to leave by h into the root, never branches, so its
    entry stays 0.  Before a branch the search follows `last` from the
    pair of each candidate last target.  A chain that returns to x
    would close a loop of last exits, so that branch holds no cycle and
    is skipped; no entry closes a loop, so every chain ends at a 0.
    `fixed_at[x]` is the path length at which last[x] was fixed, and a
    backtrack to k clears the entries fixed after k.  At
    n = 5 the rule cuts the search from 79,024 steps to 32,607, of
    which 30,358 lie on branches that reach a cycle.

    A wrong prune could only lose cycles, so when the stream ends a
    count other than de Bruijn's 2^(2^(n-1) - n) raises RuntimeError.
    """
    size = (1 << n) - 1
    h = (size + 1) >> 1
    low = h - 1
    used = bytearray(size + 1)
    used[0] = used[h] = used[size] = 1
    last = [0] * h
    fixed_at = [0] * h
    path = [size]
    labels = 0
    branches = []
    count = 0
    a = size
    while True:
        d = (a << 1) & size
        c = d ^ size
        if used[d]:
            a = 0 if used[c] else c
        elif used[c]:
            a = d
        else:
            # First exit from pair x: the target not taken now is left
            # last, unless its chain of last exits returns to x.
            x = a & low
            y = c & low
            while y and y != x:
                y = last[y]
            z = d & low
            while z and z != x:
                z = last[z]
            if not y:
                if not z:
                    branches.append((len(path), c, labels))
                a, last[x] = d, c & low
            elif not z:
                a, last[x] = c, d & low
            else:
                a = 0
            fixed_at[x] = len(path)
        if not a:
            if len(path) == size - 1:
                count += 1
                yield (*path, h), labels << 2 | 1
            if not branches:
                break
            k, a, labels = branches.pop()
            for v in path[k:]:
                used[v] = 0
                if fixed_at[v & low] > k:
                    last[v & low] = 0
            del path[k:]
            last[path[-1] & low] = (a ^ size) & low
        used[a] = 1
        path.append(a)
        labels = labels << 1 | a & 1
    if count != 1 << (h - n):
        raise RuntimeError(f'internal error: {count} Hamiltonian cycles of '
                           f'order {n}, not {1 << (h - n)}')


def dot_export(n, highlight=None):
    """Graphviz text for the graph of order n; arcs of `highlight` bold.

    Double arcs come out as blue with label 0, complement arcs red
    with label 1.  `highlight` is an ordered vertex sequence, such as a
    HamCycle's `.vertices`; its arcs (including the wrap-around) get
    style="bold", and a vertex outside the graph raises.  The whole
    text is built before it is returned, so an order below 3 raises
    before anything is written.
    """
    _check_order(n, minimum=3)
    bold = set()
    if highlight is not None:
        verts = tuple(highlight)
        for i, a in enumerate(verts):
            _check_vertex(a, n)
            bold.add((a, verts[(i + 1) % len(verts)]))
    lines = [f'digraph gamma_{n} {{']
    for a, b, label in arcs(n):
        color = 'blue' if label == 0 else 'red'
        attrs = f'label="{label}", color="{color}"'
        if (a, b) in bold:
            attrs += ', style="bold"'
        lines.append(f'  {a} -> {b} [{attrs}];')
    lines.append('}')
    return '\n'.join(lines) + '\n'
