"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: polynomials are coefficient
lists, multiplication is schoolbook, irreducibility is trial division,
spanning trees are listed by checking every edge subset, greedy walks
keep a visited set, LFSR
streams, generator walks and Berlekamp-Massey discrepancies are
stepped one bit at a time, cycles are rebuilt from their labels by
XORing one mask per label, and cycles are joined one smallest cross
pair per round.  Slow but easy to audit
by hand.
"""

import itertools


def to_list(value):
    """Coefficient list (index = exponent) of an integer-coded polynomial."""
    bits = []
    v = value
    while v:
        bits.append(v & 1)
        v >>= 1
    return bits


def to_int(bits):
    """Integer code of a coefficient list."""
    v = 0
    for i, b in enumerate(bits):
        if b:
            v |= 1 << i
    return v


def trim(bits):
    """Drop trailing zero coefficients."""
    while bits and bits[-1] == 0:
        bits.pop()
    return bits


def ref_mul(a, b):
    """Schoolbook product of two integer-coded polynomials."""
    pa, pb = to_list(a), to_list(b)
    if not pa or not pb:
        return 0
    out = [0] * (len(pa) + len(pb) - 1)
    for i, ca in enumerate(pa):
        if ca:
            for j, cb in enumerate(pb):
                out[i + j] ^= cb
    return to_int(out)


def ref_divmod(a, b):
    """Long division of integer-coded polynomials, returning (q, r)."""
    if b == 0:
        raise ZeroDivisionError('reference division by zero')
    rem = to_list(a)
    den = to_list(b)
    deg_den = len(den) - 1
    if len(rem) < len(den):
        return 0, a
    quo = [0] * (len(rem) - deg_den)
    for pos in range(len(rem) - 1, deg_den - 1, -1):
        if rem[pos]:
            shift_by = pos - deg_den
            quo[shift_by] = 1
            for j, cb in enumerate(den):
                rem[j + shift_by] ^= cb
    return to_int(quo), to_int(rem)


def ref_gcd(a, b):
    """Euclidean gcd of integer-coded polynomials."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return a


def ref_derivative(a):
    """Formal derivative: the coefficient of x^i is (i + 1) * a_(i+1)."""
    bits = to_list(a)
    return to_int([bits[i + 1] * ((i + 1) % 2) for i in range(len(bits) - 1)])


def ref_reciprocal(a):
    """Coefficient list read backwards; requires a(0) = 1."""
    bits = to_list(a)
    if not bits or not bits[0]:
        raise ValueError('reference reciprocal needs a nonzero constant term')
    return to_int(bits[::-1])


def irreducibles_of_degree(n):
    """All integer-coded irreducible polynomials of degree n, by sieve."""
    if n == 1:
        return [2, 3]
    candidates = []
    for v in range(1 << n, 1 << (n + 1)):
        if not v & 1:
            continue
        if all(ref_divmod(v, d)[1] != 0
               for d in range(2, 1 << (n // 2 + 1))):
            candidates.append(v)
    return candidates


def ref_spanning_trees(node_count, endpoint_pairs):
    """Spanning trees as edge-index tuples, testing every edge subset.

    Subsets of node_count - 1 edges come in itertools.combinations
    order, and a subset is kept when a union-find finds no cycle in it.
    """
    trees = []
    for combo in itertools.combinations(range(len(endpoint_pairs)),
                                        node_count - 1):
        parent = list(range(node_count + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for idx in combo:
            i, k = endpoint_pairs[idx]
            ri, rk = find(i), find(k)
            if ri == rk:
                acyclic = False
                break
            parent[ri] = rk
        if acyclic:
            trees.append(combo)
    return trees


def spanning_tree_count(node_count, endpoint_pairs):
    """Count spanning trees by testing every (node_count-1)-edge subset."""
    return len(ref_spanning_trees(node_count, list(endpoint_pairs)))


def cyclic_windows(bits, n):
    """All cyclic length-n windows of a bit list, as integers msb-first."""
    period = len(bits)
    out = []
    for i in range(period):
        w = 0
        for j in range(n):
            w = (w << 1) | bits[(i + j) % period]
        out.append(w)
    return out


def same_cycle(a, b):
    """True when the BitSequences a and b are rotations of each other."""
    return a.period == b.period and a.to_text() in b.to_text() * 2


def ref_berlekamp_massey(bits):
    """(linear complexity, integer-coded minimal polynomial) of a period.

    Two periods of the 0/1 tuple are processed; each discrepancy is
    summed one tap at a time, and the connection polynomial is
    coefficient-reversed into the characteristic form at the end.
    """
    bits = tuple(bits) * 2
    c, b = 1, 1  # connection polynomials, bit j = coefficient of D^j
    length, m = 0, 1
    for i, bit in enumerate(bits):
        d = bit
        for j in range(1, length + 1):
            d ^= ((c >> j) & 1) & bits[i - j]
        if d == 0:
            m += 1
        elif 2 * length <= i:
            c, b = c ^ (b << m), c
            length = i + 1 - length
            m = 1
        else:
            c ^= b << m
            m += 1
    poly = 0
    for j in range(length + 1):
        if (c >> j) & 1:
            poly |= 1 << (length - j)
    return length, poly


def ref_cycle_from_sequence(bits, n):
    """Vertices of the cycle whose arc labels are the 0/1 tuple `bits`.

    Vertex i is the XOR of the masks ((2^n - 1) << k) mod 2^n selected
    by the n labels preceding position i, so vertex 0 emits bits[0].
    """
    size = (1 << n) - 1
    masks = [(size << k) % (1 << n) for k in range(n)]
    verts = []
    for i in range(len(bits)):
        v = 0
        for k in range(n):
            if bits[(i - 1 - k) % len(bits)]:
                v ^= masks[k]
        verts.append(v)
    return tuple(verts)


def ref_canonical_generator(cycle):
    """Generator with constant term 1 of a cycle, by an anchored walk.

    The all-ones vertex fixes the walk's alignment.  Each later step of
    x^k * c mod F exposes one unknown coefficient of c, because only the
    top power x^(2^n - 2) folds back onto the low window, as the
    all-ones pattern; the remaining steps check the regenerated walk.
    """
    n = cycle.n
    size = (1 << n) - 1      # vertex count, also the all-ones vertex
    f = (1 << size) - 1      # F = 1 + x + ... + x^(2^n - 2)
    deg_f = size - 1
    deg_c = size - n - 1
    verts = cycle.vertices
    anchor = verts.index(size)
    c = (1 << deg_c) | 1
    topstep = (1 << deg_f) - 1   # x^deg_f mod F = 1 + x + ... + x^(deg_f-1)
    mask = (1 << n) - 1
    w = ref_divmod(c << n, f)[1]
    for k in range(1, size):
        w <<= 1
        if w >> deg_f:
            w ^= f
        target = verts[(anchor + k) % size]
        low = w & mask
        i = deg_c - k
        if 1 <= i < deg_c:
            if low ^ mask == target:
                c |= 1 << i
                w ^= topstep
            elif low != target:
                raise AssertionError('reference recovery lost the walk')
        elif low != target:
            raise AssertionError('regenerated walk disagrees with the cycle')
    return c


def ref_lfsr_generate(charpoly, seed, count):
    """First `count` bits of the LFSR run with the given recursion.

    charpoly is the integer-coded characteristic polynomial (degree
    m >= 1, constant term 1) and seed supplies the first m bits.
    """
    f = charpoly
    m = f.bit_length() - 1
    if m < 1:
        raise ValueError('charpoly must have degree at least 1')
    if not f & 1:
        raise ValueError('charpoly must have constant term 1')
    bits = list(seed)
    if len(bits) != m:
        raise ValueError(f'seed length {len(bits)} != degree {m}')
    if count < 1:
        raise ValueError('count must be positive')
    taps = [i for i in range(m) if (f >> i) & 1]
    for k in range(count - m):
        nxt = 0
        for i in taps:
            nxt ^= bits[k + i]
        bits.append(nxt)
    return tuple(bits[:count])


def ref_walk_of_generator(g, n):
    """Vertex walk of a generator: step i is (x^i * g mod F) mod x^n.

    For i = 0 .. 2^n - 2, with F the all-ones polynomial of degree
    2^n - 2.  Consecutive steps are always joined by an arc; the walk
    is a Hamiltonian cycle exactly for valid cycle generators.
    """
    if n < 2:
        raise ValueError('order n must be at least 2')
    size = (1 << n) - 1      # vertex count, also the low-window mask
    f = (1 << size) - 1      # F = 1 + x + ... + x^(2^n - 2)
    w = ref_divmod(g, f)[1]
    if w == 0:
        raise ValueError('generator reduces to zero')
    walk = []
    for _ in range(size):
        v = w & size
        if v == 0:
            raise ValueError('walk leaves the nonzero vertex set')
        walk.append(v)
        w <<= 1
        if w >> (size - 1):
            w ^= f
    return walk


def ref_join_all(cycles, n):
    """Join disjoint cycles into one, smallest cross pair per round.

    Each round rescans r = 1, 2, ... for the first r whose complement
    s = 2^n - 1 - r lies on a different current cycle, then splices the
    two cycles there: the result runs the first cycle up to r, the
    second from s all the way round, and the first again from r.  The
    joined cycle is rotated to start at the first cycle's first vertex.
    """
    size = (1 << n) - 1
    parts = [list(c) for c in cycles]
    while len(parts) > 1:
        locate = {v: i for i, c in enumerate(parts) for v in c}
        for r in range(1, size + 1):
            ia, ib = locate.get(r), locate.get(size - r)
            if ia is not None and ib is not None and ia != ib:
                break
        else:
            raise ValueError('cycles admit no cross complementary pair')
        a, b = parts[ia], parts[ib]
        i, k = a.index(r), b.index(size - r)
        merged = a[:i] + b[k:] + b[:k] + a[i:]
        parts = [p for j, p in enumerate(parts) if j not in (ia, ib)]
        parts.append(merged)
    start = parts[0].index(cycles[0][0])
    return parts[0][start:] + parts[0][:start]


def ref_greedy_walk(n, v_init, prefer_double, used=None):
    """Greedy walk from v_init, one successor pair and set lookup a step.

    The double target of a is 2a mod 2^n (no arc when that is 0) and
    the complement target is 2^n - 1 minus it; the preferred one is
    taken while unused, else the other.  `used`, when given, is shared
    and updated, as in a decomposition sweep.
    """
    mask = (1 << n) - 1
    used = set() if used is None else used
    used.add(v_init)
    path = [v_init]
    while True:
        d = (path[-1] << 1) & mask
        c = mask ^ d
        first, second = (d, c) if prefer_double else (c, d)
        if first and first not in used:
            nxt = first
        elif second and second not in used:
            nxt = second
        else:
            return path
        used.add(nxt)
        path.append(nxt)
