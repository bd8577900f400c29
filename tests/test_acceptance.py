"""Acceptance checks: one test per release criterion, with time budgets.

Each test name is the pass/fail line for its criterion.  The frozen
vertex lists, generator strings, and sequences below are the bundled
reference-table values that the implementation must reproduce.
"""

import time

from mdbs import canonical, gamma, gf2poly, greedy, joiner, seqkit

# Reference walks: (order, initial vertices as listed, resulting cycle).
# The first listed initial vertex reproduces the row verbatim; the
# remaining ones land on the same cycle in a different rotation.
PREFER_COMPLEMENT_ROWS = (
    (4, (1, 15, 8), (1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15)),
    (4, (3, 14), (3, 9, 13, 5, 10, 11, 6, 12, 7, 1, 2, 4, 8, 15, 14)),
    (4, (7, 12), (7, 1, 13, 5, 10, 11, 9, 2, 4, 8, 15, 14, 3, 6, 12)),
    (5, (1, 31, 16),
     (1, 29, 5, 21, 10, 11, 9, 13, 26, 20, 23, 17, 2, 27, 22, 19, 25, 18,
      4, 8, 15, 30, 3, 6, 12, 7, 14, 28, 24, 16, 31)),
    (5, (3, 30),
     (3, 25, 13, 5, 21, 10, 11, 9, 18, 27, 22, 19, 6, 12, 7, 17, 29, 26,
      20, 23, 14, 28, 24, 15, 1, 2, 4, 8, 16, 31, 30)),
    (5, (7, 28),
     (7, 17, 29, 5, 21, 10, 11, 9, 13, 26, 20, 23, 14, 3, 25, 18, 27, 22,
      19, 6, 12, 24, 15, 1, 2, 4, 8, 16, 31, 30, 28)),
    (5, (15, 24),
     (15, 1, 29, 5, 21, 10, 11, 9, 13, 26, 20, 23, 17, 2, 27, 22, 19, 25,
      18, 4, 8, 16, 31, 30, 3, 6, 12, 7, 14, 28, 24)),
    (6, (1, 63, 32),
     (1, 61, 5, 53, 21, 42, 43, 41, 45, 37, 10, 20, 23, 17, 29, 58, 11,
      22, 19, 25, 13, 26, 52, 40, 47, 33, 2, 59, 9, 18, 27, 54, 44, 39,
      49, 34, 4, 55, 46, 35, 57, 50, 36, 8, 16, 31, 62, 3, 6, 51, 38, 12,
      24, 15, 30, 60, 7, 14, 28, 56, 48, 32, 63)),
    (6, (3, 62),
     (3, 57, 13, 37, 53, 21, 42, 43, 41, 45, 26, 11, 22, 19, 25, 50, 27,
      9, 18, 36, 55, 17, 29, 5, 10, 20, 23, 46, 35, 6, 51, 38, 12, 39,
      49, 34, 59, 54, 44, 24, 15, 33, 61, 58, 52, 40, 47, 30, 60, 7, 14,
      28, 56, 48, 31, 1, 2, 4, 8, 16, 32, 63, 62)),
    (6, (7, 60),
     (7, 49, 29, 5, 53, 21, 42, 43, 41, 45, 37, 10, 20, 23, 17, 34, 59,
      9, 18, 27, 54, 19, 25, 13, 26, 11, 22, 44, 39, 14, 35, 57, 50, 36,
      55, 46, 28, 56, 15, 33, 61, 58, 52, 40, 47, 30, 3, 6, 51, 38, 12,
      24, 48, 31, 1, 2, 4, 8, 16, 32, 63, 62, 60)),
    (6, (15, 56),
     (15, 33, 61, 5, 53, 21, 42, 43, 41, 45, 37, 10, 20, 23, 17, 29, 58,
      11, 22, 19, 25, 13, 26, 52, 40, 47, 30, 3, 57, 50, 27, 9, 18, 36,
      55, 46, 35, 6, 51, 38, 12, 39, 49, 34, 59, 54, 44, 24, 48, 31, 1,
      2, 4, 8, 16, 32, 63, 62, 60, 7, 14, 28, 56)),
    (6, (31, 48),
     (31, 1, 61, 5, 53, 21, 42, 43, 41, 45, 37, 10, 20, 23, 17, 29, 58,
      11, 22, 19, 25, 13, 26, 52, 40, 47, 33, 2, 59, 9, 18, 27, 54, 44,
      39, 49, 34, 4, 55, 46, 35, 57, 50, 36, 8, 16, 32, 63, 62, 3, 6, 51,
      38, 12, 24, 15, 30, 60, 7, 14, 28, 56, 48)),
)

PREFER_DOUBLE_ROWS = (
    (4, (5, 10), (5, 10, 4, 8, 15, 14, 12, 7, 1, 2, 11, 6, 3, 9, 13)),
    (5, (10, 21),
     (10, 20, 8, 16, 31, 30, 28, 24, 15, 1, 2, 4, 23, 14, 3, 6, 12, 7,
      17, 29, 26, 11, 22, 19, 25, 18, 27, 9, 13, 5, 21)),
    (6, (21, 42),
     (21, 42, 20, 40, 16, 32, 63, 62, 60, 56, 48, 31, 1, 2, 4, 8, 47, 30,
      3, 6, 12, 24, 15, 33, 61, 58, 52, 23, 46, 28, 7, 14, 35, 57, 50,
      36, 55, 17, 34, 59, 54, 44, 39, 49, 29, 5, 10, 43, 22, 19, 38, 51,
      25, 13, 26, 11, 41, 18, 27, 9, 45, 37, 53)),
)

# Span support of every order-6 cycle, per the bundled reference table.
ORDER6_SPANS = frozenset({6, 27, 30, 32, 33, 35, 36, 38, 39, 41, 42, 44,
                          45, 47, 48, 50, 51, 53, 54, 56, 57, 59, 60, 62})

# The ten order-4 cycles of maximal span 14: canonical generator
# (msb-first) paired with the reference sequence, up to rotation.
MAX_SPAN_TABLE = {
    '10100100011': '101001101111000',
    '11011000101': '111100101101000',
    '10011010111': '100111101011000',
    '10100011011': '101101001111000',
    '11101011001': '110101111001000',
    '11010111011': '101100111101000',
    '10001101011': '101111010011000',
    '11011101011': '101111001101000',
    '11010110001': '110010111101000',
    '11000100101': '111101100101000',
}

# Joined-cycle outcomes for the worked three-cycle decomposition,
# keyed by the complementary pairs of the spanning tree.  'F' marks
# the all-ones polynomial of degree 14.
WORKED_JOIN_ROWS = {
    frozenset({(13, 2), (7, 8)}):
        ((6, 3, 9, 2, 4, 8, 15, 14, 12, 7, 1, 13, 5, 10, 11),
         '110001001111010', 'F'),
    frozenset({(11, 4), (7, 8)}):
        ((6, 3, 9, 13, 5, 10, 4, 8, 15, 14, 12, 7, 1, 2, 11),
         '111100010011010', 'x^4+x+1'),
    frozenset({(11, 4), (1, 14)}):
        ((6, 3, 9, 13, 5, 10, 4, 7, 14, 12, 8, 15, 1, 2, 11),
         '111100100011010', 'F'),
    frozenset({(3, 12), (13, 2)}):
        ((6, 12, 8, 15, 14, 3, 9, 2, 4, 7, 1, 13, 5, 10, 11),
         '001011001111010', 'F'),
    frozenset({(3, 12), (11, 4)}):
        ((6, 12, 8, 15, 14, 3, 9, 13, 5, 10, 4, 7, 1, 2, 11),
         '001011110011010', 'F'),
    frozenset({(3, 12), (7, 8)}):
        ((6, 12, 7, 1, 2, 4, 8, 15, 14, 3, 9, 13, 5, 10, 11),
         '011000101111010', 'F'),
    frozenset({(3, 12), (1, 14)}):
        ((6, 12, 8, 15, 1, 2, 4, 7, 14, 3, 9, 13, 5, 10, 11),
         '001100101111010', 'F'),
}

# The reference table prints the row for the {(13,2),(1,14)} tree with
# the same cycle, sequence, and polynomial as the {(3,12),(13,2)} row;
# the corrected outcome for that tree is frozen separately.
DUPLICATED_ROW = ((6, 12, 8, 15, 14, 3, 9, 2, 4, 7, 1, 13, 5, 10, 11),
                  '001011001111010', 'F')
CORRECTED_ROW = ((6, 3, 9, 2, 4, 7, 14, 12, 8, 15, 1, 13, 5, 10, 11),
                 '110010001111010', 'x^4+x^3+1')


def _greedy_cycles(n):
    """The distinct Hamiltonian cycles both greedy walks can produce."""
    found = set()
    for v in range(1, 1 << n):
        for walker in (greedy.prefer_complement,
                       greedy.modified_prefer_double):
            path = walker(n, v)
            if greedy.is_hamiltonian(path, n):
                found.add(gamma.HamCycle(path, n))
    return found


def _factor_degrees_divide(f, n):
    """True when every irreducible factor of f has degree dividing n, > 1."""
    x = gf2poly.parse('x')
    if gf2poly.gcd(f, gf2poly.parse('x^2+x')) != 1:
        return False
    remaining = f
    for d in range(2, n + 1):
        if n % d or gf2poly.degree(remaining) <= 0:
            continue
        x_pow = gf2poly.pow_mod(x, 1 << d, remaining)
        part = gf2poly.gcd(gf2poly.add(x_pow, x), remaining)
        if gf2poly.degree(part) > 0:
            remaining = gf2poly.div_rem(remaining, part)[0]
    return remaining == 1


def test_criterion_01_reference_walks_reproduce_exactly():
    started = time.monotonic()
    for rows, walker in ((PREFER_COMPLEMENT_ROWS, greedy.prefer_complement),
                         (PREFER_DOUBLE_ROWS, greedy.modified_prefer_double)):
        for n, inits, expected in rows:
            assert tuple(walker(n, inits[0])) == expected
            cycle = gamma.HamCycle(expected, n)
            for v in inits[1:]:
                walk = walker(n, v)
                assert walk[0] == v
                assert gamma.HamCycle(walk, n) == cycle
    assert time.monotonic() - started < 1.0


def test_criterion_02_greedy_success_structure():
    started = time.monotonic()
    for n in range(4, 11):
        size = (1 << n) - 1
        expected_inits = ({(1 << j) - 1 for j in range(1, n)}
                          | {(1 << n) - (1 << (j - 1)) for j in range(1, n)}
                          | {1 << (n - 1)})
        winners = set()
        cycles = set()
        for v in range(1, size + 1):
            path = greedy.prefer_complement(n, v)
            if greedy.is_hamiltonian(path, n):
                winners.add(v)
                cycles.add(gamma.HamCycle(path, n))
        assert winners == expected_inits
        assert len(cycles) == n - 1
        third = size // 3
        doubled = {v for v in range(1, size + 1)
                   if greedy.is_hamiltonian(
                       greedy.modified_prefer_double(n, v), n)}
        assert doubled == {third, size - third}
    assert time.monotonic() - started < 30.0


def test_criterion_03_enumeration_counts():
    started = time.monotonic()
    for n, expected in ((3, 2), (4, 16), (5, 2048)):
        assert sum(1 for _ in gamma.enumerate_hamiltonian(n)) == expected
    assert time.monotonic() - started < 10.0


def test_criterion_04_span_supports():
    started = time.monotonic()
    assert set(canonical.spans_of_all_cycles(4)) == {4, 12, 14}
    assert set(canonical.spans_of_all_cycles(5)) == {5, 15, 20, 25, 30}
    samples = list(_greedy_cycles(6))
    seed = 0
    while len(samples) < 1000:
        decomposition = greedy.psi_decompose(6, seed=f'span-sample-{seed}')
        seed += 1
        for k, (_, cycle) in enumerate(
                joiner.enumerate_joined_cycles(decomposition)):
            if k >= 40:
                break
            samples.append(cycle)
    assert len(samples) >= 1000
    observed = {canonical.minimal_polynomial_of_cycle(c).span
                for c in samples}
    assert observed <= ORDER6_SPANS
    assert time.monotonic() - started < 120.0


def test_criterion_05_max_span_generators():
    started = time.monotonic()
    full = gf2poly.build_F(4)
    found = {}
    for cycle in gamma.enumerate_hamiltonian(4):
        report = canonical.minimal_polynomial_of_cycle(cycle)
        if report.span == 14:
            generator = gf2poly.to_text(report.c_h, 'binary')
            assert generator not in found
            found[generator] = gf2poly.expand_series(report.c_h, full, 15)
    assert len(found) == 10
    assert set(found) == set(MAX_SPAN_TABLE)
    for generator, series in found.items():
        expected = seqkit.parse_sequence(MAX_SPAN_TABLE[generator])
        assert (seqkit.canonical_rotation(series)
                == seqkit.canonical_rotation(expected))
    assert time.monotonic() - started < 5.0


def test_criterion_06_worked_join_outcomes():
    started = time.monotonic()
    decomposition = greedy.psi_decompose(4, visit_order=(6, 4, 14))
    assert decomposition.cycles == ((6, 3, 9, 13, 5, 10, 11),
                                    (4, 7, 1, 2),
                                    (14, 12, 8, 15))
    graph = joiner.complement_pairs(decomposition)
    assert set(graph.edges) == {(1, 2, 13, 2), (1, 2, 11, 4), (1, 3, 3, 12),
                                (2, 3, 7, 8), (2, 3, 1, 14)}
    assert joiner.join_matrix(graph).entries == ((3, -2, -1),
                                                 (-2, 4, -2),
                                                 (-1, -2, 3))
    assert joiner.best_count(graph) == 8

    full = gf2poly.build_F(4)

    def row_poly(text):
        return full if text == 'F' else gf2poly.parse(text)

    outcomes = {}
    for pairs, cycle in joiner.enumerate_joined_cycles(decomposition):
        key = frozenset(pairs)
        assert key not in outcomes
        outcomes[key] = (cycle.vertices,
                         gamma.cycle_to_sequence(cycle).to_text(),
                         canonical.minimal_polynomial_of_cycle(cycle).f)
    assert len(outcomes) == 8
    for key, (verts, sequence, poly_text) in WORKED_JOIN_ROWS.items():
        assert outcomes[key] == (verts, sequence, row_poly(poly_text))
    # The duplicated row reproduces the {(3,12),(13,2)} outcome, not the
    # {(13,2),(1,14)} tree it is filed under; the computed outcome for
    # that tree is the corrected row.
    verts, sequence, poly_text = DUPLICATED_ROW
    assert outcomes[frozenset({(3, 12), (13, 2)})] == (
        verts, sequence, row_poly(poly_text))
    verts, sequence, poly_text = CORRECTED_ROW
    assert outcomes[frozenset({(13, 2), (1, 14)})] == (
        verts, sequence, row_poly(poly_text))
    distinct = {gamma.HamCycle(verts, 4)
                for verts, _, _ in outcomes.values()}
    assert len(distinct) == 8
    assert time.monotonic() - started < 1.0


def test_criterion_07_generator_recovery_pipeline():
    started = time.monotonic()
    greedy_cycle = gamma.HamCycle(
        (1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15), 4)
    assert (canonical.canonical_generator(greedy_cycle)
            == gf2poly.parse('x^10+x^8+x^5+x+1'))
    final_cycle = gamma.HamCycle(
        (1, 2, 11, 9, 13, 5, 10, 4, 7, 14, 3, 6, 12, 8, 15), 4)
    report = canonical.minimal_polynomial_of_cycle(final_cycle)
    assert report.c_h == gf2poly.parse('x^10+x^7+x^5+x+1')
    assert report.d == gf2poly.parse('x^2+x+1')
    assert report.f == gf2poly.parse('x^12+x^9+x^6+x^3+1')
    assert time.monotonic() - started < 1.0


def test_criterion_08_oracle_equivalence():
    started = time.monotonic()
    mismatches = []
    for n in (4, 5):
        full = gf2poly.build_F(n)
        for cycle in gamma.enumerate_hamiltonian(n):
            report = canonical.minimal_polynomial_of_cycle(cycle)
            arc_bm = seqkit.berlekamp_massey(gamma.cycle_to_sequence(cycle))
            denominator = gf2poly.gcd(report.c_h, full)
            reduced = gf2poly.div_rem(full, denominator)[0]
            series = gf2poly.expand_series(report.c_h, full, (1 << n) - 1)
            series_bm = seqkit.berlekamp_massey(series)
            if not (arc_bm.linear_complexity
                    == gf2poly.degree(full) - gf2poly.degree(denominator)
                    and arc_bm.minimal_polynomial == reduced == report.f
                    and series_bm.minimal_polynomial == report.f_star):
                mismatches.append(cycle.vertices)
    assert mismatches == []
    assert time.monotonic() - started < 60.0


def test_criterion_09_paired_sequence_complexities():
    started = time.monotonic()
    full = seqkit.parse_sequence('0000100110101111')
    trimmed = seqkit.parse_sequence('000100110101111')
    assert seqkit.berlekamp_massey(full).linear_complexity == 15
    assert seqkit.berlekamp_massey(trimmed).linear_complexity == 4
    assert seqkit.check_de_bruijn_span_form(full, 4) is True
    assert time.monotonic() - started < 1.0


def test_criterion_10_structural_invariants():
    started = time.monotonic()
    failures = []
    x = gf2poly.parse('x')
    x_plus_1 = gf2poly.parse('x+1')
    for n in range(3, 11):
        size = (1 << n) - 1
        graph = gamma.build(n)
        outs = [0] * (size + 1)
        ins = [0] * (size + 1)
        arcs = 0
        loops = []
        for a, b, label in graph.arcs():
            outs[a] += 1
            ins[b] += 1
            arcs += 1
            if a == b:
                loops.append((a, label))
        if arcs != 2 * size - 1:
            failures.append(f'n={n}: arc count {arcs} != {2 * size - 1}')
        half = 1 << (n - 1)
        if any(outs[a] != (1 if a == half else 2)
               for a in range(1, size + 1)):
            failures.append(f'n={n}: out-degree profile broken')
        if any(ins[a] != (1 if a == size else 2)
               for a in range(1, size + 1)):
            failures.append(f'n={n}: in-degree profile broken')
        # A double arc never loops (2A = A mod 2^n only for A = 0).  The
        # complement arc loops where 3A = 2^n - 1 (no wrap, n even) or
        # 3A = 2^(n+1) - 1 (wrap, n odd): one loop at every order.
        expected = (((1 << n) - 1) // 3 if n % 2 == 0
                    else ((1 << (n + 1)) - 1) // 3)
        found = graph.loop_vertex()
        if loops != [(expected, 1)] or found != expected:
            failures.append(f'n={n}: self-loops (vertex, label) {loops} '
                            f'and loop_vertex() {found}, but exactly one '
                            f'complement loop at vertex {expected} is '
                            f'expected')
        full = gf2poly.build_F(n)
        product = gf2poly.mul(gf2poly.mul(x, x_plus_1), full)
        if product != gf2poly.parse(f'x^{1 << n}+x'):
            failures.append(f'n={n}: product identity broken')
        for cycle in _greedy_cycles(n):
            f = canonical.minimal_polynomial_of_cycle(cycle).f
            if gf2poly.gcd(f, gf2poly.derivative(f)) != 1:
                failures.append(
                    f'n={n}: {gf2poly.to_text(f)} is not squarefree')
            elif not _factor_degrees_divide(f, n):
                failures.append(f'n={n}: {gf2poly.to_text(f)} has a factor '
                                f'of degree not dividing {n}')
    elapsed = time.monotonic() - started
    assert not failures, 'invariant violations: ' + '; '.join(failures)
    assert elapsed < 60.0
