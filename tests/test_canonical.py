"""Unit tests for generator recovery and the minimal-polynomial report."""

import random

import pytest

import _reference as ref
from mdbs import canonical, gamma, gf2poly, greedy, joiner, seqkit
from mdbs.gamma import GuardRefusal, HamCycle

F4 = gf2poly.build_F(4)
FIGURE_CYCLE = HamCycle(
    (1, 2, 4, 8, 15, 14, 3, 9, 13, 5, 10, 11, 6, 12, 7), 4)
GREEDY_CYCLE = HamCycle(
    (1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15), 4)
FINAL_CYCLE = HamCycle(
    (1, 2, 11, 9, 13, 5, 10, 4, 7, 14, 3, 6, 12, 8, 15), 4)


def test_generator_shift_walks_one_class():
    g = gf2poly.parse('x^10+x^9+x^7+x^5+x^4+1')
    expected = {
        1: 'x^11+x^10+x^8+x^6+x^5+x',
        2: 'x^12+x^11+x^9+x^7+x^6+x^2',
        3: 'x^13+x^12+x^10+x^8+x^7+x^3',
        4: 'x^12+x^10+x^7+x^6+x^5+x^3+x^2+x+1',
    }
    for k, text in expected.items():
        assert ref.ref_divmod(g << k, F4)[1] == gf2poly.parse(text)
    assert ref.ref_divmod(g, F4)[1] == g
    assert ref.ref_divmod(g << 15, F4)[1] == g


def test_shifted_generators_give_the_same_cycle():
    rng = random.Random(601)
    for cycle in gamma.enumerate_hamiltonian(4):
        c_h = canonical.canonical_generator(cycle)
        for _ in range(3):
            k = rng.randrange(1, 15)
            shifted = ref.ref_divmod(c_h << k, F4)[1]
            walk = ref.ref_walk_of_generator(shifted, 4)
            assert HamCycle(walk, 4) == cycle


def test_canonical_generator_known_recoveries():
    assert canonical.canonical_generator(GREEDY_CYCLE) \
        == gf2poly.parse('x^10+x^8+x^5+x+1')
    assert canonical.canonical_generator(FIGURE_CYCLE) \
        == gf2poly.parse('x^10+x^9+x^7+x^5+x^4+1')
    assert canonical.canonical_generator(FINAL_CYCLE) \
        == gf2poly.parse('x^10+x^7+x^5+x+1')


def test_canonical_generator_regenerates_its_cycle():
    for cycle in gamma.enumerate_hamiltonian(4):
        c_h = canonical.canonical_generator(cycle)
        assert gf2poly.degree(c_h) == 10
        assert c_h & 1 == 1
        assert HamCycle(ref.ref_walk_of_generator(c_h, 4), 4) == cycle
    for cycle in gamma.enumerate_hamiltonian(5, limit=40):
        c_h = canonical.canonical_generator(cycle)
        assert gf2poly.degree(c_h) == 25
        assert c_h & 1 == 1
        assert HamCycle(ref.ref_walk_of_generator(c_h, 5), 5) == cycle


def test_canonical_generator_matches_reference_recovery():
    cycles = [HamCycle(v, 2) for v in ((1, 2, 3), (2, 3, 1), (3, 1, 2))]
    for n in (3, 4, 5):
        for cycle in gamma.enumerate_hamiltonian(n):
            verts = cycle.vertices
            cycles += [HamCycle(verts[k:] + verts[:k], n) for k in (0, 1, 6)]
    for n in range(6, 15):
        for s in range(4):
            cycles.append(joiner.join_all(greedy.psi_decompose(n, seed=s)))
    mismatches = [(c.n, i) for i, c in enumerate(cycles)
                  if canonical.canonical_generator(c)
                  != ref.ref_canonical_generator(c)]
    assert mismatches == []


def test_canonical_generator_is_rotation_invariant():
    verts = GREEDY_CYCLE.vertices
    for k in (1, 4, 9):
        rotated = HamCycle(verts[k:] + verts[:k], 4)
        assert canonical.canonical_generator(rotated) \
            == canonical.canonical_generator(GREEDY_CYCLE)


def test_minimal_polynomial_report_final_cycle():
    report = canonical.minimal_polynomial_of_cycle(FINAL_CYCLE)
    assert report.c_h == gf2poly.parse('x^10+x^7+x^5+x+1')
    assert report.d == gf2poly.parse('x^2+x+1')
    assert report.f == gf2poly.parse('x^12+x^9+x^6+x^3+1')
    assert report.f_star == report.f
    assert report.span == 12
    assert report.bm_check == report.f


def test_minimal_polynomial_report_span_four_cycle():
    cycle = HamCycle((6, 3, 9, 13, 5, 10, 4, 8, 15, 14, 12, 7, 1, 2, 11), 4)
    report = canonical.minimal_polynomial_of_cycle(cycle)
    assert report.span == 4
    assert report.bm_check == gf2poly.parse('x^4+x+1')
    assert report.f == gf2poly.parse('x^4+x+1')
    assert report.d == gf2poly.div_rem(F4, report.f)[0]


def test_report_internal_consistency():
    rng = random.Random(602)
    cycles = list(gamma.enumerate_hamiltonian(4))
    cycles += list(gamma.enumerate_hamiltonian(5, limit=24))
    for cycle in cycles:
        report = canonical.minimal_polynomial_of_cycle(cycle)
        f_n = gf2poly.build_F(cycle.n)
        assert gf2poly.mul(report.d, report.f) == f_n
        assert report.f_star == gf2poly.reciprocal(report.f)
        assert report.span == gf2poly.degree(report.f)
        assert report.bm_check == report.f
        series = gf2poly.expand_series(report.c_h, f_n, (1 << cycle.n) - 1)
        bm_series = seqkit.berlekamp_massey(series)
        assert bm_series.minimal_polynomial == report.f_star
        arcs = gamma.cycle_to_sequence(cycle)
        assert ref.same_cycle(
            arcs, seqkit.BitSequence(tuple(reversed(series.bits))))
        assert report.span in seqkit.possible_spans(cycle.n)
        _assert_squarefree_factor_degrees(report.f, cycle.n)
    del rng


def _assert_squarefree_factor_degrees(f, n):
    """f must be squarefree with every irreducible factor degree | n, > 1."""
    assert gf2poly.gcd(f, gf2poly.derivative(f)) == 1
    remaining = f
    for d in range(2, n + 1):
        if n % d:
            continue
        x_pow = gf2poly.pow_mod(gf2poly.parse('x'), 1 << d, remaining) \
            if gf2poly.degree(remaining) > 0 else 0
        if gf2poly.degree(remaining) <= 0:
            break
        part = gf2poly.gcd(gf2poly.add(x_pow, gf2poly.parse('x')), remaining)
        if gf2poly.degree(part) > 0:
            remaining = gf2poly.div_rem(remaining, part)[0]
    assert remaining == 1


def test_spans_of_all_cycles_small_order():
    spans = canonical.spans_of_all_cycles(4)
    assert sum(spans.values()) == 16
    assert set(spans) == {4, 12, 14}
    assert spans[14] == 10
    assert spans[4] == 2
    assert spans[12] == 4


def test_spans_guard():
    with pytest.raises(GuardRefusal):
        canonical.spans_of_all_cycles(7)


def test_max_span_cycles_have_coprime_generators():
    for cycle in gamma.enumerate_hamiltonian(4):
        report = canonical.minimal_polynomial_of_cycle(cycle)
        if report.span == 14:
            assert report.d == 1
            assert report.f == F4


def test_joined_cycles_report_consistently():
    dec = greedy.psi_decompose(4, visit_order=(6, 4, 14))
    for _, cycle in joiner.enumerate_joined_cycles(dec):
        report = canonical.minimal_polynomial_of_cycle(cycle)
        assert report.bm_check == report.f
        assert report.span in {4, 14}
