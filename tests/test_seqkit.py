"""Unit tests for periodic sequences, Berlekamp-Massey, and conversions."""

import random

import pytest

import _reference as ref
from mdbs import gamma, gf2poly, seqkit
from mdbs.seqkit import BitSequence

FULL_PAIR = (
    BitSequence((0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1)),
    BitSequence((0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1)),
)


def rand_bits(rng, count):
    return BitSequence(tuple(rng.randrange(2) for _ in range(count)))


def test_bit_sequence_basics():
    s = BitSequence((0, 1, 1))
    assert s.period == 3 and len(s) == 3
    assert s == (0, 1, 1)
    assert s[1] == 1 and list(s) == [0, 1, 1]
    assert s.to_text() == '011'
    assert s.to_text(fmt='tuple') == '(0,1,1)'
    with pytest.raises(ValueError):
        BitSequence(())
    with pytest.raises(ValueError):
        BitSequence((0, 2))
    with pytest.raises(AttributeError):
        s.bits = (1,)


def test_parse_sequence_formats():
    assert seqkit.parse_sequence('0110') == (0, 1, 1, 0)
    assert seqkit.parse_sequence('(0, 1, 1, 0)') == (0, 1, 1, 0)
    assert seqkit.parse_sequence('1,0,1') == (1, 0, 1)
    with pytest.raises(ValueError):
        seqkit.parse_sequence('01a0')


def test_shift_rotates_left():
    s = BitSequence((0, 1, 1))
    assert seqkit.shift(s, 0) == s
    assert seqkit.shift(s, 1) == (1, 1, 0)
    rng = random.Random(201)
    for _ in range(50):
        t = rand_bits(rng, rng.randrange(1, 20))
        k = rng.randrange(40)
        assert seqkit.shift(seqkit.shift(t, k), t.period - k % t.period) == t


def test_same_cycle_and_canonical_rotation():
    a = BitSequence((1, 0, 1, 1, 0))
    assert ref.same_cycle(a, seqkit.shift(a, 3))
    assert not ref.same_cycle(a, BitSequence((1, 0, 1, 0, 0)))
    assert seqkit.canonical_rotation(a) == (0, 1, 0, 1, 1)


def test_berlekamp_massey_known_complexities():
    full, modified = FULL_PAIR
    got_full = seqkit.berlekamp_massey(full)
    assert got_full.linear_complexity == 15
    assert got_full.minimal_polynomial == (1 << 16) - 1
    got_mod = seqkit.berlekamp_massey(modified)
    assert got_mod.linear_complexity == 4
    assert got_mod.minimal_polynomial == gf2poly.parse('x^4+x+1')


def test_berlekamp_massey_zero_sequence():
    got = seqkit.berlekamp_massey(BitSequence((0, 0, 0, 0)))
    assert got.linear_complexity == 0
    assert got.minimal_polynomial == 1


def test_berlekamp_massey_degree_equals_complexity():
    rng = random.Random(202)
    for _ in range(100):
        s = rand_bits(rng, rng.randrange(1, 40))
        got = seqkit.berlekamp_massey(s)
        assert gf2poly.degree(got.minimal_polynomial) \
            == got.linear_complexity


def test_lfsr_reproduces_bm_input():
    rng = random.Random(203)
    for _ in range(100):
        s = rand_bits(rng, rng.randrange(2, 32))
        got = seqkit.berlekamp_massey(s)
        if got.linear_complexity == 0:
            assert all(b == 0 for b in s)
            continue
        seed = BitSequence(s.bits[:got.linear_complexity]) \
            if got.linear_complexity <= s.period \
            else BitSequence(
                (s.bits * 2)[:got.linear_complexity])
        again = ref.ref_lfsr_generate(got.minimal_polynomial, seed, s.period)
        assert again == s


def test_lfsr_known_streams():
    s = ref.ref_lfsr_generate(gf2poly.parse('x^4+x+1'),
                              BitSequence((1, 1, 1, 1)), 15)
    assert s == (1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0)
    assert ref.ref_lfsr_generate(gf2poly.parse('x^2+x+1'),
                                 BitSequence((0, 1)), 6) == (0, 1, 1, 0, 1, 1)
    zeros = ref.ref_lfsr_generate(gf2poly.parse('x^3+x+1'),
                                  BitSequence((0, 0, 0)), 7)
    assert all(b == 0 for b in zeros)


def test_lfsr_rejects_mismatched_seed():
    with pytest.raises(ValueError):
        ref.ref_lfsr_generate(gf2poly.parse('x^4+x+1'), BitSequence((1, 0)), 8)
    with pytest.raises(ValueError):
        ref.ref_lfsr_generate(gf2poly.parse('x^2+x'), BitSequence((1, 0)), 8)


def test_window_complete_recognizers():
    full, modified = FULL_PAIR
    assert seqkit.is_de_bruijn(full, 4)
    assert not seqkit.is_de_bruijn(modified, 4)
    assert seqkit.is_modified_de_bruijn(modified, 4)
    assert not seqkit.is_modified_de_bruijn(full, 4)
    assert not seqkit.is_modified_de_bruijn(BitSequence((0,) * 15), 4)
    assert not seqkit.is_de_bruijn(BitSequence((0,) * 16), 4)


def test_modify_drops_one_zero():
    full, modified = FULL_PAIR
    assert seqkit.modify(full, 4) == modified
    rotated = seqkit.shift(full, 7)
    assert seqkit.modify(rotated, 4) == modified


def test_debruijnize_restores_the_zero():
    full, modified = FULL_PAIR
    assert seqkit.debruijnize(modified, 4) == full
    assert ref.same_cycle(seqkit.debruijnize(seqkit.modify(full, 4), 4),
                          full)


def test_modify_debruijnize_roundtrip_over_enumeration():
    for cycle in gamma.enumerate_hamiltonian(4):
        s = gamma.cycle_to_sequence(cycle)
        full = seqkit.debruijnize(s, 4)
        assert seqkit.is_de_bruijn(full, 4)
        assert ref.same_cycle(seqkit.modify(full, 4), s)


def test_modify_rejects_non_de_bruijn():
    with pytest.raises(ValueError):
        seqkit.modify(BitSequence((0, 1) * 8), 4)
    with pytest.raises(ValueError):
        seqkit.debruijnize(BitSequence((0, 1) * 8), 4)


def test_possible_spans_known_sets():
    spans4 = seqkit.possible_spans(4)
    assert spans4 == {0, 2, 4, 6, 8, 10, 12, 14}
    assert {4, 12, 14} <= spans4
    spans5 = seqkit.possible_spans(5)
    assert spans5 == {0, 5, 10, 15, 20, 25, 30}
    assert {5, 15, 20, 25, 30} <= spans5
    for n in (2, 3, 4, 5, 6, 7):
        assert max(seqkit.possible_spans(n)) == (1 << n) - 2


def test_possible_spans_built_from_factor_degrees():
    for n in (4, 6):
        degrees = [d for d in range(2, n + 1) if n % d == 0]
        counts = {d: gf2poly.irreducible_count(d) for d in degrees}
        expected = {0}
        for d in degrees:
            expected = {s + a * d
                        for s in expected for a in range(counts[d] + 1)}
        assert seqkit.possible_spans(n) == expected


def test_de_bruijn_span_form_known_case():
    full, _ = FULL_PAIR
    assert seqkit.check_de_bruijn_span_form(full, 4)
    got = seqkit.berlekamp_massey(full)
    assert got.linear_complexity == 15
    assert got.minimal_polynomial == (1 << 16) - 1


def test_de_bruijn_span_form_whole_enumeration():
    for cycle in gamma.enumerate_hamiltonian(4):
        full = seqkit.debruijnize(gamma.cycle_to_sequence(cycle), 4)
        assert seqkit.check_de_bruijn_span_form(full, 4)


def test_de_bruijn_span_form_rejects_non_de_bruijn():
    _, modified = FULL_PAIR
    with pytest.raises(ValueError):
        seqkit.check_de_bruijn_span_form(modified, 4)


def test_bm_reversal_matches_reciprocal():
    rng = random.Random(204)
    done = 0
    while done < 60:
        s = rand_bits(rng, rng.randrange(4, 24))
        got = seqkit.berlekamp_massey(s)
        if got.minimal_polynomial & 1 == 0:
            continue
        rev = BitSequence(tuple(reversed(s.bits)))
        got_rev = seqkit.berlekamp_massey(rev)
        assert got_rev.minimal_polynomial \
            == gf2poly.reciprocal(got.minimal_polynomial)
        done += 1


def test_bm_windows_against_reference_counter():
    _, modified = FULL_PAIR
    windows = ref.cyclic_windows(list(modified.bits), 4)
    assert len(set(windows)) == 15 and 0 not in windows
