"""Unit tests for periodic sequences, Berlekamp-Massey, and conversions."""

import copy
import pickle
import random
import tracemalloc

import pytest

import _reference as ref
from mdbs import gamma, gf2poly, seqkit
from mdbs.seqkit import BitSequence, parse_sequence

FULL_PAIR = (
    parse_sequence('0000100110101111'),
    parse_sequence('000100110101111'),
)


def _seq(bits):
    """The BitSequence of a 0/1 tuple, first bit first."""
    return BitSequence(int(''.join(map(str, bits)), 2), len(bits))


def _bits(s):
    return tuple(map(int, s.to_text()))


def rand_bits(rng, count):
    return _seq(tuple(rng.randrange(2) for _ in range(count)))


def test_copies_of_a_long_sequence_stay_small():
    # len() is the period, so copying through tuple(self) would build a
    # 2^22-slot tuple on the way.
    s = BitSequence(1, 1 << 22)
    for twin_of in (copy.copy, copy.deepcopy,
                    lambda v: pickle.loads(pickle.dumps(v))):
        tracemalloc.start()
        try:
            twin = twin_of(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert type(twin) is BitSequence and twin == s


def test_bit_sequence_basics():
    s = parse_sequence('011')
    assert s.period == 3 and len(s) == 3
    assert s.value == 3 and s == BitSequence(3, 3)
    assert s.to_text() == '011'
    assert repr(s) == 'BitSequence(0b011, 3)'
    with pytest.raises(ValueError):
        BitSequence(0, 0)
    with pytest.raises(ValueError):
        BitSequence(4, 2)
    with pytest.raises(AttributeError):
        s.value = 1


def test_parse_sequence_formats():
    assert parse_sequence('0110').to_text() == '0110'
    assert parse_sequence('(0, 1, 1, 0)').to_text() == '0110'
    assert parse_sequence('1,0,1').to_text() == '101'
    for text in ('', '()', ',', '(', '01a0', '0 2', '1_0', '01,1',
                 '(0_1,0)', '(+1,0)', '(-0,1)', '(0,0,+1,1)', '\u0661\u0660',
                 '0,,1', '0,1,', '(,0,1)'):
        with pytest.raises(ValueError, match='bad sequence text'):
            parse_sequence(text)


def test_shift_rotates_left():
    s = parse_sequence('011')
    assert seqkit.shift(s, 0) == s
    assert seqkit.shift(s, 1).to_text() == '110'
    rng = random.Random(201)
    for _ in range(50):
        t = rand_bits(rng, rng.randrange(1, 20))
        k = rng.randrange(40)
        assert seqkit.shift(seqkit.shift(t, k), t.period - k % t.period) == t


def test_same_cycle_and_canonical_rotation():
    a = parse_sequence('10110')
    assert ref.same_cycle(a, seqkit.shift(a, 3))
    assert not ref.same_cycle(a, parse_sequence('10100'))
    least = min(seqkit.shift(a, k).value for k in range(a.period))
    assert format(least, '05b') == '01011'


def test_berlekamp_massey_known_complexities():
    full, modified = FULL_PAIR
    got_full = seqkit.berlekamp_massey(full)
    assert gf2poly.degree(got_full) == 15
    assert got_full == (1 << 16) - 1
    got_mod = seqkit.berlekamp_massey(modified)
    assert gf2poly.degree(got_mod) == 4
    assert got_mod == gf2poly.parse('x^4+x+1')


def test_berlekamp_massey_zero_sequence():
    got = seqkit.berlekamp_massey(BitSequence(0, 4))
    assert gf2poly.degree(got) == 0
    assert got == 1


def test_lfsr_reproduces_bm_input():
    rng = random.Random(203)
    for _ in range(100):
        s = rand_bits(rng, rng.randrange(2, 32))
        got = seqkit.berlekamp_massey(s)
        complexity = gf2poly.degree(got)
        if complexity == 0:
            assert all(b == 0 for b in _bits(s))
            continue
        seed = (_bits(s) * 2)[:complexity]
        again = ref.ref_lfsr_generate(got, seed, s.period)
        assert again == _bits(s)


def test_lfsr_known_streams():
    s = ref.ref_lfsr_generate(gf2poly.parse('x^4+x+1'),
                              (1, 1, 1, 1), 15)
    assert s == (1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0)
    assert ref.ref_lfsr_generate(gf2poly.parse('x^2+x+1'),
                                 (0, 1), 6) == (0, 1, 1, 0, 1, 1)
    zeros = ref.ref_lfsr_generate(gf2poly.parse('x^3+x+1'),
                                  (0, 0, 0), 7)
    assert all(b == 0 for b in zeros)


def test_lfsr_rejects_mismatched_seed():
    with pytest.raises(ValueError):
        ref.ref_lfsr_generate(gf2poly.parse('x^4+x+1'), (1, 0), 8)
    with pytest.raises(ValueError):
        ref.ref_lfsr_generate(gf2poly.parse('x^2+x'), (1, 0), 8)


def test_window_complete_recognizers():
    full, modified = FULL_PAIR
    assert seqkit.is_de_bruijn(full, 4)
    assert not seqkit.is_de_bruijn(modified, 4)
    assert seqkit.is_modified_de_bruijn(modified, 4)
    assert not seqkit.is_modified_de_bruijn(full, 4)
    assert not seqkit.is_modified_de_bruijn(BitSequence(0, 15), 4)
    assert not seqkit.is_de_bruijn(BitSequence(0, 16), 4)
    # The windows 00, 01 and 10 are distinct, but one is zero.
    assert not seqkit.is_modified_de_bruijn(BitSequence(0b001, 3), 2)


@pytest.mark.parametrize('check, args, minimum', [
    (seqkit.is_de_bruijn, (FULL_PAIR[0],), 2),
    (seqkit.is_modified_de_bruijn, (FULL_PAIR[1],), 2),
    (seqkit.possible_spans, (), 2),
    (seqkit.check_de_bruijn_span_form, (parse_sequence('0011'),), 3),
], ids=('is_de_bruijn', 'is_modified_de_bruijn', 'possible_spans',
        'check_de_bruijn_span_form'))
def test_orders_below_the_minimum_raise(check, args, minimum):
    for n in (minimum - 1, 2.5):
        with pytest.raises(ValueError, match=f'^order n must be an integer '
                                             f'>= {minimum}$'):
            check(*args, n)


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
        seqkit.modify(parse_sequence('01' * 8), 4)
    with pytest.raises(ValueError):
        seqkit.debruijnize(parse_sequence('01' * 8), 4)


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
    assert gf2poly.degree(got) == 15
    assert got == (1 << 16) - 1


def test_de_bruijn_span_form_whole_enumeration():
    for cycle in gamma.enumerate_hamiltonian(4):
        full = seqkit.debruijnize(gamma.cycle_to_sequence(cycle), 4)
        assert seqkit.check_de_bruijn_span_form(full, 4)


def test_de_bruijn_span_form_rejects_non_de_bruijn():
    _, modified = FULL_PAIR
    with pytest.raises(ValueError):
        seqkit.check_de_bruijn_span_form(modified, 4)


@pytest.mark.parametrize('f, expected', [
    (gf2poly.parse('x^16+1'), True),           # (x + 1)^16, the top
    (gf2poly.parse('x^9+x^8+x+1'), True),      # (x + 1)^9, the bottom
    (gf2poly.parse('x^8+1'), False),           # (x + 1)^8, too low
    (gf2poly.mul(1 << 16 | 1, 3), False),      # (x + 1)^17, too high
    (gf2poly.parse('x^10+1'), False),          # in range, other factors
])
def test_has_span_form_at_order_4(f, expected):
    assert seqkit.has_span_form(f, 4) is expected


def test_bm_reversal_matches_reciprocal():
    rng = random.Random(204)
    done = 0
    while done < 60:
        s = rand_bits(rng, rng.randrange(4, 24))
        got = seqkit.berlekamp_massey(s)
        if got & 1 == 0:
            continue
        rev = parse_sequence(s.to_text()[::-1])
        assert seqkit.berlekamp_massey(rev) == gf2poly.reciprocal(got)
        done += 1


def test_bm_windows_against_reference_counter():
    _, modified = FULL_PAIR
    windows = ref.cyclic_windows(list(_bits(modified)), 4)
    assert len(set(windows)) == 15 and 0 not in windows
