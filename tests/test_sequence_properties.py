"""Differential tests of the packed sequence code against naive oracles.

Berlekamp-Massey, the window scans and the cycle <-> sequence
conversions all work on one period packed into an int; the oracles in
`_reference` work one bit at a time over plain tuples.  Periods cross
the 64-bit word boundaries, and the all-zero, all-one and single-one
sequences are checked at every edge period.  `parse_sequence`, the
checked way in from text, is held to the tuple it spells.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
from mdbs import gamma, gf2poly, greedy, joiner, seqkit
from mdbs.seqkit import BitSequence, parse_sequence

EDGE_PERIODS = (1, 2, 63, 64, 65, 127, 128, 255, 256)

properties = settings(deadline=None, derandomize=True, max_examples=60)


@st.composite
def bit_tuples(draw, max_period=600):
    p = draw(st.one_of(st.sampled_from(EDGE_PERIODS),
                       st.integers(1, max_period)))
    v = draw(st.integers(0, (1 << p) - 1))
    return tuple(map(int, format(v, f'0{p}b')))


def _seq(bits):
    """The BitSequence of a 0/1 tuple, first bit first."""
    return BitSequence(int(''.join(map(str, bits)), 2), len(bits))


def _bits(s):
    return tuple(map(int, s.to_text()))


def _bm(bits):
    """(degree, polynomial) of the BM result, the oracle's pair."""
    f = seqkit.berlekamp_massey(_seq(bits))
    return gf2poly.degree(f), f


def _gcd_route(bits):
    """(degree, polynomial) of seqkit.minimal_polynomial."""
    f = seqkit.minimal_polynomial(_seq(bits))
    return gf2poly.degree(f), f


@properties
@given(bit_tuples())
def test_berlekamp_massey_matches_bit_loop(bits):
    assert _bm(bits) == _gcd_route(bits) == ref.ref_berlekamp_massey(bits)


@pytest.mark.parametrize('p', EDGE_PERIODS)
@pytest.mark.parametrize('kind', ('zeros', 'ones', 'single_one'))
def test_berlekamp_massey_edge_sequences(p, kind):
    bits = {'zeros': (0,) * p, 'ones': (1,) * p,
            'single_one': (0,) * (p - 1) + (1,)}[kind]
    assert _bm(bits) == _gcd_route(bits) == ref.ref_berlekamp_massey(bits)


def test_berlekamp_massey_every_order_5_cycle():
    for cycle in gamma.enumerate_hamiltonian(5):
        bits = _bits(gamma.cycle_to_sequence(cycle))
        assert _bm(bits) == _gcd_route(bits) == ref.ref_berlekamp_massey(bits)


def test_minimal_polynomial_every_period():
    # The bit-loop oracle takes about 13 s over periods 1..600, so it
    # runs up to period 150; above that the gcd route is held to the
    # packed Berlekamp-Massey, which the property test above holds to
    # the oracle at periods up to 600.
    rng = random.Random(2)
    for p in range(1, 601):
        bits = tuple(rng.randrange(2) for _ in range(p))
        expected = (ref.ref_berlekamp_massey(bits) if p <= 150
                    else _bm(bits))
        assert _gcd_route(bits) == expected


@pytest.mark.parametrize('n', range(2, 11))
def test_minimal_polynomial_of_window_complete_sequences(n):
    labels = gamma.cycle_to_sequence(
        joiner.join_all(greedy.psi_decompose(n, seed=n)))
    for s in (labels, seqkit.debruijnize(labels, n)):
        bits = _bits(s)
        assert _gcd_route(bits) == ref.ref_berlekamp_massey(bits)


def _assert_round_trip(cycle):
    s = gamma.cycle_to_sequence(cycle)
    back = gamma.cycle_from_sequence(s, cycle.n)
    assert back.vertices == cycle.vertices
    assert back.vertices == ref.ref_cycle_from_sequence(_bits(s), cycle.n)
    assert gamma.cycle_to_sequence(back) == s


@pytest.mark.parametrize('n', (4, 5))
def test_cycle_from_sequence_every_cycle(n):
    for cycle in gamma.enumerate_hamiltonian(n):
        _assert_round_trip(cycle)


@pytest.mark.parametrize('n', range(3, 13))
def test_cycle_from_sequence_joined_cycles(n):
    for seed in range(4):
        _assert_round_trip(joiner.join_all(greedy.psi_decompose(n, seed=seed)))


def _windows_say(bits, n):
    windows = ref.cyclic_windows(list(bits), n)
    unique = len(set(windows)) == len(bits)
    return (len(bits) == 1 << n and unique,
            len(bits) == (1 << n) - 1 and unique and 0 not in windows)


@pytest.mark.parametrize('n', range(3, 9))
def test_window_scans_match_reference(n):
    labels = gamma.cycle_to_sequence(
        joiner.join_all(greedy.psi_decompose(n, seed=0)))
    for valid in (labels, seqkit.debruijnize(labels, n)):
        bits = _bits(valid)
        assert True in _windows_say(bits, n)
        flips = (bits[:i] + (1 - bits[i],) + bits[i + 1:]
                 for i in range(len(bits)))
        for t in (bits, *flips):
            s = _seq(t)
            assert (seqkit.is_de_bruijn(s, n),
                    seqkit.is_modified_de_bruijn(s, n)) == _windows_say(t, n)


@properties
@given(bit_tuples(max_period=300))
def test_equality_and_hash_follow_value_and_period(bits):
    s = _seq(bits)
    assert _bits(s) == bits
    twin = BitSequence(s.value, len(bits))
    assert s == twin and hash(s) == hash(twin)
    assert hash(s) == hash((s.value, s.period))
    assert s != BitSequence(s.value, s.period + 1)
    assert s != bits


@properties
@given(st.integers(1, 300).flatmap(
    lambda p: st.tuples(st.integers(0, (1 << p) - 1), st.just(p))))
def test_packed_equals_parsed_text(vp):
    v, p = vp
    assert BitSequence(v, p) == parse_sequence(format(v, f'0{p}b'))


def _spell(bits, form):
    """`bits` as text tokens in one of the three accepted forms."""
    digits = [str(b) for b in bits]
    if form == 'compact':
        return digits
    commas = [t for d in digits for t in (d, ',')][:-1]
    return ['(', *commas, ')'] if form == 'tuple' else commas


@properties
@given(bit_tuples(), st.sampled_from(('compact', 'tuple', 'csv')),
       st.lists(st.tuples(st.integers(0, 2 * 600 + 2),
                          st.sampled_from((' ', '\t', '\n', ' \r\n '))),
                max_size=12))
def test_parse_sequence_reads_every_form(bits, form, spaces):
    tokens = _spell(bits, form)
    for at, blank in spaces:
        tokens.insert(at % (len(tokens) + 1), blank)
    s = parse_sequence(''.join(tokens))
    assert s.value == int(''.join(map(str, bits)), 2)
    assert s.period == len(bits)


@properties
@given(st.integers(1, 300), st.integers(0, 1 << 300))
def test_constructor_rejects_out_of_range(p, k):
    with pytest.raises(ValueError):
        BitSequence(k, 0)
    with pytest.raises(ValueError):
        BitSequence(-1 - k, p)
    with pytest.raises(ValueError):
        BitSequence((1 << p) + k, p)
    assert BitSequence((1 << p) - 1, p).to_text() == '1' * p
