"""Unit tests for GF(2)[x] arithmetic, series, and text formats."""

import random

import pytest

import _reference as ref
from mdbs import gf2poly


F4 = gf2poly.build_F(4)


def rand_poly(rng, max_degree):
    return rng.randrange(1 << (max_degree + 1))


def test_add_self_cancels():
    rng = random.Random(101)
    for _ in range(50):
        a = rand_poly(rng, 40)
        assert gf2poly.add(a, a) == 0


def test_add_known_values():
    assert gf2poly.add(gf2poly.parse('x+1'), gf2poly.parse('x')) == 1
    assert gf2poly.add(F4, gf2poly.parse('x^14')) == (1 << 14) - 1


def test_degree_and_coefficients():
    assert gf2poly.degree(0) == -1
    assert gf2poly.degree(1) == 0
    a = gf2poly.parse('x^10+x^8+x^5+x+1')
    assert gf2poly.degree(a) == 10
    assert [a >> i & 1 for i in (0, 1, 2, 5, 8, 10)] == [1, 1, 0, 1, 1, 1]


def test_mul_matches_schoolbook_reference():
    rng = random.Random(102)
    for _ in range(300):
        a = rand_poly(rng, 24)
        b = rand_poly(rng, 24)
        assert gf2poly.mul(a, b) == ref.ref_mul(a, b)


def test_pow_mod_known_values():
    assert gf2poly.pow_mod(gf2poly.parse('x'), 15, F4) == 1


def test_pow_mod_rejects_zero_modulus_and_negative_exponent():
    with pytest.raises(ZeroDivisionError):
        gf2poly.pow_mod(gf2poly.parse('x'), 3, 0)
    with pytest.raises(ZeroDivisionError):
        gf2poly.pow_mod(0, 3, 0)
    with pytest.raises(ValueError):
        gf2poly.pow_mod(gf2poly.parse('x'), -1, F4)


def test_div_rem_known_values():
    q, r = gf2poly.div_rem(F4, gf2poly.parse('x^2+x+1'))
    assert q == gf2poly.parse('x^12+x^9+x^6+x^3+1')
    assert r == 0
    a = gf2poly.parse('x^7+x^3+1')
    assert gf2poly.div_rem(a, 1) == (a, 0)


def test_div_rem_matches_reference():
    rng = random.Random(105)
    for _ in range(300):
        a = rand_poly(rng, 36)
        b = rand_poly(rng, 18)
        if not b:
            continue
        q, r = gf2poly.div_rem(a, b)
        assert (q, r) == ref.ref_divmod(a, b)
        assert gf2poly.degree(r) < gf2poly.degree(b)


def test_div_rem_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        gf2poly.div_rem(gf2poly.parse('x'), 0)


def test_all_ones_cofactor_of_two_power_identity():
    for n in (3, 4, 5):
        top = (1 << (1 << n)) | 2  # x^(2^n) + x
        q, r = gf2poly.div_rem(top, gf2poly.parse('x^2+x'))
        assert r == 0
        assert q == gf2poly.build_F(n)


def test_gcd_known_values():
    assert gf2poly.gcd(F4, gf2poly.parse('x^10+x^7+x^5+x+1')) \
        == gf2poly.parse('x^2+x+1')
    assert gf2poly.gcd(F4, gf2poly.parse('x^10+x^8+x^5+x+1')) == 1
    a = gf2poly.parse('x^6+x^4+x^2+x')
    assert gf2poly.gcd(a, a) == a
    assert gf2poly.gcd(a, 0) == a
    assert gf2poly.gcd(0, a) == a


def test_gcd_rejects_two_zeros():
    with pytest.raises(ValueError):
        gf2poly.gcd(0, 0)


def test_gcd_divides_both_and_is_greatest():
    rng = random.Random(106)
    for _ in range(200):
        common = rand_poly(rng, 8)
        a = gf2poly.mul(common, rand_poly(rng, 10))
        b = gf2poly.mul(common, rand_poly(rng, 10))
        if not a and not b:
            continue
        g = gf2poly.gcd(a, b)
        for v in (a, b):
            if v:
                assert gf2poly.div_rem(v, g)[1] == 0
        if common and a and b:
            assert gf2poly.div_rem(g, common)[1] == 0
        assert g == ref.ref_gcd(a, b)


def test_reciprocal_known_values():
    assert gf2poly.reciprocal(gf2poly.parse('x^4+x+1')) \
        == gf2poly.parse('x^4+x^3+1')
    assert gf2poly.reciprocal(F4) == F4
    m = gf2poly.parse('x^12+x^9+x^6+x^3+1')
    assert gf2poly.reciprocal(m) == m


def test_reciprocal_is_involution():
    rng = random.Random(107)
    for _ in range(100):
        a = rand_poly(rng, 30) | 1
        assert gf2poly.reciprocal(gf2poly.reciprocal(a)) == a


def test_reciprocal_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        gf2poly.reciprocal(gf2poly.parse('x^3+x'))


def test_derivative_drops_even_terms():
    assert gf2poly.derivative(gf2poly.parse('x^4+x^3+x^2+x+1')) \
        == gf2poly.parse('x^2+1')
    assert gf2poly.derivative(1) == 0


def test_build_F_known_values():
    assert F4 == (1 << 15) - 1
    assert gf2poly.build_F(2) == gf2poly.parse('x^2+x+1')
    with pytest.raises(ValueError):
        gf2poly.build_F(1)


def test_build_F_product_identity():
    x_xplus1 = gf2poly.parse('x^2+x')
    for n in range(3, 13):
        lhs = gf2poly.mul(x_xplus1, gf2poly.build_F(n))
        assert lhs == (1 << (1 << n)) | 2


def test_expand_series_known_values():
    s = gf2poly.expand_series(gf2poly.parse('x^10+x^8+x^5+x+1'), F4, 15)
    assert s == (1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0)
    assert gf2poly.expand_series(1, gf2poly.parse('x+1'), 5) \
        == (1, 1, 1, 1, 1)
    assert gf2poly.expand_series(1, gf2poly.parse('x^2+x+1'), 6) \
        == (1, 1, 0, 1, 1, 0)


def test_expand_series_times_denominator_recovers_numerator():
    rng = random.Random(108)
    for _ in range(100):
        f = rand_poly(rng, 9) | 1 | (1 << 9)
        g = rng.randrange(1 << 9)
        count = 2 * (gf2poly.degree(f) + gf2poly.degree(g) + 2)
        series = gf2poly.expand_series(g, f, count)
        acc = 0
        for i, bit in enumerate(series):
            if bit:
                acc = gf2poly.add(acc, 1 << i)
        low_mask = (1 << (count - gf2poly.degree(f))) - 1
        assert gf2poly.mul(acc, f) & low_mask == g


def test_expand_series_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gf2poly.expand_series(1, gf2poly.parse('x^2+x'), 4)
    with pytest.raises(ValueError):
        gf2poly.expand_series(gf2poly.parse('x^3'),
                              gf2poly.parse('x^2+x+1'), 4)


def test_irreducible_count_known_values():
    assert gf2poly.irreducible_count(1) == 2
    assert gf2poly.irreducible_count(4) == 3
    assert [gf2poly.irreducible_count(n) for n in range(1, 7)] \
        == [2, 1, 2, 3, 6, 9]


def test_irreducible_count_matches_exhaustive_scan():
    for n in range(1, 9):
        assert gf2poly.irreducible_count(n) \
            == len(ref.irreducibles_of_degree(n))


def test_parse_and_render_symbolic():
    a = gf2poly.parse('x^10+x^8+x^5+x+1')
    assert gf2poly.to_text(a) == 'x^10+x^8+x^5+x+1'
    assert gf2poly.parse('0') == 0
    assert gf2poly.parse('1') == 1
    assert gf2poly.parse('x') == 2
    assert gf2poly.parse(' x^3 + x ') == 0b1010


def test_parse_and_render_binary():
    a = gf2poly.parse('10100100011')
    assert a == gf2poly.parse('x^10+x^8+x^5+x+1')
    assert gf2poly.to_text(a, fmt='binary') == '10100100011'


def test_parse_and_render_hex():
    a = gf2poly.parse('x^4+x+1')
    assert gf2poly.to_text(a, fmt='hex') == '0x13'
    assert gf2poly.parse('0x13') == a


def test_parse_rejects_malformed_text():
    for bad in ('x^2+x^2', 'y+1', 'x^', '2x', '', 'x^-1',
                '0x+3', '0x1_0', '0x-5', '0x', 'x^1_0', 'x^\u0663'):
        with pytest.raises(ValueError):
            gf2poly.parse(bad)


def test_text_roundtrip_all_formats():
    rng = random.Random(110)
    for _ in range(100):
        a = rng.randrange(1, 1 << 24)
        for fmt in ('symbolic', 'binary', 'hex'):
            assert gf2poly.parse(gf2poly.to_text(a, fmt=fmt)) == a
