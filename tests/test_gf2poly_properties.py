"""Property tests of the whole-int GF(2) kernels against naive oracles.

Degrees reach 1024, so operands span many machine words; the word
boundaries 63/64/65 and both parities of the bit length (which the
derivative's even-position mask depends on) are always among the
drawn degrees.
"""

from hypothesis import given, settings, strategies as st

import _reference as ref
from mdbs import gf2poly

EDGE_DEGREES = (0, 1, 2, 62, 63, 64, 65, 127, 128, 1023, 1024)

kernels = settings(deadline=None, derandomize=True, max_examples=60)


@st.composite
def polys(draw, max_degree=1024, constant_term=False):
    """A polynomial of exactly the drawn degree."""
    d = draw(st.one_of(st.sampled_from(EDGE_DEGREES),
                       st.integers(0, max_degree)))
    a = (1 << d) | draw(st.integers(0, (1 << d) - 1))
    return a | 1 if constant_term else a


@kernels
@given(polys() | st.just(0), polys())
def test_div_rem_matches_long_division(a, b):
    q, r = gf2poly.div_rem(a, b)
    assert (q, r) == ref.ref_divmod(a, b)


@kernels
@given(polys() | st.just(0), polys() | st.just(0))
def test_mul_matches_schoolbook(a, b):
    assert gf2poly.mul(a, b) == ref.ref_mul(a, b)


@settings(kernels, max_examples=15)
@given(polys(), polys())
def test_gcd_matches_euclid(a, b):
    assert gf2poly.gcd(a, b) == ref.ref_gcd(a, b)


@kernels
@given(polys() | st.just(0))
def test_derivative_matches_termwise(a):
    assert gf2poly.derivative(a) == ref.ref_derivative(a)


@kernels
@given(polys(constant_term=True))
def test_reciprocal_matches_reversed_coefficients(a):
    r = gf2poly.reciprocal(a)
    assert r == ref.ref_reciprocal(a)
    assert gf2poly.reciprocal(r) == a


@kernels
@given(polys() | st.just(0), st.sampled_from(('symbolic', 'binary', 'hex')))
def test_text_round_trips(a, fmt):
    text = gf2poly.to_text(a, fmt)
    assert gf2poly.parse(text) == a
    if fmt == 'symbolic' and a:
        powers = [0 if t == '1' else 1 if t == 'x' else int(t[2:])
                  for t in text.split('+')]
        bits = ref.to_list(a)
        assert powers == [i for i in reversed(range(len(bits))) if bits[i]]
