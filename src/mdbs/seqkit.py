"""Binary sequence utilities for periodic and window-complete sequences.

A BitSequence is one period of a periodic binary sequence, packed into
an int.  The tools here recognize de Bruijn sequences of order n
(period 2^n, every length-n window exactly once) and their modified
counterparts (period 2^n - 1, every nonzero window exactly once),
convert between the two by removing or restoring one zero inside the
longest zero run, and measure linear complexity with the
Berlekamp-Massey algorithm.

Minimal polynomials follow the characteristic convention: a sequence s
is annihilated by f(x) = x^m + f_(m-1) x^(m-1) + ... + f_0 in the sense
that s_(k+m) = sum(f_i * s_(k+i)), so deg(f) equals the linear
complexity and f(0) = 1 for any periodic sequence.
"""

from typing import NamedTuple

from . import gf2poly
from .gf2poly import Gf2Poly


class BitSequence:
    """One period of a binary sequence, packed into an int.

    `value` holds the first bit most significant and `period` keeps any
    leading zeros.  `==` with a 0/1 tuple and the hash follow the bits."""

    __slots__ = ('value', 'period')

    def __init__(self, bits):
        if isinstance(bits, str):
            bits = _parse_bits(bits)
        bits = tuple(bits)
        if not bits:
            raise ValueError('a sequence needs at least one bit')
        if any(b not in (0, 1) for b in bits):
            raise ValueError('sequence bits must be 0 or 1')
        value = int(''.join('01'[b] for b in bits), 2)
        object.__setattr__(self, 'value', value)
        object.__setattr__(self, 'period', len(bits))

    @classmethod
    def packed(cls, value, period):
        """Unchecked: `value` must lie in 0 .. 2^period - 1, period >= 1."""
        s = object.__new__(cls)
        object.__setattr__(s, 'value', value)
        object.__setattr__(s, 'period', period)
        return s

    def __setattr__(self, name, v):
        raise AttributeError('BitSequence is immutable')

    @property
    def bits(self):
        """The period as a tuple of 0/1 ints."""
        return tuple(map(int, format(self.value, f'0{self.period}b')))

    def __len__(self):
        return self.period

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value, self.period) == (other.value, other.period)
        if isinstance(other, tuple):
            return self.bits == other
        return NotImplemented

    def __hash__(self):
        return hash(self.bits)

    def to_text(self, fmt='compact'):
        """Render as '0101...' (compact) or '(0,1,0,1,...)' (tuple)."""
        text = format(self.value, f'0{self.period}b')
        if fmt == 'compact':
            return text
        if fmt == 'tuple':
            return '(' + ','.join(text) + ')'
        raise ValueError(f'unknown sequence format {fmt!r}')

    def __repr__(self):
        return f"BitSequence('{self.to_text()}')"


class BmResult(NamedTuple):
    """Outcome of Berlekamp-Massey: complexity and minimal polynomial."""

    linear_complexity: int
    minimal_polynomial: Gf2Poly


def _parse_bits(text):
    s = ''.join(text.split())
    if s.startswith('(') and s.endswith(')'):
        s = s[1:-1]
    if ',' in s:
        parts = [p for p in s.split(',') if p]
    else:
        parts = list(s)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f'bad sequence text {text!r}') from None


def parse_sequence(text):
    """Parse '0101...' or '(0,1,0,1,...)' into a BitSequence."""
    return BitSequence(_parse_bits(text))


def shift(s, k):
    """Left-rotate one period of s by k positions."""
    p = s.period
    k %= p
    return BitSequence.packed(
        (s.value << k | s.value >> (p - k)) & ((1 << p) - 1), p)


def canonical_rotation(s):
    """Lexicographically least rotation of s, for rotation-blind tests."""
    best = min(shift(s, k).value for k in range(s.period))
    return BitSequence.packed(best, s.period)


def same_cycle(a, b):
    """True when a and b are rotations of each other."""
    return a.period == b.period and a.to_text() in b.to_text() * 2


def berlekamp_massey(s):
    """Linear complexity and minimal polynomial of the periodic s.

    Two periods are processed, which pins down the shortest LFSR for
    any sequence of linear complexity at most the period.  The
    connection polynomial is built with the classic discrepancy update
    and then coefficient-reversed into the monic characteristic form.
    Bit j of r >> (top - i) is bit i - j of the doubled period, so each
    discrepancy is the parity of that word ANDed with c.
    """
    top = 2 * s.period - 1
    r = s.value << s.period | s.value
    c, b = 1, 1  # connection polynomials, bit j = coefficient of D^j
    length, m = 0, 1
    for i in range(top + 1):
        d = (c & (r >> (top - i))).bit_count() & 1
        if d == 0:
            m += 1
        elif 2 * length <= i:
            c, b = c ^ (b << m), c
            length = i + 1 - length
            m = 1
        else:
            c ^= b << m
            m += 1
    poly = int(format(c, f'0{length + 1}b')[::-1], 2)
    return BmResult(length, Gf2Poly(poly))


def _windows(s, n):
    """All cyclic length-n windows as integers, first bit most significant."""
    text = s.to_text() * 2
    return [int(text[i:i + n], 2) for i in range(s.period)]


def is_de_bruijn(s, n):
    """True when s has period 2^n and every n-window appears exactly once."""
    if n < 2:
        raise ValueError('window order must be at least 2')
    if s.period != 1 << n:
        return False
    return len(set(_windows(s, n))) == s.period


def is_modified_de_bruijn(s, n):
    """True when s has period 2^n - 1 and every nonzero n-window appears once."""
    if n < 2:
        raise ValueError('window order must be at least 2')
    if s.period != (1 << n) - 1:
        return False
    windows = _windows(s, n)
    return 0 not in windows and len(set(windows)) == s.period


def _from_zero_run(s, run):
    """Value of s rotated to start at its longest run, of `run` zeros.

    The rotation begins with a zero, so callers drop or add a leading
    zero by changing only the period.
    """
    text = s.to_text()
    q = (text[-1] + text + text[:run]).find('1' + '0' * run)
    if q < 0:
        raise ValueError('required zero run not found')
    return shift(s, q).value


def modify(s, n):
    """Drop one zero from the longest zero run of a de Bruijn sequence.

    The period is first rotated so the longest zero run (length exactly
    n) starts the period; the result keeps that rotation and is the
    modified sequence of period 2^n - 1.
    """
    if not is_de_bruijn(s, n):
        raise ValueError(f'input is not a de Bruijn sequence of order {n}')
    return BitSequence.packed(_from_zero_run(s, n), s.period - 1)


def debruijnize(s, n):
    """Restore the dropped zero of a modified de Bruijn sequence.

    Inverse of modify up to rotation: the longest zero run (length
    n - 1) is rotated to the front and one zero is prepended.
    """
    if not is_modified_de_bruijn(s, n):
        raise ValueError(
            f'input is not a modified de Bruijn sequence of order {n}')
    return BitSequence.packed(_from_zero_run(s, n - 1), s.period + 1)


def possible_spans(n):
    """Achievable degree sums of products of irreducible factors.

    Every count a_d of degree-d irreducible polynomials with d | n,
    d != 1, may range from 0 to the number available, contributing
    a_d * d to the total; the set of all reachable totals is returned
    (0 comes from the empty product, 2^n - 2 from taking everything).
    """
    if n < 2:
        raise ValueError('possible_spans requires n >= 2')
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    spans = {0}
    for d in divisors:
        count = gf2poly.irreducible_count(d)
        spans = {s + a * d for s in spans for a in range(count + 1)}
    return spans


def check_de_bruijn_span_form(s, n):
    """Check the minimal-polynomial shape of a de Bruijn sequence.

    For a de Bruijn sequence of order n >= 3 the minimal polynomial
    must be (x + 1)^z with 2^(n-1) + 1 <= z <= 2^n.  Returns whether
    that holds for s; s failing to be de Bruijn is a ValueError.
    """
    if n < 3:
        raise ValueError('span-form check requires n >= 3')
    if not is_de_bruijn(s, n):
        raise ValueError(f'input is not a de Bruijn sequence of order {n}')
    return has_span_form(berlekamp_massey(s), n)


def has_span_form(bm, n):
    """Whether a BmResult is (x + 1)^z with 2^(n-1) + 1 <= z <= 2^n."""
    z = bm.linear_complexity
    if not (1 << (n - 1)) + 1 <= z <= (1 << n):
        return False
    # The divisors of x^(2^n) + 1 = (x + 1)^(2^n) are the powers of x + 1.
    _, rem = gf2poly.div_rem(1 << (1 << n) | 1, bm.minimal_polynomial)
    return not rem
