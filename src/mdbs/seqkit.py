"""Binary sequence utilities for periodic and window-complete sequences.

A BitSequence is one period of a periodic binary sequence, packed into
an int: a (value, period) NamedTuple that equals, hashes and unpacks
like the plain tuple, and whose len() is the period.

The tools here recognize de Bruijn sequences of order n
(period 2^n, every length-n window exactly once) and their modified
counterparts (period 2^n - 1, every nonzero window exactly once),
convert between the two by removing or restoring one zero inside the
longest zero run, and find minimal polynomials with the
Berlekamp-Massey algorithm.

Minimal polynomials are gf2poly ints in the characteristic convention:
a sequence s is annihilated by f(x) = x^m + f_(m-1) x^(m-1) + ... + f_0
in the sense that s_(k+m) = sum(f_i * s_(k+i)), so deg(f) is the linear
complexity and f(0) = 1 for any periodic sequence.
"""

from typing import NamedTuple

from . import gf2poly


def _check_order(n, minimum=2):
    if not isinstance(n, int) or n < minimum:
        raise ValueError(f'order n must be an integer >= {minimum}')


class BitSequence(NamedTuple('BitSequence', [('value', int),
                                              ('period', int)])):
    """One period of a binary sequence, packed into an int.

    `value` holds the first bit most significant and `period` keeps any
    leading zeros; the constructor checks that value fits in period >= 1
    bits, but `_replace` and `_make` skip the check.  len() is the period.
    """

    __slots__ = ()

    def __new__(cls, value, period):
        if period < 1 or value < 0 or value.bit_length() > period:
            raise ValueError(f'value not in 0 .. 2^{period} - 1 or period < 1')
        return super().__new__(cls, value, period)

    def __len__(self):
        return self.period

    def __getnewargs__(self):
        # NamedTuple's tuple(self) would size a buffer by len(), the period.
        return self.value, self.period

    def to_text(self):
        """Render as '0101...', first bit first."""
        return format(self.value, f'0{self.period}b')

    def __repr__(self):
        return f'BitSequence(0b{self.to_text()}, {self.period})'


def parse_sequence(text):
    """Parse '0101...', '(0,1,0,1,...)' or '0,1,0,1,...' into a BitSequence.

    Whitespace is ignored; every position must be an ASCII 0 or 1.
    """
    s = ''.join(text.split())
    if s.startswith('(') and s.endswith(')'):
        s = s[1:-1]
    parts = s.split(',')
    s = ''.join(parts)
    one_per_part = len(parts) == 1 or set(map(len, parts)) == {1}
    if not (s and one_per_part) or s.strip('01'):
        raise ValueError(f'bad sequence text {text!r}')
    return BitSequence(int(s, 2), len(s))


def shift(s, k):
    """Left-rotate one period of s by k positions."""
    p = s.period
    k %= p
    return BitSequence((s.value << k | s.value >> (p - k)) & ((1 << p) - 1), p)


def berlekamp_massey(s):
    """Minimal polynomial of the periodic s; its degree is the complexity.

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
    return int(format(c, f'0{length + 1}b')[::-1], 2)


def _is_window_complete(s, n, zero_free):
    """is_de_bruijn, or is_modified_de_bruijn if zero_free: one scan."""
    _check_order(n)
    period = (1 << n) - zero_free
    if s.period != period:
        return False
    text = s.to_text() * 2
    windows = {text[i:i + n] for i in range(period)}
    return len(windows) == period and not (zero_free and '0' * n in windows)


def is_de_bruijn(s, n):
    """True when s has period 2^n and every n-window appears exactly once."""
    return _is_window_complete(s, n, zero_free=False)


def is_modified_de_bruijn(s, n):
    """True when s has period 2^n - 1 and every nonzero n-window appears once."""
    return _is_window_complete(s, n, zero_free=True)


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
    return BitSequence(_from_zero_run(s, n), s.period - 1)


def debruijnize(s, n):
    """Restore the dropped zero of a modified de Bruijn sequence.

    Inverse of modify up to rotation: the longest zero run (length
    n - 1) is rotated to the front and one zero is prepended.
    """
    if not is_modified_de_bruijn(s, n):
        raise ValueError(
            f'input is not a modified de Bruijn sequence of order {n}')
    return BitSequence(_from_zero_run(s, n - 1), s.period + 1)


def possible_spans(n):
    """Achievable degree sums of products of irreducible factors.

    Every count a_d of degree-d irreducible polynomials with d | n,
    d != 1, may range from 0 to the number available, contributing
    a_d * d to the total; the set of all reachable totals is returned
    (0 comes from the empty product, 2^n - 2 from taking everything).
    """
    _check_order(n)
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
    _check_order(n, minimum=3)
    if not is_de_bruijn(s, n):
        raise ValueError(f'input is not a de Bruijn sequence of order {n}')
    return has_span_form(berlekamp_massey(s), n)


def has_span_form(f, n):
    """Whether the polynomial f is (x + 1)^z with 2^(n-1) + 1 <= z <= 2^n."""
    if not (1 << (n - 1)) + 1 <= gf2poly.degree(f) <= (1 << n):
        return False
    # The divisors of x^(2^n) + 1 = (x + 1)^(2^n) are the powers of x + 1.
    _, rem = gf2poly.div_rem(1 << (1 << n) | 1, f)
    return not rem
