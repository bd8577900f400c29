"""Exact arithmetic for polynomials over GF(2).

A polynomial a_d x^d + ... + a_1 x + a_0 is a nonnegative Python int:
bit i holds the coefficient of x^i, so the polynomial equals the
integer A = sum(a_i * 2**i).  There is no wrapper class; the functions
here take and return these ints, and `degree` reports -1 for the zero
polynomial.  Addition is XOR, and every nonzero polynomial is monic,
which keeps gcd normalization trivial.  Division jumps from one
quotient term to the next; gcd and pow_mod reduce with a
remainder-only loop that builds no quotient, which gcd runs in place.
The derivative, reciprocal and text forms act on the whole int at
once; symbolic text selects its terms from a cached table of x^i
strings.

Arguments are nonnegative ints and are not coerced; mul, div_rem, gcd
and pow_mod refuse a negative one, on which their loops would never
end, and so does to_text, whose symbolic form would read the sign as a
term.  Text is the checked boundary.  Three interchangeable text forms
are supported:

* symbolic   -- "x^10+x^8+x^5+x+1"
* binary     -- coefficient string, most significant first: "10100100011"
* hex        -- the integer encoding with an 0x prefix: "0x523"

The module also builds the all-ones polynomial of degree 2**n - 2 (the
product of every irreducible binary polynomial whose degree divides n
and exceeds 1), expands rational power series into packed ints, and
counts irreducible polynomials by degree.  It imports nothing from the
rest of the package.
"""

import itertools

_HEX_DIGITS = frozenset('0123456789abcdefABCDEF')

#: Symbolic text of x^i at index i, grown to the largest degree rendered.
_TERMS = ['1', 'x']
#: Maps the digits of format(a, 'b') to 0/1 selector bytes.
_BITS = bytes.maketrans(b'01', b'\0\1')


def degree(a):
    """Degree of a (-1 for the zero polynomial)."""
    return a.bit_length() - 1


def mul(a, b):
    """Product of polynomials a and b (shift-and-xor schoolbook)."""
    if a < b:
        a, b = b, a
    if b < 0:
        raise ValueError('polynomials are nonnegative ints')
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def div_rem(a, b):
    """Quotient and remainder of a divided by the nonzero polynomial b.

    Long division that jumps straight to each nonzero quotient term.
    """
    if b == 0:
        raise ZeroDivisionError('division by zero polynomial')
    if a < 0 or b < 0:
        raise ValueError('polynomials are nonnegative ints')
    q = 0
    while (shift := a.bit_length() - b.bit_length()) >= 0:
        a ^= b << shift
        q |= 1 << shift
    return q, a


def _rem(a, b):
    """a mod b for nonzero b, without building the quotient."""
    while (shift := a.bit_length() - b.bit_length()) >= 0:
        a ^= b << shift
    return a


def pow_mod(a, e, m):
    """a raised to the integer power e, modulo the nonzero polynomial m."""
    if min(a, e, m) < 0:
        raise ValueError('pow_mod arguments must be nonnegative')
    if m == 0:
        raise ZeroDivisionError('division by zero polynomial')
    r = 1
    a = _rem(a, m)
    while e:
        if e & 1:
            r = _rem(mul(r, a), m)
        a = _rem(mul(a, a), m)
        e >>= 1
    return r


def gcd(a, b):
    """Greatest common divisor of a and b; gcd(a, 0) = a.

    Over GF(2) every nonzero polynomial is monic, so no normalization
    step is needed.  Two zeros or a negative argument are rejected.
    """
    if a == b == 0 or min(a, b) < 0:
        raise ValueError('gcd needs nonnegative ints, not both zero')
    while b:
        while (shift := a.bit_length() - b.bit_length()) >= 0:
            a ^= b << shift
        a, b = b, a
    return a


def derivative(a):
    """Formal derivative: keep odd-exponent terms, drop one power of x."""
    return (a >> 1) & (4 ** a.bit_length() - 1) // 3  # even bits: 0b0101...01


def reciprocal(a):
    """Coefficient-reversed polynomial x^deg(a) * a(1/x).

    Requires a(0) = 1 so that the degree is preserved and the
    operation is an involution.
    """
    if not a & 1:
        raise ValueError('reciprocal requires a nonzero constant term')
    return int(format(a, 'b')[::-1], 2)


def build_F(n):
    """All-ones polynomial 1 + x + ... + x^(2^n - 2) for n >= 2.

    Equals (x^(2^n) + x) / (x * (x + 1)), i.e. the product of every
    irreducible binary polynomial whose degree divides n and is not 1.
    It is self-reciprocal and squarefree.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError('build_F requires an integer n >= 2')
    return (1 << ((1 << n) - 1)) - 1


def expand_series(g, f, count):
    """First `count` coefficients of the power series g(x)/f(x), packed.

    The constant term is the most significant of the `count` bits, so
    the int is the value of a BitSequence of period `count`.  Requires
    f(0) = 1 and deg(g) < deg(f).  Computed by long division from the
    constant term up: the next series bit is the current remainder's
    constant term, after which f is subtracted and one power of x is
    peeled off.
    """
    if not f & 1:
        raise ValueError('series expansion requires f(0) = 1')
    if g.bit_length() >= f.bit_length():
        raise ValueError('series expansion requires deg(g) < deg(f)')
    if count < 1:
        raise ValueError('count must be positive')
    value, r = 0, g
    for _ in range(count):
        bit = r & 1
        value = value << 1 | bit
        if bit:
            r ^= f
        r >>= 1
    return value


def irreducible_count(n):
    """Number of irreducible binary polynomials of degree n.

    x^(2^n) - x is the product of the irreducibles whose degree d
    divides n, so 2^n is the sum of d * N_d over those d.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError('irreducible_count requires an integer n >= 1')
    return ((1 << n) - sum(d * irreducible_count(d) for d in range(1, n)
                           if n % d == 0)) // n


def parse(text):
    """Parse symbolic, msb-first binary, or 0x-prefixed hex text.

    Hex digits must follow the 0x prefix, and ASCII decimal digits the
    x^ of a symbolic term; anything else is a ValueError.
    """
    s = ''.join(text.split())
    if not s:
        raise ValueError('empty polynomial text')
    if s[:2] in ('0x', '0X'):
        digits = s[2:]
        if not digits or not _HEX_DIGITS.issuperset(digits):
            raise ValueError(f'bad hex polynomial text {text!r}')
        return int(digits, 16)
    if set(s) <= {'0', '1'}:
        return int(s, 2)  # binary form, most significant coefficient first
    a = 0
    for term in s.split('+'):
        power = term[2:]
        if term == '0':
            t = 0
        elif term == '1':
            t = 1
        elif term == 'x':
            t = 2
        elif term[:2] == 'x^' and power.isascii() and power.isdigit():
            t = 1 << int(power)
        else:
            raise ValueError(f'bad polynomial term {term!r}')
        if a & t:
            raise ValueError(f'repeated polynomial term {term!r}')
        a ^= t
    return a


def to_text(a, fmt='symbolic'):
    """Render a in the requested text form (symbolic, binary, or hex)."""
    if a < 0:
        raise ValueError('polynomials are nonnegative ints')
    if fmt == 'symbolic':
        if a == 0:
            return '0'
        bits = format(a, 'b')
        d = len(bits) - 1
        if d >= len(_TERMS):
            _TERMS.extend(f'x^{i}' for i in range(len(_TERMS), d + 1))
        return '+'.join(itertools.compress(_TERMS[d::-1],
                                           bits.encode().translate(_BITS)))
    if fmt == 'binary':
        return format(a, 'b') if a else '0'
    if fmt == 'hex':
        return format(a, '#x')
    raise ValueError(f'unknown polynomial format {fmt!r}')
