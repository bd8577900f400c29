"""Exact arithmetic for polynomials over GF(2).

A polynomial a_d x^d + ... + a_1 x + a_0 is stored bit-packed in a
nonnegative Python integer: bit i holds the coefficient of x^i, so the
polynomial equals the integer A = sum(a_i * 2**i).  Addition is XOR,
and every nonzero polynomial is monic, which keeps gcd normalization
trivial.  Division jumps from one quotient term to the next; the
derivative, reciprocal and text forms act on the whole int at once.

Three interchangeable text forms are supported:

* symbolic   -- "x^10+x^8+x^5+x+1"
* binary     -- coefficient string, most significant first: "10100100011"
* hex        -- the integer encoding with an 0x prefix: "0x523"

The module also builds the all-ones polynomial of degree 2**n - 2 (the
product of every irreducible binary polynomial whose degree divides n
and exceeds 1), expands rational power series, and counts irreducible
polynomials by degree.
"""


def _val(a):
    """Coerce a Gf2Poly or a nonnegative int to the packed int form."""
    if isinstance(a, Gf2Poly):
        return a.value
    if isinstance(a, int):
        if a < 0:
            raise ValueError('negative integer is not a GF(2) polynomial')
        return a
    raise TypeError(f'expected Gf2Poly or int, got {type(a).__name__}')


def _degree(a):
    return a.bit_length() - 1


def _mul(a, b):
    if a < b:
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _divmod(a, b):
    """Long division that jumps straight to each nonzero quotient term."""
    if b == 0:
        raise ZeroDivisionError('division by zero polynomial')
    q = 0
    while (shift := _degree(a) - _degree(b)) >= 0:
        a ^= b << shift
        q |= 1 << shift
    return q, a


def _mod(a, b):
    return _divmod(a, b)[1]


def _gcd(a, b):
    while b:
        a, b = b, _mod(a, b)
    return a


def _powmod(a, e, m):
    if e < 0:
        raise ValueError('negative exponent')
    r = 1
    a = _mod(a, m)
    while e:
        if e & 1:
            r = _mod(_mul(r, a), m)
        a = _mod(_mul(a, a), m)
        e >>= 1
    return r


def _derivative(a):
    """Formal derivative: keep odd-exponent terms, drop one power of x."""
    return (a >> 1) & (4 ** a.bit_length() - 1) // 3  # even bits: 0b0101...01


class Gf2Poly:
    """Immutable polynomial over GF(2), packed into an int.

    The degree of the zero polynomial is reported as -1, the usual
    "minus infinity" marker collapsed onto an int.
    """

    __slots__ = ('value',)

    def __init__(self, value=0):
        if isinstance(value, str):
            value = _parse(value)
        else:
            value = _val(value)
        object.__setattr__(self, 'value', value)

    def __setattr__(self, name, v):
        raise AttributeError('Gf2Poly is immutable')

    @property
    def degree(self):
        """Degree of the polynomial (-1 for the zero polynomial)."""
        return _degree(self.value)

    def coefficient(self, i):
        """Coefficient of x^i as 0 or 1."""
        return (self.value >> i) & 1 if i >= 0 else 0

    def __index__(self):
        return self.value

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, Gf2Poly):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __mod__(self, other):
        return Gf2Poly(_mod(self.value, _val(other)))

    def __repr__(self):
        return _to_symbolic(self.value)


def add(a, b):
    """Sum of polynomials a and b (coefficientwise XOR)."""
    return Gf2Poly(_val(a) ^ _val(b))


def mul(a, b):
    """Product of polynomials a and b (shift-and-xor schoolbook)."""
    return Gf2Poly(_mul(_val(a), _val(b)))


def pow_mod(a, e, m):
    """a raised to the integer power e, modulo the nonzero polynomial m."""
    return Gf2Poly(_powmod(_val(a), e, _val(m)))


def div_rem(a, b):
    """Quotient and remainder of a divided by the nonzero polynomial b."""
    q, r = _divmod(_val(a), _val(b))
    return Gf2Poly(q), Gf2Poly(r)


def gcd(a, b):
    """Greatest common divisor of a and b; gcd(a, 0) = a.

    Over GF(2) every nonzero polynomial is monic, so no normalization
    step is needed.  Both arguments zero is rejected.
    """
    a, b = _val(a), _val(b)
    if a == 0 and b == 0:
        raise ValueError('gcd(0, 0) is undefined')
    return Gf2Poly(_gcd(a, b))


def derivative(a):
    """Formal derivative of a."""
    return Gf2Poly(_derivative(_val(a)))


def reciprocal(a):
    """Coefficient-reversed polynomial x^deg(a) * a(1/x).

    Requires a(0) = 1 so that the degree is preserved and the
    operation is an involution.
    """
    a = _val(a)
    if not a & 1:
        raise ValueError('reciprocal requires a nonzero constant term')
    return Gf2Poly(int(format(a, 'b')[::-1], 2))


def build_F(n):
    """All-ones polynomial 1 + x + ... + x^(2^n - 2) for n >= 2.

    Equals (x^(2^n) + x) / (x * (x + 1)), i.e. the product of every
    irreducible binary polynomial whose degree divides n and is not 1.
    It is self-reciprocal and squarefree.
    """
    if n < 2:
        raise ValueError('build_F requires n >= 2')
    return Gf2Poly((1 << ((1 << n) - 1)) - 1)


def expand_series(g, f, count):
    """First `count` coefficients of the power series g(x)/f(x).

    Requires f(0) = 1 and deg(g) < deg(f).  Computed by long division
    from the constant term up: the next series bit is the current
    remainder's constant term, after which f is subtracted and one
    power of x is peeled off.
    """
    from .seqkit import BitSequence

    g, f = _val(g), _val(f)
    if not f & 1:
        raise ValueError('series expansion requires f(0) = 1')
    if _degree(g) >= _degree(f):
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
    return BitSequence.packed(value, count)


def _mobius(n):
    """Moebius function of a positive integer."""
    mu = 1
    c = 2
    while c * c <= n:
        if n % c == 0:
            n //= c
            if n % c == 0:
                return 0
            mu = -mu
        c += 1 if c == 2 else 2
    if n > 1:
        mu = -mu
    return mu


def irreducible_count(n):
    """Number of irreducible binary polynomials of degree n.

    The classical count (1/n) * sum over j | n of mu(j) * 2^(n/j).
    """
    if n < 1:
        raise ValueError('irreducible_count requires n >= 1')
    total = sum(_mobius(j) * (1 << (n // j)) for j in range(1, n + 1)
                if n % j == 0)
    return total // n


def _parse(text):
    """Parse any of the three text forms into the packed int."""
    s = ''.join(text.split())
    if not s:
        raise ValueError('empty polynomial text')
    if s[:2] in ('0x', '0X'):
        return int(s[2:], 16)
    if set(s) <= {'0', '1'}:
        return int(s, 2)  # binary form, most significant coefficient first
    a = 0
    for term in s.split('+'):
        if term == '0':
            t = 0
        elif term == '1':
            t = 1
        elif term == 'x':
            t = 2
        elif term.startswith('x^'):
            t = 1 << int(term[2:])
        else:
            raise ValueError(f'bad polynomial term {term!r}')
        if a & t:
            raise ValueError(f'repeated polynomial term {term!r}')
        a ^= t
    return a


def parse(text):
    """Parse symbolic, msb-first binary, or 0x-prefixed hex text."""
    return Gf2Poly(_parse(text))


def _to_symbolic(a):
    if a == 0:
        return '0'
    d = _degree(a)
    powers = (d - k for k, bit in enumerate(format(a, 'b')) if bit == '1')
    return '+'.join('1' if i == 0 else 'x' if i == 1 else f'x^{i}'
                    for i in powers)


def to_text(a, fmt='symbolic'):
    """Render a in the requested text form (symbolic, binary, or hex)."""
    a = _val(a)
    if fmt == 'symbolic':
        return _to_symbolic(a)
    if fmt == 'binary':
        return format(a, 'b') if a else '0'
    if fmt == 'hex':
        return format(a, '#x')
    raise ValueError(f'unknown polynomial format {fmt!r}')
