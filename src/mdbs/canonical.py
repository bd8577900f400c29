"""Canonical generators and minimal polynomials of Hamiltonian cycles.

Every Hamiltonian cycle H of order n is traced by exactly one
generator polynomial c_H with constant term 1 and degree 2^n - n - 2:
the walk (x^i * c_H mod F) mod x^n visits the cycle's vertices in
order, where F is the all-ones polynomial of degree 2^n - 2.  The
generator is read off the arc labels in closed form.  Since
F = (x^N + 1) / (x + 1) with N = 2^n - 1, the series of c_H / F
repeats c_H * (x + 1), so that product is one period of the labels,
read highest power first.  Its degree N - n leaves the top n - 1
coefficients zero, which picks the rotation that starts at the one
run of n - 1 zero labels, n - 1 places before the all-ones vertex.
Dividing that period by x + 1 gives c_H, in closed form: each
quotient coefficient is the XOR of the label bits above it.

The minimal polynomial of the cycle's label sequence follows from the
reduced fraction c_H / F: with d = gcd(c_H, F) and f = F / d, the
label sequence read around the cycle is annihilated by f, and the
series expansion of c_H / F is annihilated by the reciprocal f*.  The
linear complexity ("span") is deg(f), and an independent
Berlekamp-Massey pass is carried in every report as a cross-check.
"""

from collections import Counter
from typing import NamedTuple

from . import gf2poly
from .gf2poly import build_F
from .gamma import _hamiltonian_dfs, cycle_to_sequence
from .seqkit import _check_order, berlekamp_massey, shift


class MinPolyReport(NamedTuple):
    """Everything derived from one cycle's canonical generator."""

    c_h: int
    d: int
    f: int
    f_star: int
    span: int
    bm_check: int


def _div_by_x_plus_1(v):
    """v / (x + 1) in closed form, for v of even weight.

    q (x + 1) = v makes each coefficient of q the XOR of the
    coefficients of v above it, a prefix XOR that log2(deg v) doubling
    steps compute.  An odd weight leaves remainder 1 and is an error.
    """
    if v.bit_count() & 1:
        raise RuntimeError('internal error: labels have odd weight')
    q = v >> 1
    k = 1
    while k < v.bit_length():
        q ^= q >> k
        k <<= 1
    return q


def _c_h(labels, n):
    """c_H from the packed labels of an order-n cycle, read from its
    all-ones vertex as _hamiltonian_dfs yields them.

    Rotated n places right, they start at the arc into the vertex
    n - 1 places before the all-ones vertex.  The rotation is written
    out, not taken through seqkit.shift, so that a census over every
    cycle builds no BitSequence per cycle.
    """
    size = (1 << n) - 1
    return _div_by_x_plus_1(labels >> n | (labels & size) << (size - n))


def _generator(cycle, labels):
    """c_H from the cycle's label sequence `labels`."""
    top = cycle.vertices.index((1 << cycle.n) - 1)
    return _c_h(shift(labels, top).value, cycle.n)


def _all_generators(n):
    """c_H of every Hamiltonian cycle of order n >= 3, in the order of
    enumerate_hamiltonian, from the search's labels: no HamCycle is
    built.  n is checked at the call.
    """
    _check_order(n, minimum=3)
    return (_c_h(labels, n) for _, labels in _hamiltonian_dfs(n))


def canonical_generator(cycle):
    """The unique generator with constant term 1 of a Hamiltonian cycle.

    The arc labels, from the arc into the vertex n - 1 places before
    the all-ones vertex and read highest power first, are c_H * (x + 1).
    Returns a polynomial of degree 2^n - n - 2 with constant term 1.
    """
    return _generator(cycle, cycle_to_sequence(cycle))


def _lowest_terms(c_h, f):
    """d = gcd(c_H, F) and F / d, the fraction c_H / F in lowest terms.

    F / d is the minimal polynomial of the cycle's labels, and its
    degree is the span.  When d = 1 the fraction is already reduced,
    and skipping the division keeps the span census over all cycles,
    most of which have d = 1, as cheap as the gcd alone.
    """
    d = gf2poly.gcd(c_h, f)
    if d == 1:
        return d, f
    quotient, rem = gf2poly.div_rem(f, d)
    if rem != 0:
        raise RuntimeError('internal error: gcd does not divide F')
    return d, quotient


def minimal_polynomial(cycle):
    """f = F / gcd(c_H, F) of a Hamiltonian cycle, from c_H alone.

    This is the report's f without the Berlekamp-Massey cross-check.
    """
    return _lowest_terms(canonical_generator(cycle), build_F(cycle.n))[1]


def _report(cycle, labels):
    """minimal_polynomial_of_cycle, given the cycle's label sequence."""
    c_h = _generator(cycle, labels)
    d, f = _lowest_terms(c_h, build_F(cycle.n))
    return MinPolyReport(
        c_h=c_h,
        d=d,
        f=f,
        f_star=gf2poly.reciprocal(f),
        span=gf2poly.degree(f),
        bm_check=berlekamp_massey(labels),
    )


def minimal_polynomial_of_cycle(cycle):
    """Full minimal-polynomial report for one Hamiltonian cycle.

    d divides out the common factor of the canonical generator and F,
    f = F / d annihilates the cycle's label sequence, and f* (the
    reciprocal) annihilates the series expansion of c_H / F.  bm_check
    is the Berlekamp-Massey minimal polynomial of the label sequence,
    which must equal f.
    """
    return _report(cycle, cycle_to_sequence(cycle))


def spans_of_all_cycles(n):
    """Multiset of spans over every Hamiltonian cycle of order n.

    Returns a Counter mapping span -> number of cycles.
    """
    generators = _all_generators(n)
    f = build_F(n)
    return Counter(gf2poly.degree(_lowest_terms(c_h, f)[1])
                   for c_h in generators)
