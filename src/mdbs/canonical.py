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
Dividing that period by x + 1 gives c_H.

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
from .gamma import cycle_to_sequence, enumerate_hamiltonian
from .seqkit import berlekamp_massey, shift


class MinPolyReport(NamedTuple):
    """Everything derived from one cycle's canonical generator."""

    c_h: int
    d: int
    f: int
    f_star: int
    span: int
    bm_check: int


def canonical_generator(cycle):
    """The unique generator with constant term 1 of a Hamiltonian cycle.

    The arc labels, from the arc into the vertex n - 1 places before
    the all-ones vertex and read highest power first, are c_H * (x + 1).
    Returns a polynomial of degree 2^n - n - 2 with constant term 1.
    """
    top = cycle.vertices.index((1 << cycle.n) - 1)
    labels = shift(cycle_to_sequence(cycle), top - cycle.n)
    c_h, rem = gf2poly.div_rem(labels.value, 3)
    if rem:
        raise RuntimeError('internal error: labels have odd weight')
    return c_h


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


def minimal_polynomial_of_cycle(cycle):
    """Full minimal-polynomial report for one Hamiltonian cycle.

    d divides out the common factor of the canonical generator and F,
    f = F / d annihilates the cycle's label sequence, and f* (the
    reciprocal) annihilates the series expansion of c_H / F.  bm_check
    is the Berlekamp-Massey minimal polynomial of the label sequence,
    which must equal f.
    """
    c_h = canonical_generator(cycle)
    d, f = _lowest_terms(c_h, build_F(cycle.n))
    bm = berlekamp_massey(cycle_to_sequence(cycle))
    return MinPolyReport(
        c_h=c_h,
        d=d,
        f=f,
        f_star=gf2poly.reciprocal(f),
        span=gf2poly.degree(f),
        bm_check=bm.minimal_polynomial,
    )


def spans_of_all_cycles(n, override_guard=False):
    """Multiset of spans over every Hamiltonian cycle of order n.

    Returns a Counter mapping span -> number of cycles.  Subject to the
    same exhaustive guard as cycle enumeration.
    """
    f = build_F(n)
    counts = Counter()
    for cycle in enumerate_hamiltonian(n, override_guard=override_guard):
        span = gf2poly.degree(_lowest_terms(canonical_generator(cycle), f)[1])
        counts[span] += 1
    return counts
