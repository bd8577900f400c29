"""Toolkit for binary sequences with every nonzero window exactly once.

Period-(2^n - 1) binary sequences in which each nonzero n-bit window
occurs exactly once correspond to Hamiltonian cycles of an arc-labeled
digraph on the nonzero n-bit words.  The package builds that graph,
grows cycles greedily, joins partial cycles along spanning trees of a
complementary-pair graph, recovers each cycle's canonical generator
polynomial, and derives exact minimal polynomials and linear
complexities, all over GF(2).  A polynomial is a plain nonnegative
int with bit i the coefficient of x^i, and the functions of gf2poly
are the one polynomial API; a sequence period is a BitSequence, an int
plus its length.

Modules: gf2poly (polynomial arithmetic), seqkit (sequence tooling and
Berlekamp-Massey), gamma (the digraph), greedy (preference walks and
decompositions), joiner (cycle joining and spanning-tree counts),
canonical (generators and minimal polynomials), cli (command line).
"""

from .seqkit import BitSequence, BmResult
from .gamma import GammaGraph, GuardRefusal, HamCycle
from .greedy import PsiDecomposition
from .joiner import JoinGraph, JoinMatrix
from .canonical import MinPolyReport

__version__ = '0.1.0'

__all__ = [
    'BitSequence',
    'BmResult',
    'GammaGraph',
    'GuardRefusal',
    'HamCycle',
    'JoinGraph',
    'JoinMatrix',
    'MinPolyReport',
    'PsiDecomposition',
    '__version__',
]
