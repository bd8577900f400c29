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
plus its length, and seqkit.parse_sequence reads one from text.

Modules, each loaded on first access as mdbs.<name> or by its own
import (the package holds only __version__): gf2poly (polynomial
arithmetic), seqkit (sequence tooling and Berlekamp-Massey), gamma (the
digraph), greedy (preference walks and decompositions), joiner (cycle
joining and spanning-tree counts), canonical (generators and minimal
polynomials), cli (command line).
"""

import sys

__version__ = '0.1.0'


def __getattr__(name):
    """mdbs.<name> imports the submodule <name> on first access."""
    try:
        __import__(f'{__name__}.{name}')
    except ModuleNotFoundError as exc:
        if exc.name != f'{__name__}.{name}':
            raise  # the submodule exists but one of its imports does not
        raise AttributeError(
            f'module {__name__!r} has no attribute {name!r}') from None
    return sys.modules[f'{__name__}.{name}']
