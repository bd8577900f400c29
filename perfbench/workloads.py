"""Operation lists of the benchmark workloads, drawn from a seed.

A workload is one round of operations drawn from the seed; a run
repeats the round until its time is up, so that every operation is
timed several times, spread over the run.  All inputs are made
here, outside any timed region, by calling the package in-process; the
program under test then receives only argv and stdin.
"""

import random
from typing import NamedTuple, Optional, Tuple

#: Join graphs above this many edges are refused by the brute-force
#: spanning-tree lister, so such decompositions are skipped when drawing.
MAX_JOIN_EDGES = 24

#: Seeded joins per round: this many decompositions of each of these
#: cycle counts.  A join's cost grows with the spanning-tree count of its
#: pair graph, and from six cycles up that count, and with it the cost
#: (0.15 to 7 s), depends on the decomposition far more than on the cycle
#: count, so a seed that drew one would set the cost of the whole run.
#: The brute-force lister's cost on a large graph is instead measured on
#: one fixed input, HEAVY_JOIN_SEED: 6 cycles, 23 edges, 33,649 subsets
#: tested and 7,744 trees.
JOIN_CYCLES = (1, 2, 3, 4, 5)
JOINS_PER_CYCLE_COUNT = 2
HEAVY_JOIN_SEED = '208'

#: Kinds whose records are printed one by one while the work goes on.
STREAMING = frozenset({'enumerate', 'greedy_all', 'join'})


class Op(NamedTuple):
    """One CLI invocation and what its output check needs to know."""

    kind: str
    argv: Tuple[str, ...]
    stdin: Optional[str] = None
    n: Optional[int] = None
    limit: Optional[int] = None


class Workload(NamedTuple):
    #: The round: the operations a run repeats, in order, until its time
    #: is up.
    ops: Tuple[Op, ...]
    notes: dict


def _cycle_ops(mdbs, n, dec_seed):
    """minpoly and verify of one joined Hamiltonian cycle of order n."""
    cycle = mdbs.joiner.join_all(mdbs.greedy.psi_decompose(n, seed=dec_seed))
    verts = ','.join(str(v) for v in cycle.vertices)
    seq = mdbs.gamma.cycle_to_sequence(cycle).to_text()
    return (
        Op('minpoly', ('minpoly', '--cycle', '-', '--format', 'jsonl'),
           verts, n),
        Op('verify_cycle', ('verify', '--cycle', '-', '--format', 'jsonl'),
           verts, n),
        Op('verify_sequence',
           ('verify', '--sequence', '-', '--format', 'jsonl'), seq, n),
    )


def report(mdbs, seed):
    """minpoly of one order-12 cycle, and all three operations on one
    order-11 cycle.

    The cycles are joined from psi_decompose(n, seed=2 * seed + k), so
    seed 0 reports the order-12 cycle of seed 0 (span 4085).  verify at
    order 12 runs the same Berlekamp-Massey as minpoly; it is left out so
    that a round is short enough to repeat about eight times in a run.
    """
    ops = (_cycle_ops(mdbs, 12, 2 * seed)[0],
           *_cycle_ops(mdbs, 11, 2 * seed + 1))
    return Workload(ops, {})


def exhaustive(mdbs, seed):
    """Fixed order-5 operations; the seed only permutes their order."""
    del mdbs  # the inputs are fixed by the order
    ops = (
        Op('enumerate', ('enumerate', '--n', '5'), n=5),
        Op('tables', ('tables', '--n', '5', '--which', '1'), n=5),
        Op('tables', ('tables', '--n', '5', '--which', '2'), n=5),
    )
    rng = random.Random(f'exhaustive:{seed}')
    return Workload(tuple(rng.sample(ops, len(ops))), {})


def construct(mdbs, seed, limit=20):
    """Both greedy sweeps at order 11, one order-14 decomposition, and
    order-6 joins: JOINS_PER_CYCLE_COUNT seeded decompositions of each
    count in JOIN_CYCLES, then the fixed HEAVY_JOIN_SEED.

    Join seeds whose pair graph exceeds MAX_JOIN_EDGES are skipped and
    counted, since the program refuses them.
    """
    rng = random.Random(f'construct:{seed}')
    ops = [Op('greedy_all', ('greedy', '--n', '11', '--all', '--alg', alg),
              n=11)
           for alg in ('complement', 'double')]
    ops.append(Op('decompose', ('decompose', '--n', '14', '--seed',
                                str(rng.randrange(10 ** 6))), n=14))
    wanted = dict.fromkeys(JOIN_CYCLES, JOINS_PER_CYCLE_COUNT)
    seeds, skipped = [], 0
    while any(wanted.values()):
        s = str(rng.randrange(10 ** 6))
        dec = mdbs.greedy.psi_decompose(6, seed=s)
        if len(mdbs.joiner.complement_pairs(dec).edges) > MAX_JOIN_EDGES:
            skipped += 1
            continue
        if wanted.get(len(dec.cycles)):
            wanted[len(dec.cycles)] -= 1
            seeds.append(s)
    seeds.append(HEAVY_JOIN_SEED)
    ops.extend(Op('join', ('join', '--n', '6', '--seed', s,
                           '--limit', str(limit)), n=6, limit=limit)
               for s in seeds)
    return Workload(tuple(ops), {'skipped_decompositions': skipped})


WORKLOADS = {'report': report, 'exhaustive': exhaustive,
            'construct': construct}

#: Untimed exit-code probes: each must exit 3 with nothing on stdout.
PROBES = (
    ('enumerate', '--n', '7'),
    ('join', '--n', '8', '--seed', '3'),
)
