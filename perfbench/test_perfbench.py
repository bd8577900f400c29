"""Tests of the benchmark's own code: hooks, record counting, checks."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / 'src'):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import mdbs.cli  # noqa: E402,F401  (loads every hooked module)
from mdbs import canonical, gamma, greedy, joiner, seqkit  # noqa: E402

JOIN = Op('join', ('join', '--n', '4', '--order', '6,4,14', '--limit', '2'),
          n=4, limit=2)
CYCLE = (1, 2, 11, 9, 13, 5, 10, 4, 7, 14, 3, 6, 12, 8, 15)


def _hooked_attributes():
    """Every (namespace, name) that currently holds a hooked function."""
    targets = set()
    for module, attr, *_ in tracing.HOOKS:
        if '.' not in attr:
            targets.add(id(getattr(sys.modules[f'mdbs.{module}'], attr)))
    return {(key, name): value
            for key, mod in sys.modules.items()
            if key == 'mdbs' or key.startswith('mdbs.')
            for name, value in vars(mod).items() if id(value) in targets}


def test_wrappers_restore_the_originals():
    before = _hooked_attributes()
    init, to_text = gamma.HamCycle.__init__, seqkit.BitSequence.to_text
    with tracing.Tracer() as tr:
        # Names imported into other modules are wrapped there too.
        assert canonical.berlekamp_massey is seqkit.berlekamp_massey
        assert canonical.berlekamp_massey is not before[
            ('mdbs.seqkit', 'berlekamp_massey')]
        assert gamma.HamCycle.__init__ is not init
        cycle = gamma.HamCycle(CYCLE, 4)
        assert isinstance(cycle, gamma.HamCycle)
        assert tr.missing == []
    assert _hooked_attributes() == before
    assert all(getattr(sys.modules[key], name) is value
               for (key, name), value in before.items())
    assert gamma.HamCycle.__init__ is init
    assert seqkit.BitSequence.to_text is to_text


def test_record_counting_skips_join_header_and_summary():
    stdout = b'{"best_count": 8}\n{"tree_edges": []}\n{"tree_edges": []}\n' \
             b'{"distinct_joined_cycles": 2}\n'
    assert checks.count_records(JOIN, stdout) == 2
    assert checks.header_lines(JOIN) == 1
    single = Op('minpoly', ('minpoly',), '1,2', 4)
    assert checks.count_records(single, b'{"f": "x+1"}\n') == 1
    assert checks.count_records(single, b'') == 0


def test_missing_hook_is_reported_missing_not_zero():
    hooks = tuple(h if h[1] != 'berlekamp_massey'
                  else ('seqkit', 'berlekamp_massey_gone') + h[2:]
                  for h in tracing.HOOKS)
    tr = tracing.Tracer(hooks)
    with tr:
        pass
    assert tr.missing == ['seqkit.berlekamp_massey_gone']
    metrics = tracing.layer_metrics(tr, 1)
    for name in ('seqkit.bm_s', 'seqkit.bm_calls', 'seqkit.bm_bits',
                 'seqkit.self_s'):
        assert metrics[name][0] is None
    assert metrics['gamma.hamcycle_calls'][0] == 0


def test_traced_calls_are_counted_with_self_times():
    with tracing.Tracer() as tr:
        idx = tr.enter('cli.main')
        canonical.minimal_polynomial_of_cycle(gamma.HamCycle(CYCLE, 4))
        path = greedy.prefer_complement(4, 1)
        dec = greedy.psi_decompose(4, visit_order=(6, 4, 14))
        joined = list(joiner.enumerate_joined_cycles(dec))
        tr.exit(idx)
    metrics = tracing.layer_metrics(tr, 1)
    assert metrics['seqkit.bm_calls'][0] == 1
    assert metrics['seqkit.bm_bits'][0] == 30
    assert metrics['canonical.minpoly_calls'][0] == 1
    assert metrics['greedy.walk_steps'][0] == len(path) - 1
    assert metrics['greedy.hamiltonian_ratio'][0] == float(
        greedy.is_hamiltonian(path, 4))
    assert metrics['joiner.trees'][0] == len(joined) == 8
    assert 0 < metrics['trace.coverage'][0] <= 1
    assert tr.errors == 0
    assert all(value >= -1e-9 for value, unit in metrics.values()
               if unit == 's')


def test_join_gate_checks_rows_against_the_header():
    gate = checks.Gate(checks.load_reference(
        HERE.parent / 'tests' / '_reference.py'))
    header = (b'{"n": 4, "cycles": [[1], [2], [3]], '
              b'"edges": [[1, 2, 1, 14], [2, 3, 2, 13], [1, 3, 4, 11]], '
              b'"best_count": 3}\n')
    row = b'{"tree_edges": [], "vertices": [], "sequence": "", ' \
          b'"min_poly": "1"}\n'
    summary = b'{"distinct_joined_cycles": 2}\n'
    assert gate.check(JOIN, 0, header + row * 2 + summary, b'') == []
    assert gate.check(JOIN, 0, header + row + summary, b'') == [
        '1 rows, expected 2']
    assert gate.check(JOIN, 3, header, b'') == ['exit code 3']
    assert checks.degree('x^12+x^9+x+1') == 12


def test_construct_draws_joins_per_cycle_count():
    ops = workloads.construct(mdbs, 3).ops
    assert ops == workloads.construct(mdbs, 3).ops
    seeds = [op.argv[4] for op in ops if op.kind == 'join']
    assert seeds[-1] == workloads.HEAVY_JOIN_SEED
    counts = sorted(len(greedy.psi_decompose(6, seed=s).cycles)
                    for s in seeds[:-1])
    assert counts == sorted(workloads.JOIN_CYCLES
                            * workloads.JOINS_PER_CYCLE_COUNT)
