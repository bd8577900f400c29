"""Command line front end.

Subcommands cover the whole pipeline: exporting the arc-labeled graph,
running the greedy walks, decomposing the vertex set into greedy
cycles, joining decompositions along spanning trees, exhaustively
enumerating Hamiltonian cycles with their minimal-polynomial reports,
verifying sequences and cycles, and reproducing the bundled reference
tables.

Exit codes: 0 success, 2 usage or malformed input, 3 exhaustive-guard
refusal, 4 verification failure.  Given the same configuration
(including seeds) every command writes byte-identical output.
"""

import argparse
import csv
import itertools
import json
import sys
from typing import NamedTuple, Optional, Tuple

from . import canonical, gamma, gf2poly, greedy, joiner, seqkit

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4


class RunConfig(NamedTuple):
    """Fully parsed invocation; identical configs give identical output.

    Field names are the argparse destinations, so parse_args builds a
    config straight from the parsed namespace.
    """

    command: str
    n: Optional[int] = None
    v_init: Optional[int] = None
    seed: Optional[str] = None
    limit: Optional[int] = None
    format: Optional[str] = None
    override_guard: bool = False
    alg: str = 'complement'
    order: Optional[Tuple[int, ...]] = None
    which: Optional[int] = None
    cycle: Optional[str] = None
    sequence: Optional[str] = None
    all_inits: bool = False
    highlight: Optional[str] = None


def _csv_ints(text):
    try:
        return tuple(int(p) for p in text.replace(' ', '').split(',') if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f'not a comma-separated int list: '
                                         f'{text!r}') from None


def parse_args(argv=None):
    """Parse argv into a RunConfig (argparse exits with code 2 on errors)."""
    parser = argparse.ArgumentParser(
        prog='mdbs',
        description='Binary sequences with every nonzero window exactly '
                    'once: graph, greedy, joining, and minimal-polynomial '
                    'tools.')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('graph', help='export the arc-labeled digraph')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--highlight', type=_csv_ints, default=None,
                   help='comma-separated cycle whose arcs are bolded')

    p = sub.add_parser('greedy', help='run a greedy preference walk')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--alg', choices=['complement', 'double'],
                   default='complement')
    p.add_argument('--v-init', type=int, default=None)
    p.add_argument('--all', action='store_true', dest='all_inits',
                   help='walk from every initial vertex')
    p.add_argument('--format', choices=['text', 'jsonl'], default=None)

    p = sub.add_parser('decompose',
                       help='greedy cycle decomposition of the vertex set')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--seed', default=None,
                   help='shuffle seed for the visit order')
    p.add_argument('--order', type=_csv_ints, default=None,
                   help='visit order prefix, comma-separated')
    p.add_argument('--format', choices=['jsonl', 'text'], default=None)

    p = sub.add_parser('join',
                       help='join a decomposition along every spanning tree')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--seed', default=None)
    p.add_argument('--order', type=_csv_ints, default=None)
    p.add_argument('--limit', type=int, default=None)
    p.add_argument('--format', choices=['jsonl', 'text'], default=None)

    p = sub.add_parser('enumerate',
                       help='all Hamiltonian cycles with full reports')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--limit', type=int, default=None)
    p.add_argument('--override-guard', action='store_true',
                   dest='override_guard')

    p = sub.add_parser('minpoly',
                       help='minimal-polynomial report of a cycle or sequence')
    p.add_argument('--n', type=int, default=None)
    p.add_argument('--cycle', default=None,
                   help="comma-separated vertices ('-' reads stdin)")
    p.add_argument('--sequence', default=None,
                   help="bit string or (1,0,...) tuple ('-' reads stdin)")
    p.add_argument('--format', choices=['text', 'jsonl'], default=None)

    p = sub.add_parser('verify', help='check a sequence or cycle')
    p.add_argument('--n', type=int, default=None)
    p.add_argument('--cycle', default=None)
    p.add_argument('--sequence', default=None)
    p.add_argument('--format', choices=['text', 'jsonl'], default=None)

    p = sub.add_parser('tables', help='reproduce the reference tables')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--which', type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument('--override-guard', action='store_true',
                   dest='override_guard')

    return RunConfig(**vars(parser.parse_args(argv)))


def _usage(message):
    print(f'error: {message}', file=sys.stderr)
    return EXIT_USAGE


def _read_arg(value):
    return sys.stdin.read().strip() if value == '-' else value


def _report_record(cycle, report):
    return {
        'n': cycle.n,
        'vertices': list(cycle.vertices),
        'sequence': gamma.cycle_to_sequence(cycle).to_text(),
        'c_h': gf2poly.to_text(report.c_h),
        'd': gf2poly.to_text(report.d),
        'f': gf2poly.to_text(report.f),
        'f_star': gf2poly.to_text(report.f_star),
        'span': report.span,
        'bm_check': gf2poly.to_text(report.bm_check),
    }


def _decomposition(cfg):
    return greedy.psi_decompose(cfg.n, visit_order=cfg.order, seed=cfg.seed)


def cmd_graph(cfg):
    graph = gamma.build(cfg.n)
    sys.stdout.write(gamma.dot_export(graph, cfg.highlight))
    return EXIT_OK


def cmd_greedy(cfg):
    walker = (greedy.prefer_complement if cfg.alg == 'complement'
              else greedy.modified_prefer_double)
    if cfg.all_inits:
        fmt = cfg.format or 'jsonl'
        for v in range(1, (1 << cfg.n)):
            path = walker(cfg.n, v)
            ham = greedy.is_hamiltonian(path, cfg.n)
            if fmt == 'jsonl':
                print(json.dumps({'n': cfg.n, 'alg': cfg.alg, 'v_init': v,
                                  'vertices': path, 'hamiltonian': ham}))
            else:
                verts = ','.join(str(x) for x in path)
                print(f'{v}\t{ham}\t{verts}')
        return EXIT_OK
    if cfg.v_init is None:
        return _usage('greedy needs --v-init or --all')
    path = walker(cfg.n, cfg.v_init)
    ham = greedy.is_hamiltonian(path, cfg.n)
    fmt = cfg.format or 'text'
    if fmt == 'jsonl':
        seq = None
        if ham:
            seq = gamma.cycle_to_sequence(
                gamma.HamCycle(path, cfg.n)).to_text()
        print(json.dumps({'n': cfg.n, 'alg': cfg.alg, 'v_init': cfg.v_init,
                          'vertices': path, 'hamiltonian': ham,
                          'sequence': seq}))
    else:
        print(','.join(str(x) for x in path))
        if not ham:
            print('not hamiltonian', file=sys.stderr)
    return EXIT_OK


def cmd_decompose(cfg):
    dec = _decomposition(cfg)
    fmt = cfg.format or 'jsonl'
    if fmt == 'jsonl':
        print(json.dumps({'n': dec.n,
                          'cycles': [list(c) for c in dec.cycles],
                          'order_seed': dec.seed}))
    else:
        for c in dec.cycles:
            print('(' + ','.join(str(v) for v in c) + ')')
    return EXIT_OK


def cmd_join(cfg):
    dec = _decomposition(cfg)
    graph = joiner.complement_pairs(dec)
    count = joiner.best_count(graph)
    # Listing the trees may refuse; do it before anything is printed.
    joined = joiner.enumerate_joined_cycles(dec)
    fmt = cfg.format or 'jsonl'
    if fmt == 'jsonl':
        print(json.dumps({'n': dec.n,
                          'cycles': [list(c) for c in dec.cycles],
                          'edges': [list(e) for e in graph.edges],
                          'best_count': count}))
    else:
        print(f'cycles: {len(dec.cycles)}  edges: {len(graph.edges)}  '
              f'spanning trees: {count}')
    # Different trees swap different pairs' arcs, so every tree's cycle
    # is distinct and the footer is the tree count: only printed rows
    # are merged.
    if cfg.limit is not None:
        joined = itertools.islice(joined, max(cfg.limit, 0))
    for pairs, cycle in joined:
        f = gf2poly.to_text(canonical.minimal_polynomial(cycle))
        if fmt == 'jsonl':
            print(json.dumps({'tree_edges': [list(p) for p in pairs],
                              'vertices': list(cycle.vertices),
                              'sequence':
                                  gamma.cycle_to_sequence(cycle).to_text(),
                              'min_poly': f}))
        else:
            tree = ''.join(f'({r},{s})' for r, s in pairs)
            verts = ','.join(str(v) for v in cycle.vertices)
            print(f'{tree or "(identity)"} -> {verts} minpoly={f}')
    if fmt == 'jsonl':
        print(json.dumps({'distinct_joined_cycles': count}))
    else:
        print(f'distinct joined cycles: {count}')
    return EXIT_OK


def cmd_enumerate(cfg):
    stream = gamma.enumerate_hamiltonian(cfg.n, limit=cfg.limit,
                                         override_guard=cfg.override_guard)
    for cycle in stream:
        report = canonical.minimal_polynomial_of_cycle(cycle)
        print(json.dumps(_report_record(cycle, report)))
    return EXIT_OK


def _cycle_from_config(cfg):
    """Build the HamCycle named by --cycle/--sequence, or raise ValueError.

    Callers have checked that exactly one of the two is set.
    """
    if cfg.cycle is not None:
        try:
            verts = _csv_ints(_read_arg(cfg.cycle))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(str(exc)) from None
        cycle = gamma.HamCycle(verts, cfg.n)
    else:
        seq = seqkit.parse_sequence(_read_arg(cfg.sequence))
        cycle = gamma.cycle_from_sequence(seq, cfg.n)
    if cfg.n is not None and cycle.n != cfg.n:
        raise ValueError(f'--n {cfg.n} does not match the input order '
                         f'{cycle.n}')
    return cycle


def cmd_minpoly(cfg):
    if (cfg.cycle is None) == (cfg.sequence is None):
        return _usage('minpoly needs exactly one of --cycle or --sequence')
    try:
        cycle = _cycle_from_config(cfg)
    except ValueError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return EXIT_VERIFY
    report = canonical.minimal_polynomial_of_cycle(cycle)
    record = _report_record(cycle, report)
    fmt = cfg.format or 'text'
    if fmt == 'jsonl':
        print(json.dumps(record))
    else:
        for key in canonical.MinPolyReport._fields:
            print(f'{key} = {record[key]}')
    return EXIT_OK


def cmd_verify(cfg):
    if (cfg.cycle is None) == (cfg.sequence is None):
        return _usage('verify needs exactly one of --cycle or --sequence')
    fmt = cfg.format or 'text'
    if cfg.cycle is not None:
        try:
            cycle = _cycle_from_config(cfg)
        except ValueError as exc:
            print(f'verification failed: {exc}', file=sys.stderr)
            return EXIT_VERIFY
        report = canonical.minimal_polynomial_of_cycle(cycle)
        seq = gamma.cycle_to_sequence(cycle)
        ok = (report.bm_check == report.f
              and seqkit.is_modified_de_bruijn(seq, cycle.n))
        record = {'n': cycle.n, 'vertices': list(cycle.vertices),
                  'sequence': seq.to_text(), 'span': report.span,
                  'bm_matches': report.bm_check == report.f, 'ok': ok}
    else:
        text = _read_arg(cfg.sequence)
        try:
            seq = seqkit.parse_sequence(text)
        except ValueError as exc:
            print(f'error: {exc}', file=sys.stderr)
            return EXIT_USAGE
        n = cfg.n
        if n is None:
            period = seq.period
            if (period + 1) & period == 0:  # 2^k - 1
                n = (period + 1).bit_length() - 1
            elif period & (period - 1) == 0:
                n = period.bit_length() - 1
            else:
                print('error: cannot infer the order; pass --n',
                      file=sys.stderr)
                return EXIT_USAGE
        debruijn = seq.period == (1 << n) and seqkit.is_de_bruijn(seq, n)
        mdb = (seq.period == (1 << n) - 1
               and seqkit.is_modified_de_bruijn(seq, n))
        bm = seqkit.berlekamp_massey(seq)
        span_form = None
        if debruijn and n >= 3:
            span_form = seqkit.has_span_form(bm, n)
        ok = debruijn or mdb
        record = {'n': n, 'period': seq.period, 'de_bruijn': debruijn,
                  'modified_de_bruijn': mdb,
                  'linear_complexity': bm.linear_complexity,
                  'minimal_polynomial': gf2poly.to_text(bm.minimal_polynomial),
                  'span_form': span_form, 'ok': ok}
    if fmt == 'jsonl':
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f'{key} = {value}')
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_tables(cfg):
    gamma.guard_exhaustive(cfg.n, cfg.override_guard)
    writer = csv.writer(sys.stdout, lineterminator='\n')
    if cfg.which == 1:
        spans = canonical.spans_of_all_cycles(
            cfg.n, override_guard=cfg.override_guard)
        print(','.join(str(s) for s in sorted(spans)))
        return EXIT_OK
    if cfg.which == 2:
        # Maximal span 2^n - 2 means the generator is coprime to F.
        f = gf2poly.build_F(cfg.n)
        rows = []
        for cycle in gamma.enumerate_hamiltonian(
                cfg.n, override_guard=cfg.override_guard):
            c_h = canonical.canonical_generator(cycle)
            if gf2poly.gcd(c_h, f) == 1:
                # c_H / F = c_H (x + 1) / (x^N + 1), so its first N series
                # terms are the coefficients of c_H (x + 1), lowest first.
                labels = c_h << 1 ^ c_h
                rows.append((gf2poly.to_text(c_h, 'binary'),
                             format(labels, f'0{(1 << cfg.n) - 1}b')[::-1]))
        for row in sorted(rows):
            writer.writerow(row)
        return EXIT_OK
    if cfg.which == 3:
        for alg, walker in (('complement', greedy.prefer_complement),
                            ('double', greedy.modified_prefer_double)):
            groups = {}
            for v in range(1, 1 << cfg.n):
                path = walker(cfg.n, v)
                if greedy.is_hamiltonian(path, cfg.n):
                    cycle = gamma.HamCycle(path, cfg.n)
                    groups.setdefault(cycle, ([], path))[0].append(v)
            for inits, path in sorted(groups.values()):
                writer.writerow([alg,
                                 ' '.join(str(v) for v in inits),
                                 ' '.join(str(v) for v in path)])
        return EXIT_OK
    if cfg.which == 4:
        if cfg.n != 4:
            return _usage('the worked join table exists at order 4 only')
        dec = greedy.psi_decompose(4, visit_order=(6, 4, 14))
        rows = 0
        for pairs, cycle in joiner.enumerate_joined_cycles(dec):
            rows += 1
            writer.writerow([''.join(f'({r},{s})' for r, s in pairs),
                             ' '.join(str(v) for v in cycle.vertices),
                             gamma.cycle_to_sequence(cycle).to_text(),
                             gf2poly.to_text(
                                 canonical.minimal_polynomial(cycle))])
        # One distinct cycle per tree, as in cmd_join.
        writer.writerow(['distinct', rows])
        return EXIT_OK
    return _usage(f'unknown table {cfg.which}')


_HANDLERS = {
    'graph': cmd_graph,
    'greedy': cmd_greedy,
    'decompose': cmd_decompose,
    'join': cmd_join,
    'enumerate': cmd_enumerate,
    'minpoly': cmd_minpoly,
    'verify': cmd_verify,
    'tables': cmd_tables,
}


def run(config):
    """Execute a parsed configuration; returns the exit code."""
    return _HANDLERS[config.command](config)


def main(argv=None):
    """Console entry point."""
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return run(config)
    except gamma.GuardRefusal as exc:
        print(f'refused: {exc}', file=sys.stderr)
        return EXIT_GUARD
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, ZeroDivisionError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return EXIT_USAGE


if __name__ == '__main__':
    sys.exit(main())
