"""Command line front end.

Subcommands cover the whole pipeline: exporting the arc-labeled graph,
running the greedy walks, decomposing the vertex set into greedy
cycles, joining decompositions along spanning trees, exhaustively
enumerating Hamiltonian cycles with their minimal-polynomial reports,
verifying sequences and cycles, and reproducing the bundled reference
tables.

Exit codes: 0 success, 2 usage, malformed input or an order too large
to index or to hold in memory, 3 exhaustive-guard refusal, 4
verification failure or a failed internal check.  A reader that closes
stdout early is no error.  Given the same configuration (including
seeds) every command writes byte-identical output.

The library never refuses work; this module holds the one refusal
policy for its two exponential runs.  `enumerate` and `tables` refuse
orders above the ceiling read from MDBS_EXHAUSTIVE_MAX (6 when unset or
not an integer) unless --override-guard is given, and `join` refuses a
pair graph of more than 24 edges, whose spanning trees it would list.
A refusal exits 3 before anything is written to stdout.
"""

import argparse
import itertools
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4

#: Environment variable holding the exhaustive-enumeration ceiling.
EXHAUSTIVE_MAX_ENV = 'MDBS_EXHAUSTIVE_MAX'
DEFAULT_EXHAUSTIVE_MAX = 6
#: Edge-count ceiling for exhaustive spanning tree enumeration.
MAX_EXHAUSTIVE_EDGES = 24


def _csv_ints(text):
    """Whitespace is ignored; every part must be ASCII digits."""
    parts = ''.join(text.split()).split(',')
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise argparse.ArgumentTypeError(f'not a comma-separated int list: '
                                         f'{text!r}')
    return tuple(map(int, parts))


def parse_args(argv=None):
    """Parse argv into argparse's namespace, the one run configuration.

    Argparse exits with code 2 on errors.  Every subcommand defines --n.
    """
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
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument('--v-init', type=int, default=None)
    start.add_argument('--all', action='store_true', dest='all_inits',
                       help='walk from every initial vertex')
    p.add_argument('--format', choices=['text', 'jsonl'], default=None)

    for name, text in (
            ('decompose', 'greedy cycle decomposition of the vertex set'),
            ('join', 'join a decomposition along every spanning tree')):
        p = sub.add_parser(name, help=text)
        p.add_argument('--n', type=int, required=True)
        visit = p.add_mutually_exclusive_group()
        visit.add_argument('--seed', default=None,
                           help='shuffle seed for the visit order')
        visit.add_argument('--order', type=_csv_ints, default=None,
                           help='visit order prefix, comma-separated')
        p.add_argument('--format', choices=['jsonl', 'text'], default='jsonl')
        if name == 'join':
            p.add_argument('--limit', type=int, default=None)

    p = sub.add_parser('enumerate',
                       help='all Hamiltonian cycles with full reports')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--limit', type=int, default=None)
    p.add_argument('--override-guard', action='store_true')

    for name, text in (
            ('minpoly', 'minimal-polynomial report of a cycle or sequence'),
            ('verify', 'check a sequence or cycle')):
        p = sub.add_parser(name, help=text)
        p.add_argument('--n', type=int, default=None)
        given = p.add_mutually_exclusive_group(required=True)
        given.add_argument('--cycle', default=None,
                           help="comma-separated vertices ('-' reads stdin)")
        given.add_argument('--sequence', default=None,
                           help="bit string or (1,0,...) tuple "
                                "('-' reads stdin)")
        p.add_argument('--format', choices=['text', 'jsonl'], default='text')

    p = sub.add_parser('tables', help='reproduce the reference tables')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--which', type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument('--override-guard', action='store_true')

    return parser.parse_args(argv)


def _usage(message):
    print(f'error: {message}', file=sys.stderr)
    return EXIT_USAGE


def _refuse(message):
    print(f'refused: {message}', file=sys.stderr)
    return EXIT_GUARD


def _read_arg(value):
    return sys.stdin.read().strip() if value == '-' else value


def _report_record(cycle, labels, report):
    """The record of a report; f, f* and bm_check often coincide, so
    each distinct polynomial is rendered once."""
    from . import gf2poly
    record = {'n': cycle.n, 'vertices': list(cycle.vertices),
              'sequence': labels.to_text()}
    text = {}
    for key, value in report._asdict().items():
        if key != 'span':
            if value not in text:
                text[value] = gf2poly.to_text(value)
            value = text[value]
        record[key] = value
    return record


def _emit(fmt, record, text=None):
    """Print one JSON line, or text(record) (default `key = value` lines)."""
    if fmt == 'jsonl':
        import json
        print(json.dumps(record))
    else:
        print(text(record) if text else
              '\n'.join(f'{key} = {value}' for key, value in record.items()))


def _take(stream, limit):
    """The first `limit` items of stream: all when None, none below 1."""
    return itertools.islice(stream, None if limit is None
                            else min(max(limit, 0), sys.maxsize))


def cmd_graph(cfg):
    from . import gamma
    sys.stdout.write(gamma.dot_export(cfg.n, cfg.highlight))
    return EXIT_OK


def cmd_greedy(cfg):
    from . import gamma, greedy
    walker = (greedy.prefer_complement if cfg.alg == 'complement'
              else greedy.modified_prefer_double)
    fmt = cfg.format or ('jsonl' if cfg.all_inits else 'text')
    if cfg.all_inits:
        names = None
        gamma._check_order(cfg.n)
        for v in range(1, (1 << cfg.n)):
            path = walker(cfg.n, v)
            ham = greedy.is_hamiltonian(path, cfg.n)
            if names is None:
                # The first walk has checked n, so the table fits.
                names = [str(x) for x in range(1 << cfg.n)]
            verts = [names[x] for x in path]
            if fmt == 'jsonl':
                # The bytes json.dumps writes, built by hand (argparse
                # leaves alg one of two ASCII words): json.dumps took the
                # n = 11 sweep 0.23 s against 0.16 s (Python 3.11).
                print(f'{{"n": {cfg.n}, "alg": "{cfg.alg}", "v_init": {v}, '
                      f'"vertices": [{", ".join(verts)}], '
                      f'"hamiltonian": {"true" if ham else "false"}}}')
            else:
                print(f'{v}\t{ham}\t{",".join(verts)}')
        return EXIT_OK
    path = walker(cfg.n, cfg.v_init)
    try:
        cycle = gamma.HamCycle(path, cfg.n)
    except ValueError:  # the walk did not close into a Hamiltonian cycle
        cycle = None
    seq = None if cycle is None else gamma.cycle_to_sequence(cycle).to_text()
    _emit(fmt, {'n': cfg.n, 'alg': cfg.alg, 'v_init': cfg.v_init,
                'vertices': path, 'hamiltonian': cycle is not None,
                'sequence': seq},
          lambda r: ','.join(map(str, r['vertices'])))
    if fmt == 'text' and cycle is None:
        print('not hamiltonian', file=sys.stderr)
    return EXIT_OK


def cmd_decompose(cfg):
    from . import greedy
    dec = greedy.psi_decompose(cfg.n, visit_order=cfg.order, seed=cfg.seed)
    _emit(cfg.format, {'n': dec.n, 'cycles': [list(c) for c in dec.cycles],
                       'order_seed': dec.seed},
          lambda r: '\n'.join('(' + ','.join(map(str, c)) + ')'
                              for c in r['cycles']))
    return EXIT_OK


def _join_row_text(row):
    tree = ''.join(f'({r},{s})' for r, s in row['tree_edges']) or '(identity)'
    verts = ','.join(map(str, row['vertices']))
    return f'{tree} -> {verts} minpoly={row["min_poly"]}'


def cmd_join(cfg):
    from . import canonical, gamma, gf2poly, greedy, joiner
    dec = greedy.psi_decompose(cfg.n, visit_order=cfg.order, seed=cfg.seed)
    graph = joiner.complement_pairs(dec)
    if len(graph.edges) > MAX_EXHAUSTIVE_EDGES:
        return _refuse(f'{len(graph.edges)} edges exceed the exhaustive '
                       f'spanning-tree ceiling of {MAX_EXHAUSTIVE_EDGES}')
    count = joiner.best_count(graph)
    joined = joiner.enumerate_joined_cycles(dec)
    _emit(cfg.format, {'n': dec.n, 'cycles': [list(c) for c in dec.cycles],
                       'edges': [list(e) for e in graph.edges],
                       'best_count': count},
          lambda r: f'cycles: {len(r["cycles"])}  edges: {len(r["edges"])}  '
                    f'spanning trees: {r["best_count"]}')
    # Different trees swap different pairs' arcs, so every tree's cycle
    # is distinct and the footer is the tree count: only printed rows
    # are merged.
    for pairs, cycle in _take(joined, cfg.limit):
        row = {'tree_edges': [list(p) for p in pairs],
               'vertices': list(cycle.vertices)}
        if cfg.format == 'jsonl':  # the text row prints no sequence
            row['sequence'] = gamma.cycle_to_sequence(cycle).to_text()
        row['min_poly'] = gf2poly.to_text(canonical.minimal_polynomial(cycle))
        _emit(cfg.format, row, _join_row_text)
    _emit(cfg.format, {'distinct_joined_cycles': count},
          lambda r: f'distinct joined cycles: {r["distinct_joined_cycles"]}')
    return EXIT_OK


def cmd_enumerate(cfg):
    # The search's labels, read from the all-ones vertex, give each
    # report and its sequence field.  d, f, f* and bm_check take few
    # distinct values over a run, so each is rendered once; c_H differs
    # from cycle to cycle and is rendered in every record.
    from . import canonical, gamma, gf2poly, seqkit
    n = cfg.n
    gamma._check_order(n, minimum=3)
    period = (1 << n) - 1
    f = gf2poly.build_F(n)
    names, reduced, text = None, {}, {}
    for verts, value in _take(gamma._hamiltonian_dfs(n), cfg.limit):
        gamma.HamCycle(verts, n)
        if names is None:
            # The search has allocated its tables, so this one fits.
            names = [str(v) for v in range(period + 1)]
        labels = seqkit.BitSequence(value, period)
        r = canonical._report(canonical._c_h(value, n), labels, f, reduced)
        for p in (r.d, r.f, r.f_star, r.bm_check):
            if p not in text:
                text[p] = gf2poly.to_text(p)
        # The bytes json.dumps writes, built by hand: every string is
        # 0/1 digits or symbolic text of x, ^, + and digits, none of
        # which JSON escapes.
        print(f'{{"n": {n}, '
              f'"vertices": [{", ".join([names[v] for v in verts])}], '
              f'"sequence": "{labels.to_text()}", '
              f'"c_h": "{gf2poly.to_text(r.c_h)}", "d": "{text[r.d]}", '
              f'"f": "{text[r.f]}", "f_star": "{text[r.f_star]}", '
              f'"span": {r.span}, "bm_check": "{text[r.bm_check]}"}}')
    return EXIT_OK


def _order(cfg, length):
    """--n, else the n with 2^n - 1 <= length < 2^(n+1) - 1; checked >= 2."""
    from . import seqkit
    n = (length + 1).bit_length() - 1 if cfg.n is None else cfg.n
    seqkit._check_order(n)
    return n


def _cycle_from_config(cfg, failure):
    """The HamCycle named by --cycle or --sequence (argparse allows one).

    Malformed text or an order below 2 raises, and main exits 2.  Text
    that is well-formed but names no Hamiltonian cycle of the order
    from _order prints `failure` and the reason to stderr and returns
    None.
    """
    from . import gamma, seqkit
    if cfg.cycle is not None:
        given, build = _csv_ints(_read_arg(cfg.cycle)), gamma.HamCycle
    else:
        given = seqkit.parse_sequence(_read_arg(cfg.sequence))
        build = gamma.cycle_from_sequence
    n = _order(cfg, len(given))
    try:
        return build(given, n)
    except ValueError as exc:
        print(f'{failure}: {exc}', file=sys.stderr)
        return None


def cmd_minpoly(cfg):
    from . import canonical, gamma
    cycle = _cycle_from_config(cfg, 'error')
    if cycle is None:
        return EXIT_VERIFY
    labels = gamma.cycle_to_sequence(cycle)
    report = canonical.minimal_polynomial_of_cycle(cycle, labels)
    record = _report_record(cycle, labels, report)
    _emit(cfg.format, record, lambda r: '\n'.join(
        f'{key} = {r[key]}' for key in canonical.MinPolyReport._fields))
    return EXIT_OK


def cmd_verify(cfg):
    from . import gf2poly, seqkit
    if cfg.cycle is not None:
        from . import canonical, gamma
        cycle = _cycle_from_config(cfg, 'verification failed')
        if cycle is None:
            return EXIT_VERIFY
        seq = gamma.cycle_to_sequence(cycle)
        report = canonical.minimal_polynomial_of_cycle(cycle, seq)
        bm_matches = report.bm_check == report.f
        ok = bm_matches and seqkit.is_modified_de_bruijn(seq, cycle.n)
        record = {'n': cycle.n, 'vertices': list(cycle.vertices),
                  'sequence': seq.to_text(), 'span': report.span,
                  'bm_matches': bm_matches, 'ok': ok}
    else:
        seq = seqkit.parse_sequence(_read_arg(cfg.sequence))
        n = _order(cfg, seq.period)
        if cfg.n is None and seq.period not in ((1 << n) - 1, 1 << n):
            return _usage('cannot infer the order; pass --n')
        debruijn = seqkit.is_de_bruijn(seq, n)
        mdb = seqkit.is_modified_de_bruijn(seq, n)
        f = seqkit.minimal_polynomial(seq)
        span_form = None
        if debruijn and n >= 3:
            span_form = seqkit.has_span_form(f, n)
        ok = debruijn or mdb
        record = {'n': n, 'period': seq.period, 'de_bruijn': debruijn,
                  'modified_de_bruijn': mdb,
                  'linear_complexity': gf2poly.degree(f),
                  'minimal_polynomial': gf2poly.to_text(f),
                  'span_form': span_form, 'ok': ok}
    _emit(cfg.format, record)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_tables(cfg):
    import csv
    # Tables 1 and 2 need neither greedy nor joiner but load them too:
    # perfbench's tracer hooks only the modules loaded when it installs.
    from . import canonical, gamma, gf2poly, greedy, joiner
    writer = csv.writer(sys.stdout, lineterminator='\n')
    if cfg.which == 1:
        spans = canonical.spans_of_all_cycles(cfg.n)
        print(','.join(str(s) for s in sorted(spans)))
        return EXIT_OK
    if cfg.which == 2:
        # Maximal span 2^n - 2 means the generator is coprime to F.
        f = gf2poly.build_F(cfg.n)
        rows = []
        for c_h in canonical._all_generators(cfg.n):
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
        gamma._check_order(cfg.n)
        for alg, walker in (('complement', greedy.prefer_complement),
                            ('double', greedy.modified_prefer_double)):
            groups = {}
            for v in range(1, 1 << cfg.n):
                path = walker(cfg.n, v)
                try:
                    cycle = gamma.HamCycle(path, cfg.n)
                except ValueError:  # not Hamiltonian
                    continue
                groups.setdefault(cycle, ([], path))[0].append(v)
            for inits, path in sorted(groups.values()):
                writer.writerow([alg,
                                 ' '.join(str(v) for v in inits),
                                 ' '.join(str(v) for v in path)])
        return EXIT_OK
    # argparse's choices leave only table 4.
    if cfg.n != 4:
        return _usage('the worked join table exists at order 4 only')
    dec = greedy.psi_decompose(4, visit_order=(6, 4, 14))
    for pairs, cycle in joiner.enumerate_joined_cycles(dec):
        writer.writerow([''.join(f'({r},{s})' for r, s in pairs),
                         ' '.join(str(v) for v in cycle.vertices),
                         gamma.cycle_to_sequence(cycle).to_text(),
                         gf2poly.to_text(canonical.minimal_polynomial(cycle))])
    # One distinct cycle per tree, as in cmd_join.
    writer.writerow(['distinct',
                     joiner.best_count(joiner.complement_pairs(dec))])
    return EXIT_OK


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
    """Execute a parsed configuration; returns the exit code.

    The order ceiling is checked here, before any handler runs, so an
    in-process run is refused exactly as a command-line one is.
    """
    if config.command in ('enumerate', 'tables') and not config.override_guard:
        try:
            ceiling = int(os.environ.get(EXHAUSTIVE_MAX_ENV, ''))
        except ValueError:
            ceiling = DEFAULT_EXHAUSTIVE_MAX
        if config.n > ceiling:
            return _refuse(
                f'exhaustive enumeration at order {config.n} exceeds the '
                f'guard ceiling {ceiling}; raise {EXHAUSTIVE_MAX_ENV} or '
                f'override to accept the exponential run time')
    return _HANDLERS[config.command](config)


def main(argv=None):
    """Console entry point."""
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code = run(config)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone.  Send what is still buffered to devnull,
        # or the interpreter's final flush raises again at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OverflowError, MemoryError) as exc:
        reason = str(exc) or type(exc).__name__
        if config.n is None:
            return _usage(reason)
        return _usage(f'order {config.n} is too large to index ({reason})')
    except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
        return _usage(exc)
    except RuntimeError as exc:
        # A failed internal self-check is a verification failure.
        print(f'error: {exc}', file=sys.stderr)
        return EXIT_VERIFY


if __name__ == '__main__':
    sys.exit(main())
