"""Output checks and record counting for benchmark operations.

Every check here holds for any seed.  Outputs whose input was also run
when the digests were recorded are further compared byte for byte by
sha256.  The naive oracles of tests/_reference.py back two of the
checks: spanning-tree counts of join graphs and window uniqueness of
report sequences.
"""

import hashlib
import importlib.util
import json


def header_lines(op):
    """Leading stdout lines that are not result records."""
    return 1 if op.kind == 'join' else 0


def records(op, lines):
    """The result records among an operation's stdout lines.

    A join prints a header line (cycles, edges, tree count) first and a
    summary line (distinct joined cycles) last; neither is a record.
    """
    lines = [ln for ln in lines if ln]
    if op.kind == 'join':
        return lines[1:-1]
    return lines


def count_records(op, stdout):
    return len(records(op, stdout.decode().split('\n')))


def input_key(op):
    """Digest of everything the program receives for one operation."""
    return hashlib.sha256(
        json.dumps([list(op.argv), op.stdin]).encode()).hexdigest()


def output_digest(stdout):
    return hashlib.sha256(stdout).hexdigest()


def load_reference(path):
    """Import tests/_reference.py from its file without touching it."""
    spec = importlib.util.spec_from_file_location('_mdbs_reference', path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def degree(text):
    """Degree of a polynomial in the CLI's symbolic form, e.g. x^4+x+1."""
    def term(t):
        if t == '1':
            return 0
        if t == 'x':
            return 1
        return int(t[2:])
    return max(term(t) for t in text.split('+'))


class Gate:
    """Checks operation outputs; oracle verdicts are cached per input."""

    def __init__(self, reference, digests=None):
        self.ref = reference
        self.digests = digests or {}
        self.digests_compared = 0
        self._oracle = {}

    def check(self, op, code, stdout, stderr):
        """List of problems with one operation's result (empty if fine)."""
        if code != 0:
            return [f'exit code {code}']
        if b'Traceback' in stderr:
            return ['traceback on stderr']
        try:
            problems = self._content(op, stdout.decode().split('\n'))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f'unparsable output: {exc!r}']
        key = input_key(op)
        if key in self.digests:
            self.digests_compared += 1
            if self.digests[key] != output_digest(stdout):
                problems.append('stdout differs from the recorded digest')
        return problems

    def _content(self, op, lines):
        recs = records(op, lines)
        if op.kind == 'tables':
            return [] if recs else ['empty table']
        rows = [json.loads(ln) for ln in recs]
        if op.kind in ('minpoly', 'verify_cycle', 'verify_sequence',
                       'decompose') and len(rows) != 1:
            return [f'{len(rows)} records, expected 1']
        size = (1 << op.n) - 1
        if op.kind == 'minpoly':
            rec = rows[0]
            out = []
            if rec['bm_check'] != rec['f']:
                out.append('bm_check differs from f')
            if rec['span'] != degree(rec['f']):
                out.append('span differs from deg f')
            if rec['vertices'] != [int(v) for v in op.stdin.split(',')]:
                out.append('report is for another cycle')
            return out
        if op.kind in ('verify_cycle', 'verify_sequence'):
            rec = rows[0]
            out = [] if rec['ok'] is True else ['verify says not ok']
            if op.kind == 'verify_cycle' and not self._windows_unique(
                    rec['sequence'], op.n):
                out.append('oracle: sequence windows are not unique')
            return out
        if op.kind == 'enumerate':
            expected = 1 << ((1 << (op.n - 1)) - op.n)
            distinct = {tuple(r['vertices']) for r in rows}
            out = []
            if len(rows) != expected or len(distinct) != expected:
                out.append(f'{len(rows)} cycles ({len(distinct)} distinct),'
                           f' expected {expected}')
            if any(r['bm_check'] != r['f'] for r in rows):
                out.append('bm_check differs from f')
            return out
        if op.kind == 'greedy_all':
            inits = [r['v_init'] for r in rows]
            if inits != list(range(1, size + 1)):
                return ['walks do not cover each initial vertex once']
            return []
        if op.kind == 'decompose':
            verts = sorted(v for c in rows[0]['cycles'] for v in c)
            if verts != list(range(1, size + 1)):
                return ['cycles do not partition the vertex set']
            return []
        if op.kind == 'join':
            header = json.loads(lines[0])
            summary = json.loads([ln for ln in lines if ln][-1])
            out = []
            if 'distinct_joined_cycles' not in summary:
                out.append('summary line missing')
            want = min(op.limit, header['best_count'])
            if len(rows) != want:
                out.append(f'{len(rows)} rows, expected {want}')
            if self._tree_count(header) != header['best_count']:
                out.append('oracle: spanning-tree count differs')
            return out
        raise ValueError(f'no check for operation kind {op.kind!r}')

    def _tree_count(self, header):
        pairs = tuple((e[0], e[1]) for e in header['edges'])
        key = ('trees', len(header['cycles']), pairs)
        if key not in self._oracle:
            self._oracle[key] = self.ref.spanning_tree_count(
                len(header['cycles']), pairs)
        return self._oracle[key]

    def _windows_unique(self, seq, n):
        key = ('windows', seq, n)
        if key not in self._oracle:
            windows = self.ref.cyclic_windows([int(b) for b in seq], n)
            self._oracle[key] = (0 not in windows
                                 and len(set(windows)) == (1 << n) - 1)
        return self._oracle[key]
