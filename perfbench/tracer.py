"""In-process span tracing around the public functions of each mdbs module.

Tracer.install wraps each hooked function in every mdbs namespace that
holds it (canonical and cli import some names directly), wraps
HamCycle.__init__ rather than the class so isinstance keeps working,
and times each next() of the generators that enumerate_hamiltonian and
enumerate_joined_cycles return.  Per-step helpers (gamma.successors,
greedy._grow) are left alone; their time lands in the calling span and
step counts are derived from path lengths.  uninstall puts every
original back.  A hook whose target no longer exists is listed in
`missing`, and every metric that needs it is reported as None.

Spans are kept in memory as [name, start, end, parent index, op index].
fold() adds them to per-name totals between rounds; the spans of the
first round folded stay in `kept`, for the caller to write out when
the run ends, so memory stays bounded by one round.
"""

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

def _bm_bits(tracer, args, kwargs, result):
    tracer.counts['seqkit.bm_bits'] += 2 * len(args[0])


def _walk(tracer, args, kwargs, path):
    n = args[0] if args else kwargs['n']
    size = (1 << n) - 1
    tracer.counts['greedy.walk_steps'] += len(path) - 1
    # Walks never revisit a vertex, so a full walk is Hamiltonian when
    # its last vertex arcs back to the first.
    double = (2 * path[-1]) % (1 << n)
    closes = path[0] == size - double or (double and path[0] == double)
    if len(path) == size and closes:
        tracer.counts['greedy.hamiltonian_walks'] += 1


def _edges(tracer, args, kwargs, graph):
    tracer.counts['joiner.edges'] += len(graph.edges)


def _trees(tracer, args, kwargs, trees):
    graph = args[0] if args else kwargs['graph']
    tracer.counts['joiner.trees'] += len(trees)
    tracer.counts['joiner.subsets_tested'] += math.comb(
        len(graph.edges), graph.node_count - 1)


def _cycle(tracer, item, state):
    tracer.counts['gamma.cycles_enumerated'] += 1


def _joined(tracer, item, state):
    tracer.counts['joiner.joined'] += 1
    seen = state.setdefault('seen', set())
    if item[1] not in seen:
        seen.add(item[1])
        tracer.counts['joiner.distinct'] += 1


#: (module, attribute, span name, wraps a generator, bookkeeping after)
HOOKS = (
    ('seqkit', 'berlekamp_massey', 'seqkit.bm', False, _bm_bits),
    ('seqkit', 'is_de_bruijn', 'seqkit.window_scan', False, None),
    ('seqkit', 'is_modified_de_bruijn', 'seqkit.window_scan', False, None),
    ('seqkit', 'parse_sequence', 'seqkit.parse', False, None),
    ('seqkit', 'check_de_bruijn_span_form', 'seqkit.span_form', False, None),
    ('seqkit', 'BitSequence.to_text', 'seqkit.to_text', False, None),
    ('gamma', 'HamCycle.__init__', 'gamma.hamcycle', False, None),
    ('gamma', 'cycle_to_sequence', 'gamma.to_sequence', False, None),
    ('gamma', 'cycle_from_sequence', 'gamma.from_sequence', False, None),
    ('gamma', 'enumerate_hamiltonian', 'gamma.enumerate', True, _cycle),
    ('gf2poly', 'gcd', 'gf2poly.gcd', False, None),
    ('gf2poly', 'div_rem', 'gf2poly.div_rem', False, None),
    ('gf2poly', 'reciprocal', 'gf2poly.reciprocal', False, None),
    ('gf2poly', 'to_text', 'gf2poly.to_text', False, None),
    ('gf2poly', 'expand_series', 'gf2poly.series', False, None),
    ('gf2poly', 'build_F', 'gf2poly.build_F', False, None),
    ('canonical', 'canonical_generator', 'canonical.generator', False, None),
    ('canonical', 'minimal_polynomial_of_cycle', 'canonical.minpoly', False,
     None),
    ('canonical', 'spans_of_all_cycles', 'canonical.spans', False, None),
    ('greedy', 'prefer_complement', 'greedy.walk', False, _walk),
    ('greedy', 'modified_prefer_double', 'greedy.walk', False, _walk),
    ('greedy', 'is_hamiltonian', 'greedy.is_hamiltonian', False, None),
    ('greedy', 'psi_decompose', 'greedy.decompose', False, None),
    ('joiner', 'complement_pairs', 'joiner.pairs', False, _edges),
    ('joiner', 'best_count', 'joiner.count', False, None),
    ('joiner', 'spanning_trees', 'joiner.trees', False, _trees),
    ('joiner', 'enumerate_joined_cycles', 'joiner.merge', True, _joined),
    ('joiner', 'join_pair', 'joiner.join_pair', False, None),
)


class _TracedIter:
    """Iterator that records one span per next() of the wrapped one."""

    def __init__(self, tracer, name, it, after):
        self._tracer, self._name, self._it = tracer, name, it
        self._after = after
        self._state = {}

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.enter(self._name)
        try:
            item = next(self._it)
        finally:
            self._tracer.exit(idx)
        if self._after is not None:
            self._after(self._tracer, item, self._state)
        return item


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self.errors = 0
        self.op = -1
        self.kept = None
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.main_s = 0.0
        self._stack = []
        self._patches = []

    def enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def exit(self, idx):
        self.spans[idx][2] = perf_counter()
        if not self._stack or self._stack.pop() != idx:
            self.errors += 1
            self._stack.clear()

    def _wrap(self, fn, name, generator, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if generator:
                return _TracedIter(tracer, name, iter(result), after)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return wrapper

    def install(self, package='mdbs'):
        """Wrap every hook in every loaded module of the package."""
        self.missing = []
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None
                      and (key == package or key.startswith(package + '.'))]
        for module, attr, name, generator, after in self.hooks:
            owner = sys.modules.get(f'{package}.{module}')
            cls_name, _, method = attr.rpartition('.')
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = (cls.__dict__.get(method)
                            if isinstance(cls, type) else None)
                if original is None:
                    self.missing.append(f'{module}.{attr}')
                    continue
                setattr(cls, method,
                        self._wrap(original, name, generator, after))
                self._patches.append((cls, method, original))
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(f'{module}.{attr}')
                continue
            wrapper = self._wrap(original, name, generator, after)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def uninstall(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def missing_spans(self):
        """Span names at least one of whose hooks was not found."""
        gone = set(self.missing)
        return {name for module, attr, name, _, _ in self.hooks
                if f'{module}.{attr}' in gone}

    def fold(self):
        """Add the recorded spans to the per-name totals, then drop them.

        Call it between rounds, when no span is open.  A span's self
        time is its duration minus that of its child spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self.self_s[name] += end - start - child[i]
            self.calls[name] += 1
            if name == 'cli.main':
                self.main_s += end - start
        if self.kept is None:
            self.kept = self.spans
        self.spans = []


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_spans(layer):
    return tuple(sorted({name for _, _, name, _, _ in HOOKS
                         if name.startswith(layer + '.')}))


def _metric_table():
    """(metric, unit, spans it needs, value from self/calls/counts)."""
    def s(name):
        return ('s', (name,), lambda t, c, k: t[name])

    def calls(name):
        return ('count', (name,), lambda t, c, k: c[name])

    def module_self(layer):
        names = _layer_spans(layer)
        return ('s', names, lambda t, c, k: sum(t[n] for n in names))

    return {
        'seqkit.bm_s': s('seqkit.bm'),
        'seqkit.bm_calls': calls('seqkit.bm'),
        'seqkit.bm_bits': ('bits', ('seqkit.bm',),
                           lambda t, c, k: k['seqkit.bm_bits']),
        'seqkit.window_scan_s': s('seqkit.window_scan'),
        'seqkit.parse_s': s('seqkit.parse'),
        'seqkit.self_s': module_self('seqkit'),
        'gamma.hamcycle_s': s('gamma.hamcycle'),
        'gamma.hamcycle_calls': calls('gamma.hamcycle'),
        'gamma.to_sequence_s': s('gamma.to_sequence'),
        'gamma.from_sequence_s': s('gamma.from_sequence'),
        'gamma.enumerate_s': s('gamma.enumerate'),
        'gamma.cycles_enumerated': (
            'count', ('gamma.enumerate',),
            lambda t, c, k: k['gamma.cycles_enumerated']),
        'gamma.self_s': module_self('gamma'),
        'gf2poly.gcd_s': s('gf2poly.gcd'),
        'gf2poly.gcd_calls': calls('gf2poly.gcd'),
        'gf2poly.div_rem_s': s('gf2poly.div_rem'),
        'gf2poly.reciprocal_s': s('gf2poly.reciprocal'),
        'gf2poly.to_text_s': s('gf2poly.to_text'),
        'gf2poly.series_s': s('gf2poly.series'),
        'gf2poly.self_s': module_self('gf2poly'),
        'canonical.generator_s': s('canonical.generator'),
        'canonical.generator_calls': calls('canonical.generator'),
        'canonical.minpoly_calls': calls('canonical.minpoly'),
        'canonical.self_s': module_self('canonical'),
        'greedy.walk_s': s('greedy.walk'),
        'greedy.walks': calls('greedy.walk'),
        'greedy.walk_steps': ('count', ('greedy.walk',),
                              lambda t, c, k: k['greedy.walk_steps']),
        'greedy.hamiltonian_ratio': (
            'ratio', ('greedy.walk',),
            lambda t, c, k: _ratio(k['greedy.hamiltonian_walks'],
                                   c['greedy.walk'])),
        'greedy.decompose_s': s('greedy.decompose'),
        'greedy.self_s': module_self('greedy'),
        'joiner.pairs_s': s('joiner.pairs'),
        'joiner.edges': ('count', ('joiner.pairs',),
                         lambda t, c, k: k['joiner.edges']),
        'joiner.count_s': s('joiner.count'),
        'joiner.trees_s': s('joiner.trees'),
        'joiner.trees': ('count', ('joiner.trees',),
                         lambda t, c, k: k['joiner.trees']),
        'joiner.subsets_tested': ('count', ('joiner.trees',),
                                  lambda t, c, k: k['joiner.subsets_tested']),
        'joiner.tree_yield': (
            'ratio', ('joiner.trees',),
            lambda t, c, k: _ratio(k['joiner.trees'],
                                   k['joiner.subsets_tested'])),
        'joiner.merge_s': s('joiner.merge'),
        'joiner.join_pair_calls': calls('joiner.join_pair'),
        'joiner.distinct_ratio': (
            'ratio', ('joiner.merge',),
            lambda t, c, k: _ratio(k['joiner.distinct'], k['joiner.joined'])),
        'joiner.self_s': module_self('joiner'),
        'cli.self_s': ('s', (), lambda t, c, k: t['cli.main']),
        'cli.stdout_bytes': ('bytes', (),
                             lambda t, c, k: k['cli.stdout_bytes']),
    }


METRICS = _metric_table()


def layer_metrics(tracer, rounds):
    """Per-layer metrics as {name: (value, unit)}, per traced round.

    Times and counts are divided by `rounds`; ratios are taken over the
    whole traced pass.  A metric whose hook is missing has value None.
    """
    tracer.fold()
    times, calls = tracer.self_s, tracer.calls
    gone = tracer.missing_spans()
    out = {}
    for name, (unit, needs, value) in METRICS.items():
        if gone.intersection(needs):
            out[name] = (None, unit)
            continue
        v = value(times, calls, tracer.counts)
        out[name] = (v if unit == 'ratio' else v / rounds, unit)
    main = tracer.main_s
    out['trace.coverage'] = (_ratio(main - times['cli.main'], main), 'ratio')
    return out
