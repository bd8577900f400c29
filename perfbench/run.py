#!/usr/bin/env python3
"""Benchmark of the mdbs command line, end to end and per layer.

    python3 perfbench/run.py --workload report --seed 0 --seconds 44 --trace 0
    python3 perfbench/run.py --record-digests

With --trace 0 the CLI runs as a subprocess, one invocation at a time
in a closed loop with a single client, each operation of the workload's
round many times over, and the run reports what a user waits for.
With --trace 1 the same operations run in this process through
mdbs.cli.main, once untraced and once with every module's public
functions wrapped in spans, and the run reports per-layer self times and
counts.  Either way every output is checked, and the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with provenance and the exit-code
probes, goes to perfbench/out/.

--record-digests runs every operation of the default seed once and
stores the sha256 of each output in perfbench/digests.json; later runs
compare any output whose input matches a recorded one.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gzip
import io
import itertools
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / 'out'
DIGESTS = HERE / 'digests.json'
REFERENCE = ROOT / 'tests' / '_reference.py'
DEFAULT_SEED = 0
#: No-work invocations before the first operation; after that one more
#: precedes any operation that starts this long after the last one.
SETUP_FIRST = 5
SETUP_EVERY_S = 1.5
#: A run must exit within 180 s: an operation still running this long
#: after the start is killed and counted as failed.
HARD_LIMIT_S = 150.0


class Spawned(NamedTuple):
    code: Optional[int]
    stdout: bytes
    stderr: bytes
    latency: float
    first_record: Optional[float]
    maxrss_kb: int


def child_env():
    env = dict(os.environ)
    for key in ('MDBS_EXHAUSTIVE_MAX', 'PYTHONUNBUFFERED', 'PYTHONSTARTUP'):
        env.pop(key, None)
    env['PYTHONPATH'] = str(ROOT / 'src')
    return env


def _feed(pipe, data):
    try:
        pipe.write(data)
        pipe.close()
    except BrokenPipeError:
        pass


def spawn(argv, stdin=None, header=0, deadline=None, env=None):
    """Run `python -m mdbs.cli argv` and time it from spawn to exit.

    first_record is the time until stdout holds more than `header`
    complete lines, as a reader of the pipe would see them.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, '-m', 'mdbs.cli', *argv], cwd=ROOT,
        env=env or child_env(),
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    feeder = None
    if stdin is not None:
        feeder = threading.Thread(target=_feed,
                                  args=(proc.stdin, stdin.encode()))
        feeder.start()
    out, err = bytearray(), bytearray()
    first, newlines, killed = None, 0, False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            timeout = (None if deadline is None
                       else max(0.0, deadline - time.perf_counter()))
            events = sel.select(timeout)
            if not events:
                proc.kill()
                killed = True
                break
            for key, _ in events:
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                key.data.extend(chunk)
                if key.data is out and first is None:
                    newlines += chunk.count(b'\n')
                    if newlines > header:
                        first = time.perf_counter() - t0
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if feeder is not None:
        feeder.join()
    return Spawned(None if killed else proc.returncode, bytes(out),
                   bytes(err), latency, first, usage.ru_maxrss)


def _keep_going(start, rounds, seconds, deadline):
    """Start another round only if one more of average length fits."""
    now = time.perf_counter()
    elapsed = now - start
    return (elapsed + elapsed / rounds <= seconds
            and now + elapsed / rounds < deadline)


def measured_run(wl, gate, seconds, deadline):
    """Untraced subprocess run: end-to-end metrics.

    The round's operations run in turn until the next one would end past
    `seconds`, so every operation is timed several times, spread over the
    run.  An operation's latency is the mean of its times: the machine's
    load comes in spells of seconds to a minute, and a mean over the
    whole run moves least with the share of the run a spell covers.
    """
    env = child_env()
    problems = []
    setup = []
    last_setup = None

    def sample_setup(count):
        nonlocal last_setup
        for _ in range(count):
            res = spawn(('--help',), env=env, deadline=deadline)
            if res.code != 0:
                problems.append(f'--help exited {res.code}')
            setup.append(res.latency)
        last_setup = time.perf_counter()

    # The first invocation in a checkout byte-compiles the package.
    spawn(('--help',), env=env, deadline=deadline)
    times = [[] for _ in wl.ops]
    firsts = [[] for _ in wl.ops]
    items = [None] * len(wl.ops)
    rss, failed, kinds = [], 0, {}
    start = time.perf_counter()
    sample_setup(SETUP_FIRST)
    for step in itertools.count():
        i = step % len(wl.ops)
        op = wl.ops[i]
        if times[i]:
            # Every operation runs at least once; after that, stop before
            # the first one whose usual time would overrun the run.
            end = time.perf_counter() + statistics.fmean(times[i])
            if end - start > seconds or end > deadline:
                break
        # Set-up samples are spread evenly over the run, so that a slow
        # spell of the machine weighs on them as much as on the operations.
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            sample_setup(1)
        res = spawn(op.argv, op.stdin, checks.header_lines(op), deadline,
                    env)
        bad = gate.check(op, res.code, res.stdout, res.stderr)
        if bad:
            failed += 1
            problems.append(f'{" ".join(op.argv)}: {"; ".join(bad)}')
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        times[i].append(res.latency)
        count = checks.count_records(op, res.stdout)
        if items[i] not in (None, count):
            problems.append(f'{" ".join(op.argv)}: {count} records, '
                            f'{items[i]} before')
        items[i] = count
        rss.append(res.maxrss_kb)
        if res.first_record is not None:
            firsts[i].append(res.first_record)
    latency = [statistics.fmean(ts) for ts in times]
    first = [statistics.fmean(fs) for fs in firsts if fs]
    streaming_first = [statistics.fmean(fs) for op, fs in zip(wl.ops, firsts)
                       if fs and op.kind in workloads.STREAMING]
    metrics = {
        'setup_s': (statistics.median(setup), 's'),
        'wall_s': (sum(latency), 's'),
        'op_p50_s': (statistics.median(latency), 's'),
        'items_per_s': (sum(items) / sum(latency), '1/s'),
        # A workload without streaming operations (report) falls back
        # to every operation, where the first record is the whole report.
        'first_item_s': (statistics.median(streaming_first or first), 's'),
        'peak_rss_mb': (max(rss) / 1024, 'MB'),
    }
    detail = {'round_ops': len(wl.ops), 'items_per_round': sum(items),
              'setup_samples_s': setup,
              'op_times_s': [{'argv': ' '.join(op.argv), 'n': op.n,
                              'times': ts}
                             for op, ts in zip(wl.ops, times)]}
    return metrics, sum(map(len, times)), failed, kinds, problems, detail


class _Sink:
    """Stand-in for sys.stdout that keeps what is written."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def getvalue(self):
        return ''.join(self.parts).encode()


def in_process(cli, op, tracer=None):
    """mdbs.cli.main(argv) with stdio redirected; (code, out, err, secs)."""
    out, err = _Sink(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.stdin or ''), out, err
    idx = tracer.enter('cli.main') if tracer is not None else None
    t0 = time.perf_counter()
    try:
        code = cli.main(list(op.argv))
    except Exception:  # reported as a failed operation
        code = None
        err.write(traceback.format_exc())
    finally:
        secs = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit(idx)
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue().encode(), secs


def traced_run(wl, gate, seconds, deadline, spans_path):
    """In-process run, untraced then traced per round: per-layer metrics."""
    from mdbs import cli

    tr = tracing.Tracer()
    untraced = traced = 0.0
    attempted = failed = trace_failures = rounds = 0
    problems, kinds = [], {}
    start = time.perf_counter()
    while True:
        for traced_pass in (False, True):
            if traced_pass:
                tr.install()
            try:
                for op in wl.ops:
                    tr.op += traced_pass
                    code, out, err, secs = in_process(
                        cli, op, tr if traced_pass else None)
                    bad = gate.check(op, code, out, err)
                    attempted += 1
                    kinds[op.kind] = kinds.get(op.kind, 0) + 1
                    if bad:
                        failed += 1
                        problems.append(
                            f'{" ".join(op.argv)}: {"; ".join(bad)}')
                    if traced_pass:
                        traced += secs
                        trace_failures += bool(bad)
                        tr.counts['cli.stdout_bytes'] += len(out)
                    else:
                        untraced += secs
            finally:
                tr.uninstall()
        tr.fold()
        rounds += 1
        if not _keep_going(start, rounds, seconds, deadline):
            break
    metrics = tracing.layer_metrics(tr, rounds)
    metrics['trace.overhead_s'] = ((traced - untraced) / rounds, 's')
    metrics['trace.errors'] = (tr.errors + trace_failures, 'count')
    with gzip.open(spans_path, 'wt', compresslevel=1) as f:
        for span in tr.kept:
            f.write(json.dumps(span) + '\n')
    detail = {'rounds': rounds, 'missing_hooks': tr.missing,
              'spans': sum(tr.calls.values()),
              'spans_file': spans_path.name, 'spans_written': len(tr.kept),
              'untraced_wall_s': untraced, 'traced_wall_s': traced}
    return metrics, attempted, failed, kinds, problems, detail


def run_probes(deadline):
    """Untimed probes that must exit 3 (guard) with nothing on stdout."""
    probes = {}
    for argv in workloads.PROBES:
        res = spawn(argv, deadline=deadline)
        probes[' '.join(argv)] = {
            'exit': res.code, 'stdout_bytes': len(res.stdout),
            'pass': res.code == 3 and not res.stdout}
    return probes


def _commit():
    if not (ROOT / '.git').exists():
        return None
    res = subprocess.run(['git', '-C', str(ROOT), 'rev-parse', 'HEAD'],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or None


def _import_package():
    sys.path.insert(0, str(ROOT / 'src'))
    import mdbs
    import mdbs.cli  # noqa: F401  (loads every module the hooks patch)
    return mdbs


def record_digests(gate):
    mdbs = _import_package()
    table = {}
    for make in workloads.WORKLOADS.values():
        for op in make(mdbs, DEFAULT_SEED).ops:
            key = checks.input_key(op)
            if key in table:
                continue
            res = spawn(op.argv, op.stdin)
            bad = gate.check(op, res.code, res.stdout, res.stderr)
            if bad:
                sys.exit(f'not recording, {" ".join(op.argv)}: {bad}')
            table[key] = checks.output_digest(res.stdout)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + '\n')
    print(f'{len(table)} digests written to {DIGESTS}', file=sys.stderr)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    p.add_argument('--workload', choices=sorted(workloads.WORKLOADS))
    p.add_argument('--seed', type=int, default=DEFAULT_SEED)
    p.add_argument('--seconds', type=float, default=44.0)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    p.add_argument('--record-digests', action='store_true')
    args = p.parse_args(argv)
    if args.workload is None and not args.record_digests:
        p.error('--workload is required')
    return args


def main(argv=None):
    args = parse_args(argv)
    t_start = time.perf_counter()
    deadline = t_start + HARD_LIMIT_S
    for need in (ROOT / 'src' / 'mdbs' / 'cli.py', REFERENCE):
        if not need.is_file():
            print(f'error: {need} not found; run from a checkout of the '
                  f'repository', file=sys.stderr)
            return 2
    os.environ.pop('MDBS_EXHAUSTIVE_MAX', None)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    gate = checks.Gate(checks.load_reference(REFERENCE), digests)
    if args.record_digests:
        gate.digests = {}
        record_digests(gate)
        return 0
    load_start = os.getloadavg()
    wl = workloads.WORKLOADS[args.workload](_import_package(), args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f'{args.workload}-seed{args.seed}-trace{args.trace}'
    if args.trace:
        run = traced_run(wl, gate, args.seconds, deadline,
                         OUT / f'{stem}-spans.jsonl.gz')
    else:
        run = measured_run(wl, gate, args.seconds, deadline)
    metrics, attempted, failed, kinds, problems, detail = run
    probes = run_probes(time.perf_counter() + 10)
    result = {
        'provenance': {
            'python': platform.python_version(),
            'implementation': platform.python_implementation(),
            'commit': _commit(),
            'nproc': os.cpu_count(),
            'loadavg_start': load_start,
            'loadavg_end': os.getloadavg(),
            'workload': args.workload,
            'seed': args.seed,
            'seconds': args.seconds,
            'trace': args.trace,
            'operations': kinds,
        },
        'correct': failed == 0 and not problems,
        'attempted': attempted,
        'failed': failed,
        'fail_ratio': failed / attempted,
        'metrics': {k: {'value': v, 'unit': u}
                    for k, (v, u) in metrics.items()},
        'probes': probes,
        'digests_compared': gate.digests_compared,
        'problems': problems[:20],
        'elapsed_s': time.perf_counter() - t_start,
        **wl.notes,
        **detail,
    }
    (OUT / f'{stem}.json').write_text(json.dumps(result, indent=1) + '\n')
    for p in problems[:5]:
        print(f'problem: {p}', file=sys.stderr)
    for name, probe in probes.items():
        if not probe['pass']:
            print(f'probe failed: {name}: {probe}', file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ('correct', 'attempted', 'failed', 'metrics')}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
