"""Tests for the command line front end."""

import argparse
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import mdbs
from mdbs import canonical, cli, gamma, gf2poly, greedy, joiner, seqkit

FINAL_CYCLE = '1,2,11,9,13,5,10,4,7,14,3,6,12,8,15'
DE_BRUIJN_16 = '0000100110101111'
MODIFIED_15 = '000100110101111'

TABLE2_GENERATORS = {
    '10100100011', '11011000101', '10011010111', '10100011011',
    '11101011001', '11010111011', '10001101011', '11011101011',
    '11010110001', '11000100101',
}


def _rows(out):
    return list(csv.reader(io.StringIO(out)))


def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(['bogus']) == 2
    assert cli.main(['graph']) == 2
    assert cli.main(['tables', '--n', '4', '--which', '9']) == 2
    assert cli.main(['graph', '--n', '4', '--highlight', 'a,b']) == 2
    assert cli.main(['graph', '--n', '4', '--format', 'dot']) == 2
    assert cli.main(['enumerate', '--n', '4', '--format', 'jsonl']) == 2
    assert cli.main(['tables', '--n', '4', '--which', '1',
                     '--format', 'csv']) == 2
    capsys.readouterr()
    assert cli.main(['greedy', '--n', '4']) == 2
    assert 'one of the arguments --v-init --all is required' \
        in capsys.readouterr().err
    assert cli.main(['minpoly', '--n', '4']) == 2
    assert cli.main(['minpoly', '--n', '4', '--cycle', '1,2',
                     '--sequence', '111']) == 2
    assert cli.main(['verify', '--n', '4']) == 2
    assert capsys.readouterr().out == ''
    # The order is checked as the arcs are listed, before any output.
    assert cli.main(['graph', '--n', '2']) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: order n must be an integer >= 3\n'
    # The last text, without its empty position, is a de Bruijn sequence.
    for text in ('(0,0,+1,1)', '(0_1,0)', '(-0,1)', '\u0661\u0660',
                 '0,0,0,1,0,0,1,1,,0,1,0,1,1,1,1'):
        for command in ('verify', 'minpoly'):
            assert cli.main([command, '--sequence', text]) == 2
            captured = capsys.readouterr()
            assert captured.out == '' and 'bad sequence text' in captured.err
    for argv in ('greedy --n 4 --v-init 3 --all',
                 'decompose --n 4 --order 6,4,14 --seed 5',
                 'join --n 4 --order 6,4,14 --seed 5'):
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert 'not allowed with argument' in captured.err


def test_closed_pipe_exits_0_quietly():
    # `mdbs greedy --n 11 --all | head -c 100`: the output outgrows the
    # pipe, so the writer meets the closed pipe, and each line outgrows
    # the stdout buffer, which keeps bytes for the final flush at exit.
    env = dict(os.environ)
    env.pop('PYTHONUNBUFFERED', None)
    env['PYTHONPATH'] = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, '-m', 'mdbs.cli', 'greedy', '--n', '11', '--all'],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b''


def test_help_exits_cleanly(capsys):
    assert cli.main(['--help']) == 0
    assert 'usage' in capsys.readouterr().out


def test_graph_dot_output(capsys):
    assert cli.main(['graph', '--n', '3']) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph gamma_3 {\n')
    assert out.endswith('}\n')
    assert '  1 -> 2 [label="0", color="blue"];' in out
    assert '  1 -> 5 [label="1", color="red"];' in out
    assert '  4 -> 7 [label="1", color="red"];' in out
    assert '4 -> 0' not in out


def test_graph_highlight_bolds_cycle_arcs(capsys):
    assert cli.main(['graph', '--n', '4', '--highlight', FINAL_CYCLE]) == 0
    out = capsys.readouterr().out
    assert out.count('style="bold"') == 15


def test_graph_highlight_outside_the_graph_exits_2(capsys):
    for argv, err in (('graph --n 3 --highlight 1,99',
                       'error: vertex 99 outside 1..7\n'),
                      ('graph --n 3 --highlight 0,1',
                       'error: vertex 0 outside 1..7\n'),
                      ('graph --n 2 --highlight 1,99',
                       'error: order n must be an integer >= 3\n')):
        assert cli.main(argv.split()) == 2
        assert capsys.readouterr() == ('', err)


def test_greedy_text_single_walk(capsys):
    assert cli.main(['greedy', '--n', '4', '--v-init', '1']) == 0
    captured = capsys.readouterr()
    assert captured.out == '1,13,5,10,11,9,2,4,7,14,3,6,12,8,15\n'
    assert captured.err == ''


def test_greedy_text_reports_failed_walk(capsys):
    assert cli.main(['greedy', '--n', '4', '--v-init', '2']) == 0
    assert capsys.readouterr() == ('2,11,9,13,5,10,4,7,1\n',
                                   'not hamiltonian\n')


def test_greedy_jsonl_failed_walk(capsys):
    # In jsonl the record says so; stderr stays empty.
    assert cli.main(['greedy', '--n', '4', '--v-init', '2',
                     '--format', 'jsonl']) == 0
    captured = capsys.readouterr()
    assert captured.err == ''
    assert captured.out == (
        '{"n": 4, "alg": "complement", "v_init": 2, '
        '"vertices": [2, 11, 9, 13, 5, 10, 4, 7, 1], '
        '"hamiltonian": false, "sequence": null}\n')


def test_greedy_all_jsonl(capsys):
    assert cli.main(['greedy', '--n', '4', '--all']) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert [r['v_init'] for r in records] == list(range(1, 16))
    winners = {r['v_init'] for r in records if r['hamiltonian']}
    assert winners == {1, 3, 7, 8, 12, 14, 15}


def test_greedy_jsonl_single_walk(capsys):
    assert cli.main(['greedy', '--n', '4', '--v-init', '5',
                     '--alg', 'double', '--format', 'jsonl']) == 0
    record = json.loads(capsys.readouterr().out)
    assert record['alg'] == 'double'
    assert record['hamiltonian'] is True
    assert record['vertices'] == [5, 10, 4, 8, 15, 14, 12, 7, 1, 2, 11,
                                  6, 3, 9, 13]
    cycle = gamma.HamCycle(record['vertices'], 4)
    assert record['sequence'] == gamma.cycle_to_sequence(cycle).to_text()


def test_decompose_jsonl_default(capsys):
    assert cli.main(['decompose', '--n', '4', '--order', '6,4,14']) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {'n': 4,
                      'cycles': [[6, 3, 9, 13, 5, 10, 11],
                                 [4, 7, 1, 2],
                                 [14, 12, 8, 15]],
                      'order_seed': None}


def test_decompose_text_format(capsys):
    assert cli.main(['decompose', '--n', '4', '--order', '6,4,14',
                     '--format', 'text']) == 0
    assert capsys.readouterr().out.splitlines() == [
        '(6,3,9,13,5,10,11)', '(4,7,1,2)', '(14,12,8,15)']


def test_decompose_seeded_runs_are_byte_identical(capsys):
    argv = ['decompose', '--n', '5', '--seed', 'trial-7']
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    record = json.loads(first)
    assert record['order_seed'] == 'trial-7'
    flat = [v for c in record['cycles'] for v in c]
    assert sorted(flat) == list(range(1, 32))


def test_join_worked_decomposition_jsonl(capsys):
    assert cli.main(['join', '--n', '4', '--order', '6,4,14']) == 0
    lines = capsys.readouterr().out.splitlines()
    head = json.loads(lines[0])
    assert head['best_count'] == 8
    assert head['edges'] == [[1, 2, 13, 2], [1, 2, 11, 4], [1, 3, 3, 12],
                             [2, 3, 7, 8], [2, 3, 1, 14]]
    trees = [json.loads(line) for line in lines[1:-1]]
    assert len(trees) == 8
    by_pairs = {frozenset(tuple(p) for p in t['tree_edges']): t
                for t in trees}
    pick = by_pairs[frozenset({(11, 4), (7, 8)})]
    assert pick['vertices'] == [6, 3, 9, 13, 5, 10, 4, 8, 15, 14, 12, 7,
                                1, 2, 11]
    assert pick['min_poly'] == 'x^4+x+1'
    assert json.loads(lines[-1]) == {'distinct_joined_cycles': 8}


def test_join_text_format(capsys):
    assert cli.main(['join', '--n', '4', '--order', '6,4,14',
                     '--format', 'text']) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == 'cycles: 3  edges: 5  spanning trees: 8'
    assert lines[-1] == 'distinct joined cycles: 8'
    assert len(lines) == 10
    assert all(' -> ' in line and 'minpoly=' in line
               for line in lines[1:-1])


def test_join_limit_caps_rows_not_count(capsys):
    assert cli.main(['join', '--n', '4', '--order', '6,4,14',
                     '--limit', '2']) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert json.loads(lines[-1]) == {'distinct_joined_cycles': 8}


def test_limit_above_sys_maxsize_takes_every_row(capsys):
    huge = str(sys.maxsize * 10**3)
    assert cli.main(['enumerate', '--n', '3', '--limit', huge]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert cli.main(['join', '--n', '4', '--order', '6,4,14',
                     '--limit', huge, '--format', 'text']) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines[-1] == 'distinct joined cycles: 8'


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)
    monkeypatch.setattr(module, name, counted)


def test_join_limit_bounds_the_merges(capsys, monkeypatch):
    # Seed 208 has 7744 spanning trees; only the printed rows are merged.
    calls = {}
    _count_calls(monkeypatch, joiner, '_merge', calls)
    assert cli.main(['join', '--n', '6', '--seed', '208',
                     '--limit', '20']) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 22
    assert json.loads(lines[-1]) == {'distinct_joined_cycles': 7744}
    assert calls == {'_merge': 20}


def test_join_rows_run_no_berlekamp_massey(capsys, monkeypatch):
    calls = {}
    for module in (seqkit, canonical):
        _count_calls(monkeypatch, module, 'berlekamp_massey', calls)
    assert cli.main(['join', '--n', '6', '--seed', '208',
                     '--limit', '20']) == 0
    assert cli.main(['tables', '--n', '4', '--which', '4']) == 0
    assert calls == {}
    # minpoly still prints bm_check, so it still runs Berlekamp-Massey.
    assert cli.main(['minpoly', '--cycle', FINAL_CYCLE]) == 0
    assert calls == {'berlekamp_massey': 1}
    capsys.readouterr()


def test_join_text_rows_build_no_sequence(capsys, monkeypatch):
    # Only the jsonl row prints the sequence.
    calls = {}
    _count_calls(monkeypatch, gamma, 'cycle_to_sequence', calls)
    argv = ['join', '--n', '6', '--seed', '208', '--limit', '20']
    assert cli.main(argv + ['--format', 'text']) == 0
    assert calls == {}
    assert cli.main(argv) == 0
    assert calls == {'cycle_to_sequence': 20}
    capsys.readouterr()


def test_table3_validates_each_walk_once(capsys, monkeypatch):
    # gamma's cycle test is the whole check, length included, so each of
    # the 2 * 31 walks is tested once, through HamCycle.  greedy imports
    # the test too, so a call through is_hamiltonian would count.
    calls = {}
    for module in (gamma, greedy):
        _count_calls(monkeypatch, module, '_is_closed_walk', calls)
    assert cli.main(['tables', '--n', '5', '--which', '3']) == 0
    assert _rows(capsys.readouterr().out)
    assert calls == {'_is_closed_walk': 2 * 31}


@pytest.mark.parametrize('limit', ['0', '-1'])
def test_join_nonpositive_limit_prints_header_and_footer(capsys, monkeypatch,
                                                         limit):
    calls = {}
    _count_calls(monkeypatch, joiner, '_merge', calls)
    argv = ['join', '--n', '6', '--seed', '208', '--limit', limit]
    assert cli.main(argv + ['--format', 'text']) == 0
    assert capsys.readouterr().out.splitlines() == [
        'cycles: 6  edges: 23  spanning trees: 7744',
        'distinct joined cycles: 7744']
    assert cli.main(argv) == 0
    head, foot = capsys.readouterr().out.splitlines()
    assert json.loads(head)['best_count'] == 7744
    assert json.loads(foot) == {'distinct_joined_cycles': 7744}
    assert calls == {}


def test_join_table_count_does_not_grow_with_rows(capsys, monkeypatch):
    # One table for the pair graph and one for the merges, whether the
    # run prints 1 row or 7744.
    for extra in (['--limit', '1'], []):
        calls = {}
        for name in ('_table', 'complement_pairs'):
            _count_calls(monkeypatch, joiner, name, calls)
        assert cli.main(['join', '--n', '6', '--seed', '208'] + extra) == 0
        assert calls == {'_table': 2, 'complement_pairs': 1}
        monkeypatch.undo()
    capsys.readouterr()


def test_join_single_cycle_identity(capsys):
    assert cli.main(['join', '--n', '4']) == 0
    lines = capsys.readouterr().out.splitlines()
    head = json.loads(lines[0])
    assert len(head['cycles']) == 1
    assert head['edges'] == []
    assert head['best_count'] == 1
    tree = json.loads(lines[1])
    assert tree['tree_edges'] == []
    assert tree['vertices'] == head['cycles'][0]
    assert json.loads(lines[-1]) == {'distinct_joined_cycles': 1}


def test_join_refusal_writes_nothing_to_stdout(capsys):
    # 51 edges: over the spanning-tree ceiling, so the run is refused.
    assert cli.main(['join', '--n', '8', '--seed', '3']) == 3
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('refused:')


def test_join_edge_ceiling_boundary(capsys):
    # Seed 78 has exactly 24 edges and is listed; seed 9 has 25.
    assert cli.main(['join', '--n', '7', '--seed', '78', '--limit', '1']) == 0
    lines = capsys.readouterr().out.splitlines()
    head = json.loads(lines[0])
    assert len(head['edges']) == cli.MAX_EXHAUSTIVE_EDGES == 24
    assert head['best_count'] == 165
    assert len(lines) == 3
    assert cli.main(['join', '--n', '7', '--seed', '9']) == 3
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith(
        'refused: 25 edges exceed the exhaustive spanning-tree ceiling of 24')


@pytest.mark.parametrize('argv', [
    'enumerate --n 7', 'tables --n 7 --which 1', 'tables --n 7 --which 2',
    'tables --n 7 --which 3', 'tables --n 7 --which 4'])
def test_order_ceiling_refuses_before_stdout(capsys, monkeypatch, argv):
    monkeypatch.delenv(cli.EXHAUSTIVE_MAX_ENV, raising=False)
    # The refusal comes before any handler runs; with no handlers, a run
    # let through fails at once instead of enumerating order 7.
    monkeypatch.setattr(cli, '_HANDLERS', {})
    assert cli.main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith(
        'refused: exhaustive enumeration at order 7 exceeds the guard '
        'ceiling 6;')


def test_run_refuses_in_process(capsys, monkeypatch):
    monkeypatch.delenv(cli.EXHAUSTIVE_MAX_ENV, raising=False)
    assert cli.run(cli.parse_args(['enumerate', '--n', '7',
                                   '--limit', '1'])) == 3
    assert cli.run(cli.parse_args(['tables', '--n', '7', '--which', '3'])) == 3
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.count('refused:') == 2


def test_enumerate_jsonl_records(capsys):
    assert cli.main(['enumerate', '--n', '4', '--limit', '3']) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert set(record) == {'n', 'vertices', 'sequence', 'c_h', 'd',
                               'f', 'f_star', 'span', 'bm_check'}
        assert record['n'] == 4
        assert record['vertices'][0] == 15
        assert record['span'] in {4, 12, 14}
        assert seqkit.is_modified_de_bruijn(
            seqkit.parse_sequence(record['sequence']), 4)


@pytest.mark.parametrize('limit', ['0', '-1'])
def test_enumerate_nonpositive_limit_prints_nothing(capsys, monkeypatch,
                                                    limit):
    # enumerate reports each cycle from the search's labels by
    # canonical._report; the last call shows that the counter sees it.
    calls = {}
    _count_calls(monkeypatch, canonical, '_report', calls)
    assert cli.main(['enumerate', '--n', '4', '--limit', limit]) == 0
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == ''
    assert calls == {}
    assert cli.main(['enumerate', '--n', '4', '--limit', '2']) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert calls == {'_report': 2}


def test_enumerate_renders_each_distinct_polynomial_once(capsys,
                                                         monkeypatch):
    calls = {}
    _count_calls(monkeypatch, gf2poly, 'to_text', calls)
    assert cli.main(['enumerate', '--n', '5', '--limit', '40']) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    fields = ('c_h', 'd', 'f', 'f_star', 'bm_check')
    distinct = [len({r[key] for key in fields}) for r in records]
    # f, f* and bm_check coincide when c_H is prime to F.
    assert min(distinct) < 5
    assert calls == {'to_text': sum(distinct)}


def test_enumerate_guard_override_and_env(capsys, monkeypatch):
    monkeypatch.delenv(cli.EXHAUSTIVE_MAX_ENV, raising=False)
    assert cli.main(['enumerate', '--n', '7', '--limit', '1',
                     '--override-guard']) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(record['vertices']) == 127
    monkeypatch.setenv(cli.EXHAUSTIVE_MAX_ENV, '3')
    assert cli.main(['enumerate', '--n', '4']) == 3
    assert capsys.readouterr().err.startswith('refused:')
    monkeypatch.setenv(cli.EXHAUSTIVE_MAX_ENV, '4')
    assert cli.main(['enumerate', '--n', '5']) == 3
    captured = capsys.readouterr()
    assert captured.out == ''
    assert 'guard ceiling 4;' in captured.err
    assert cli.main(['enumerate', '--n', '4', '--limit', '1']) == 0
    assert capsys.readouterr().out
    # A malformed value falls back to the default ceiling of 6.  The
    # limit keeps a run that is wrongly let through short.
    monkeypatch.setenv(cli.EXHAUSTIVE_MAX_ENV, 'junk')
    assert cli.main(['enumerate', '--n', '7', '--limit', '1']) == 3
    assert 'guard ceiling 6;' in capsys.readouterr().err
    assert cli.main(['enumerate', '--n', '6', '--limit', '1']) == 0
    assert capsys.readouterr().out


def test_minpoly_text_report(capsys):
    assert cli.main(['minpoly', '--n', '4', '--cycle', FINAL_CYCLE]) == 0
    assert capsys.readouterr().out.splitlines() == [
        'c_h = x^10+x^7+x^5+x+1',
        'd = x^2+x+1',
        'f = x^12+x^9+x^6+x^3+1',
        'f_star = x^12+x^9+x^6+x^3+1',
        'span = 12',
        'bm_check = x^12+x^9+x^6+x^3+1',
    ]


def test_minpoly_reads_cycle_from_stdin(capsys, monkeypatch):
    assert cli.main(['minpoly', '--n', '4', '--cycle', FINAL_CYCLE]) == 0
    direct = capsys.readouterr().out
    monkeypatch.setattr('sys.stdin', io.StringIO(FINAL_CYCLE + '\n'))
    assert cli.main(['minpoly', '--n', '4', '--cycle', '-']) == 0
    assert capsys.readouterr().out == direct


def test_minpoly_sequence_jsonl(capsys):
    assert cli.main(['minpoly', '--sequence', MODIFIED_15,
                     '--format', 'jsonl']) == 0
    record = json.loads(capsys.readouterr().out)
    assert record['n'] == 4
    assert record['sequence'] == MODIFIED_15
    assert record['vertices'][0] == 5
    assert record['c_h'] == record['d'] == 'x^10+x^9+x^8+x^6+x^5+x^2+1'
    assert record['f'] == record['bm_check'] == 'x^4+x+1'
    assert record['f_star'] == 'x^4+x^3+1'
    assert record['span'] == 4


def test_minpoly_rejects_bad_input(capsys):
    # Malformed text is a usage error (2), from minpoly and verify alike.
    for argv in (['minpoly', '--n', '4', '--cycle', '1,2,three'],
                 ['minpoly', '--sequence', '(0,2)'],
                 ['verify', '--cycle', '1,2,three']):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == '' and 'error:' in captured.err
    # Well-formed input that is not a cycle of order --n fails (4).
    assert cli.main(['minpoly', '--n', '4', '--cycle', '1,2,3']) == 4
    capsys.readouterr()
    assert cli.main(['minpoly', '--n', '5', '--cycle', FINAL_CYCLE]) == 4
    assert 'error:' in capsys.readouterr().err
    assert cli.main(['minpoly', '--n', '5', '--sequence', MODIFIED_15]) == 4
    assert 'error:' in capsys.readouterr().err


@pytest.mark.parametrize('text', ['1_1,2', '+1,2', '-1,2', '\u0661\u0665,2',
                                  '6,,4', '1,2,', '', '1.0', 'a,b'])
@pytest.mark.parametrize('flag', ['minpoly --cycle', 'decompose --n 4 --order',
                                  'graph --n 4 --highlight'])
def test_int_lists_take_ascii_digits_only(capsys, flag, text):
    *head, option = flag.split()
    assert cli.main(head + [f'{option}={text}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert f'not a comma-separated int list: {text!r}' in captured.err


def test_int_lists_ignore_whitespace(capsys):
    assert cli.main(['decompose', '--n', '4', '--order', '6,4,14']) == 0
    plain = capsys.readouterr().out
    assert cli.main(['decompose', '--n', '4', '--order', ' 6, 4 ,\t14\n']) == 0
    assert capsys.readouterr().out == plain


def test_verify_cycle_ok(capsys):
    assert cli.main(['verify', '--cycle', FINAL_CYCLE]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert 'n = 4' in lines
    assert 'span = 12' in lines
    assert 'bm_matches = True' in lines
    assert 'ok = True' in lines


def test_verify_cycle_rejects_non_cycle(capsys):
    assert cli.main(['verify', '--cycle', '1,3,2']) == 4
    assert 'verification failed' in capsys.readouterr().err
    assert cli.main(['verify', '--cycle', '1,2,11,9,13,5,10,4,7,14,3,6,12,8'])\
        == 4


def test_verify_sequence_de_bruijn(capsys):
    assert cli.main(['verify', '--sequence', DE_BRUIJN_16]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert 'n = 4' in lines
    assert 'de_bruijn = True' in lines
    assert 'modified_de_bruijn = False' in lines
    assert 'linear_complexity = 15' in lines
    assert 'span_form = True' in lines
    assert 'ok = True' in lines


def test_verify_de_bruijn_sequence_runs_each_check_once(capsys,
                                                      monkeypatch):
    calls = []
    for name in ('berlekamp_massey', 'is_de_bruijn'):
        check = getattr(seqkit, name)
        monkeypatch.setattr(
            seqkit, name,
            lambda *a, name=name, check=check: calls.append(name) or check(*a))
    assert cli.main(['verify', '--sequence', DE_BRUIJN_16]) == 0
    assert 'span_form = True' in capsys.readouterr().out.splitlines()
    assert sorted(calls) == ['berlekamp_massey', 'is_de_bruijn']


def test_verify_sequence_modified_jsonl(capsys):
    assert cli.main(['verify', '--sequence', '(0,0,0,1,0,0,1,1,0,1,0,1,1,1,1)',
                     '--format', 'jsonl']) == 0
    record = json.loads(capsys.readouterr().out)
    assert record['modified_de_bruijn'] is True
    assert record['linear_complexity'] == 4
    assert record['minimal_polynomial'] == 'x^4+x+1'
    assert record['span_form'] is None
    assert record['ok'] is True


def test_verify_sequence_failures(capsys):
    assert cli.main(['verify', '--sequence', '01x1']) == 2
    assert cli.main(['verify', '--sequence', '10100']) == 2
    capsys.readouterr()
    assert cli.main(['verify', '--sequence', '111']) == 4
    assert cli.main(['verify', '--sequence', '10100', '--n', '3']) == 4


def _order_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: order n must be an integer >= 2\n'


@pytest.mark.parametrize('argv', ['--sequence 011 --n 1',
                                  '--sequence 0110 --n 0',
                                  '--sequence 0110 --n -1',
                                  '--sequence 0',
                                  '--cycle 1,2,3 --n 0',
                                  '--cycle 1'])
def test_verify_order_below_2_is_a_usage_error(capsys, argv):
    # Whatever the period or length, an order below 2, given or
    # inferred, is refused as every other subcommand refuses it.
    _order_usage_error(capsys, ['verify'] + argv.split())


@pytest.mark.parametrize('argv', ['--cycle 1,2,3 --n 1',
                                  '--sequence 011 --n -1',
                                  '--sequence 0'])
def test_minpoly_order_below_2_is_a_usage_error(capsys, argv):
    _order_usage_error(capsys, ['minpoly'] + argv.split())


@pytest.mark.parametrize('sequence', ['10100', '101000', '101000000'])
def test_verify_sequence_of_no_window_period_needs_n(capsys, sequence):
    # Periods 5, 6 and 9 are neither 2^n - 1 nor 2^n.
    assert cli.main(['verify', '--sequence', sequence]) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: cannot infer the order; pass --n\n'


@pytest.mark.parametrize('sequence', ['0010111', '00010111'])
def test_verify_sequence_infers_order_from_period(capsys, sequence):
    assert cli.main(['verify', '--sequence', sequence,
                     '--format', 'jsonl']) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record['n'], record['period'], record['ok']) \
        == (3, len(sequence), True)


def test_tables_span_support(capsys):
    assert cli.main(['tables', '--n', '4', '--which', '1']) == 0
    assert capsys.readouterr().out == '4,12,14\n'


def test_tables_max_span_generators(capsys):
    assert cli.main(['tables', '--n', '4', '--which', '2']) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 10
    assert rows == sorted(rows)
    assert {g for g, _ in rows} == TABLE2_GENERATORS
    for _, sequence in rows:
        assert seqkit.is_modified_de_bruijn(
            seqkit.parse_sequence(sequence), 4)


def test_tables_greedy_walks(capsys):
    assert cli.main(['tables', '--n', '4', '--which', '3']) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows == [
        ['complement', '1 8 15', '1 13 5 10 11 9 2 4 7 14 3 6 12 8 15'],
        ['complement', '3 14', '3 9 13 5 10 11 6 12 7 1 2 4 8 15 14'],
        ['complement', '7 12', '7 1 13 5 10 11 9 2 4 8 15 14 3 6 12'],
        ['double', '5 10', '5 10 4 8 15 14 12 7 1 2 11 6 3 9 13'],
    ]


def test_tables_greedy_walks_each_initial_vertex_once(capsys, monkeypatch):
    calls = []
    for name in ('prefer_complement', 'modified_prefer_double'):
        walker = getattr(greedy, name)
        monkeypatch.setattr(
            greedy, name,
            lambda n, v, walker=walker: calls.append(v) or walker(n, v))
    assert cli.main(['tables', '--n', '5', '--which', '3']) == 0
    capsys.readouterr()
    assert sorted(calls) == sorted(2 * list(range(1, 32)))


def test_tables_joined_cycles(capsys):
    assert cli.main(['tables', '--n', '4', '--which', '4']) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[-1] == ['distinct', '8']
    trees = rows[:-1]
    assert len(trees) == 8
    by_pairs = {frozenset((int(r), int(s)) for r, s
                          in re.findall(r'\((\d+),(\d+)\)', row[0])): row
                for row in trees}
    pick = by_pairs[frozenset({(11, 4), (7, 8)})]
    assert pick[1] == '6 3 9 13 5 10 4 8 15 14 12 7 1 2 11'
    assert pick[3] == 'x^4+x+1'
    assert cli.main(['tables', '--n', '5', '--which', '4']) == 2


@pytest.mark.parametrize('argv', [
    'greedy --n 100 --v-init 1', 'greedy --n 100 --all', 'decompose --n 100',
    'join --n 100'])
def test_order_too_large_to_index_exits_2(capsys, argv):
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('error: order 100 is too large')
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize('argv', [
    'greedy --n 0 --all', 'greedy --n -1 --all',
    'tables --n 0 --which 3', 'tables --n -1 --which 3'])
def test_sweep_checks_the_order_first(capsys, argv):
    # Both sweeps loop over range(1, 2^n), which is empty at n = 0.
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: order n must be an integer >= 2\n'


def _loaded_after(code):
    """The mdbs modules, and json and csv if loaded, after a fresh code run.

    The process prints them as its last stderr line, after code's output.
    """
    env = dict(os.environ)
    env['PYTHONPATH'] = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code += ('\nimport sys; print(" ".join(sorted(m for m in sys.modules '
             'if m in ("json", "csv") or m.split(".")[0] == "mdbs")), '
             'file=sys.stderr)')
    proc = subprocess.run([sys.executable, '-c', code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stderr.splitlines()[-1].split()


@pytest.mark.parametrize('module, loaded', [
    ('gf2poly', {'gf2poly'}),
    ('seqkit', {'seqkit', 'gf2poly'}),
    ('gamma', {'gamma', 'seqkit', 'gf2poly'}),
    ('cli', {'cli'})])
def test_import_loads_only_what_the_module_imports(module, loaded):
    assert _loaded_after(f'import mdbs.{module}') == sorted(
        {'mdbs'} | {f'mdbs.{m}' for m in loaded})


@pytest.mark.parametrize('argv, loaded', [
    (['--help'], {'cli'}),
    (['tables', '--n', '4', '--which', '99'], {'cli'}),
    (['verify', '--sequence', DE_BRUIJN_16], {'cli', 'gf2poly', 'seqkit'}),
    (['decompose', '--n', '4', '--seed', '1'],
     {'cli', 'gamma', 'gf2poly', 'greedy', 'seqkit', 'json'}),
    # Every table loads the modules of all four tables.
    (['tables', '--n', '4', '--which', '1'],
     {'cli', 'canonical', 'gamma', 'gf2poly', 'greedy', 'joiner', 'seqkit',
      'csv'})])
def test_subcommand_loads_only_what_it_runs(argv, loaded):
    code = f'from mdbs import cli; cli.main({argv!r})'
    assert _loaded_after(code) == sorted(
        {'mdbs'} | {m if m in ('json', 'csv') else f'mdbs.{m}'
                    for m in loaded})


def test_package_attribute_loads_its_submodule():
    assert _loaded_after('import mdbs') == ['mdbs']
    assert _loaded_after(
        'import mdbs, sys; assert mdbs.joiner is sys.modules["mdbs.joiner"]'
    ) == ['mdbs', 'mdbs.gamma', 'mdbs.gf2poly', 'mdbs.joiner', 'mdbs.seqkit']
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        mdbs.nope


def test_memory_error_exits_2(capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError
    monkeypatch.setitem(cli._HANDLERS, 'decompose', exhausted)
    assert cli.main(['decompose', '--n', '40']) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == ('error: order 40 is too large to index '
                            '(MemoryError)\n')


@pytest.mark.parametrize('module, name, broken, argv', [
    # Labels of odd weight have no quotient by x + 1.
    (canonical, 'shift', lambda s, k: seqkit.BitSequence(1, s.period),
     ['minpoly', '--n', '4', '--cycle', FINAL_CYCLE]),
    # A gcd that does not divide F.
    (gf2poly, 'gcd', lambda a, b: 2,
     ['minpoly', '--n', '4', '--cycle', FINAL_CYCLE]),
    # A greedy sweep whose cycles never grow cannot close.
    (greedy, '_grow', lambda *args, **kwargs: None, ['decompose', '--n', '4']),
], ids=['odd-weight-labels', 'gcd-not-dividing-F', 'unclosed-greedy-cycle'])
def test_internal_error_exits_4(capsys, monkeypatch, module, name, broken,
                                argv):
    monkeypatch.setattr(module, name, broken)
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('error: internal error: ')
    assert len(captured.err.splitlines()) == 1
    assert 'Traceback' not in captured.err


def test_run_accepts_config_directly(capsys):
    config = argparse.Namespace(command='tables', n=4, which=1,
                                override_guard=False)
    assert cli.run(config) == 0
    assert capsys.readouterr().out == '4,12,14\n'


def test_identical_configs_are_byte_identical(capsys):
    for argv in (['join', '--n', '4', '--order', '6,4,14'],
                 ['enumerate', '--n', '4', '--limit', '5'],
                 ['tables', '--n', '4', '--which', '2']):
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        assert first
