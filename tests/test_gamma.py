"""Unit tests for the doubling/complement digraph and its cycles."""

import copy
import itertools
import pickle
import random

import pytest

import _reference as ref
from mdbs import gamma, gf2poly, seqkit
from mdbs.gamma import HamCycle


def test_successors_known_values():
    assert gamma.successors(9, 4) == (2, 13)
    assert gamma.successors(8, 4) == (0, 15)
    assert gamma.successors(5, 4) == (10, 5)
    assert gamma.successors(5, 3) == (2, 5)
    assert gamma.successors(7, 3) == (6, 1)


def test_successors_rejects_out_of_range():
    with pytest.raises(ValueError):
        gamma.successors(0, 4)
    with pytest.raises(ValueError):
        gamma.successors(16, 4)


def test_arc_counts():
    assert sum(1 for _ in gamma.arcs(4)) == 29 == 2 * 15 - 1
    assert sum(1 for _ in gamma.arcs(3)) == 13 == 2 * 7 - 1
    with pytest.raises(ValueError):
        list(gamma.arcs(2))
    with pytest.raises(ValueError):
        gamma.loop_vertex(2)


def test_every_order_has_exactly_one_self_loop():
    for n, vertex in ((3, 5), (4, 5), (5, 21), (6, 21), (7, 85)):
        assert gamma.loop_vertex(n) == vertex
    # The closed form against a scan of every arc.
    for n in range(3, 17):
        loops = [a for a, b, _ in gamma.arcs(n) if a == b]
        assert loops == [gamma.loop_vertex(n)]
        d, c = gamma.successors(loops[0], n)
        assert c == loops[0] and d != loops[0]


def test_arc_label_is_low_bit_of_target():
    for n in range(3, 11):
        mask = (1 << n) - 1
        for a in range(1, mask + 1):
            d, c = gamma.successors(a, n)
            assert gamma._targets(a, mask) == (d, c)
        assert all(label == b & 1 for _, b, label in gamma.arcs(n))
        assert list(gamma.arcs(n)) == [
            (a, b, label) for a in range(1, mask + 1)
            for label, b in enumerate(gamma.successors(a, n))
            if b]


def test_degree_profile():
    for n in range(3, 13):
        vertices = range(1, 1 << n)
        out = {v: 0 for v in vertices}
        indeg = {v: 0 for v in vertices}
        for a, b, _ in gamma.arcs(n):
            out[a] += 1
            indeg[b] += 1
        size = (1 << n) - 1
        half = 1 << (n - 1)
        for v in vertices:
            assert out[v] == (1 if v == half else 2)
            assert indeg[v] == (1 if v == size else 2)


def test_all_ones_vertex_reached_only_from_half():
    for n in (3, 4, 5, 6):
        size = (1 << n) - 1
        sources = [a for a, b, _ in gamma.arcs(n) if b == size]
        assert sources == [1 << (n - 1)]


def test_ham_cycle_validation():
    verts = (1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15)
    cycle = HamCycle(verts, 4)
    assert cycle.vertices == verts
    with pytest.raises(ValueError):
        HamCycle(verts[:-1], 4)
    with pytest.raises(ValueError):
        HamCycle(verts[:-1] + (1,), 4)
    swapped = list(verts)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    with pytest.raises(ValueError):
        HamCycle(swapped, 4)


# The first failure of each kind, with n = 4, as the per-vertex
# validation worded it: (vertices, exact ValueError text).
FINAL = (1, 2, 11, 9, 13, 5, 10, 4, 7, 14, 3, 6, 12, 8, 15)
CLOSED_WITH_0 = (1, 2, 11, 6, 3, 9, 13, 10, 4, 8, 0, 15, 14, 12, 7)
HAM_CYCLE_ERRORS = {
    'short': (FINAL[:-1], 'cycle length 14 != 15 for order 4'),
    'repeated': (FINAL[:-1] + (1,), 'cycle vertices are not distinct'),
    'vertex_0': ((0,) + FINAL[1:], 'vertex 0 outside 1..15'),
    'vertex_16': ((16,) + FINAL[1:], 'vertex 16 outside 1..15'),
    'text': (('1',) + FINAL[1:], "vertex '1' outside 1..15"),
    'float': ((1.0,) + FINAL[1:], 'vertex 1.0 outside 1..15'),
    # set() would raise TypeError on these, so distinctness waits.
    'unhashable': (([1],) + FINAL[1:], 'vertex [1] outside 1..15'),
    'text_and_repeat': (('1',) + FINAL[1:-1] + (2,),
                        "vertex '1' outside 1..15"),
    'inner_arc': (FINAL[:3] + (FINAL[4], FINAL[3]) + FINAL[5:],
                  '(11, 13) is not an arc at order 4'),
    'arc_before_vertex': (FINAL[:3] + (FINAL[4], FINAL[3]) + FINAL[5:7]
                          + (0,) + FINAL[8:],
                          '(11, 13) is not an arc at order 4'),
    'vertex_0_as_target': ((FINAL[0], 0) + FINAL[2:3] + (FINAL[4], FINAL[3])
                           + FINAL[5:], '(1, 0) is not an arc at order 4'),
    # A closed walk through 0 (8 -> 0 -> 15) that leaves out vertex 5, and
    # the same walk with 16 in place of 0, which agrees with 0 mod 2^4.
    'vertex_0_on_walk': (CLOSED_WITH_0, 'vertex 0 outside 1..15'),
    'vertex_16_on_walk': (tuple(v or 16 for v in CLOSED_WITH_0),
                          '(8, 16) is not an arc at order 4'),
    # 13 -> 11 misses the arc 13 -> 10 in the low bit only.
    'low_bit_arc': ((1, 13, 11, 9, 2) + FINAL[5:],
                    '(13, 11) is not an arc at order 4'),
}


@pytest.mark.parametrize('kind', sorted(HAM_CYCLE_ERRORS))
def test_ham_cycle_error_texts(kind):
    verts, text = HAM_CYCLE_ERRORS[kind]
    with pytest.raises(ValueError) as err:
        HamCycle(verts, 4)
    assert str(err.value) == text


def test_ham_cycle_accepts_bool_vertices():
    assert HamCycle((True,) + FINAL[1:], 4) == HamCycle(FINAL, 4)


@pytest.mark.parametrize('n', (2, 3, 4))
def test_every_hamiltonian_path_closes(n):
    """No input fails on the wrap-around arc alone.

    The targets of a path's last vertex a have the same predecessors: a
    and a ^ 2^(n-1), or a alone when a = 2^(n-1).  On a Hamiltonian path
    a precedes nothing and a ^ 2^(n-1) precedes one vertex, so some
    target of a is the first vertex.  The wrap-around arc is still
    checked, but its error can only follow an earlier one.
    """
    size = (1 << n) - 1
    paths = [[v] for v in range(1, size + 1)]
    while paths and len(paths[0]) < size:
        paths = [p + [b] for p in paths for b in gamma._targets(p[-1], size)
                 if b and b not in p]
    assert paths
    for p in paths:
        assert p[0] in gamma._targets(p[-1], size)
        assert HamCycle(p, n).vertices == tuple(p)


def test_ham_cycle_rotation_invariant_equality():
    verts = (1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15)
    a = HamCycle(verts, 4)
    b = HamCycle(verts[5:] + verts[:5], 4)
    assert a == b
    assert hash(a) == hash(b)
    top = b.vertices.index(15)
    c = HamCycle(b.vertices[top:] + b.vertices[:top], 4)
    assert c.vertices[0] == 15
    assert a == c and hash(a) == hash(c)
    # Rotations of one cycle are equal; the other 15 cycles are not.
    assert sum(d == a for d in gamma.enumerate_hamiltonian(4)) == 1


def test_ham_cycle_rotations_are_one_value():
    for cycle in gamma.enumerate_hamiltonian(4):
        verts = cycle.vertices
        for k in range(len(verts)):
            turned = HamCycle(verts[k:] + verts[:k], 4)
            assert turned == cycle
            assert not turned != cycle
            assert hash(turned) == hash(cycle)
        assert cycle != (verts, 4) and (verts, 4) != cycle


@pytest.mark.parametrize('name', ('vertices', 'n'))
def test_ham_cycle_fields_can_be_neither_set_nor_deleted(name):
    cycle = HamCycle(FINAL, 4)
    with pytest.raises(AttributeError, match='HamCycle is immutable'):
        setattr(cycle, name, getattr(cycle, name))
    with pytest.raises(AttributeError, match='HamCycle is immutable'):
        delattr(cycle, name)
    assert cycle == HamCycle(FINAL, 4)
    assert hash(cycle) == hash(HamCycle(FINAL, 4))


def test_ham_cycle_repr_shows_the_stored_rotation():
    assert repr(HamCycle(FINAL, 4)) == f'HamCycle({FINAL})'


@pytest.mark.parametrize('value', (
    HamCycle(FINAL, 4), gamma.cycle_to_sequence(HamCycle(FINAL, 4))),
    ids=('HamCycle', 'BitSequence'))
def test_pickle_and_copy_keep_the_value(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


def test_walk_of_generator_known_walks():
    walk = ref.ref_walk_of_generator(
        gf2poly.parse('x^10+x^9+x^7+x^5+x^4+1'), 4)
    assert HamCycle(walk, 4) \
        == HamCycle((1, 2, 4, 8, 15, 14, 3, 9, 13, 5, 10, 11, 6, 12, 7), 4)
    walk = ref.ref_walk_of_generator(gf2poly.parse('x^10+x^8+x^5+x+1'), 4)
    assert HamCycle(walk, 4) \
        == HamCycle((1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15), 4)


def test_walk_first_step_is_generator_low_window():
    f4 = gf2poly.build_F(4)
    step0 = ref.ref_divmod(ref.ref_mul(1, 1), f4)[1]
    assert ref.ref_divmod(step0, gf2poly.parse('x^4'))[1] == 1
    walk = ref.ref_walk_of_generator(
        gf2poly.parse('x^10+x^9+x^7+x^5+x^4+1'), 4)
    assert walk[0] == 1


def test_walk_steps_follow_arcs():
    rng = random.Random(301)
    for _ in range(20):
        n = rng.choice((3, 4, 5))
        g = rng.randrange(1, 1 << ((1 << n) - 2))
        try:
            walk = ref.ref_walk_of_generator(g, n)
        except ValueError:
            continue
        assert len(walk) == (1 << n) - 1
        for i, a in enumerate(walk):
            b = walk[(i + 1) % len(walk)]
            assert b in gamma.successors(a, n)


def test_walk_of_generator_rejects_zero_window():
    with pytest.raises(ValueError):
        ref.ref_walk_of_generator(gf2poly.parse('x^4'), 4)
    with pytest.raises(ValueError):
        ref.ref_walk_of_generator(1, 4)
    with pytest.raises(ValueError):
        ref.ref_walk_of_generator(0, 4)


def test_cycle_to_sequence_known_rows():
    cycle = HamCycle((6, 3, 9, 2, 4, 8, 15, 14, 12, 7, 1, 13, 5, 10, 11), 4)
    assert gamma.cycle_to_sequence(cycle).to_text() == '110001001111010'
    cycle = HamCycle((1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15), 4)
    assert ref.same_cycle(
        gamma.cycle_to_sequence(cycle),
        seqkit.parse_sequence('000111101100101'))


def test_cycle_sequences_are_window_complete():
    for cycle in gamma.enumerate_hamiltonian(4):
        s = gamma.cycle_to_sequence(cycle)
        assert seqkit.is_modified_de_bruijn(s, 4)


def test_cycle_from_sequence_roundtrip():
    for cycle in gamma.enumerate_hamiltonian(4):
        s = gamma.cycle_to_sequence(cycle)
        assert gamma.cycle_from_sequence(s, 4) == cycle
    rng = random.Random(302)
    cycles5 = list(itertools.islice(gamma.enumerate_hamiltonian(5), 64))
    for cycle in rng.sample(cycles5, 16):
        s = gamma.cycle_to_sequence(cycle)
        back = gamma.cycle_from_sequence(s, 5)
        assert back == cycle
        assert gamma.cycle_to_sequence(back) == s


def test_cycle_from_sequence_rejects_bad_period():
    with pytest.raises(ValueError):
        gamma.cycle_from_sequence(seqkit.parse_sequence('101'), 4)


def test_enumeration_small_orders():
    got3 = list(gamma.enumerate_hamiltonian(3))
    assert [c.vertices for c in got3] \
        == [(7, 6, 3, 1, 5, 2, 4), (7, 1, 5, 2, 3, 6, 4)]
    got4 = list(gamma.enumerate_hamiltonian(4))
    assert len(got4) == 16
    assert len(set(got4)) == 16
    assert all(c.vertices[0] == 15 for c in got4)


def test_enumeration_is_deterministic():
    first = [c.vertices for c in gamma.enumerate_hamiltonian(4)]
    second = [c.vertices for c in gamma.enumerate_hamiltonian(4)]
    assert first == second


def test_enumeration_limit():
    got = list(itertools.islice(gamma.enumerate_hamiltonian(5), 10))
    assert len(got) == 10
    assert got == list(itertools.islice(gamma.enumerate_hamiltonian(5), 10))


@pytest.mark.parametrize('n', [3, 4, 5])
def test_enumeration_matches_reference_search(n):
    cycles = list(gamma.enumerate_hamiltonian(n))
    got = [c.vertices for c in cycles]
    assert got == list(ref.ref_hamiltonian_cycles(n))
    # de Bruijn's count of the cycles: 2^(2^(n-1) - n).
    assert len(got) == 1 << ((1 << (n - 1)) - n)
    # Double (label 0) before complement (label 1): the labels read from
    # the all-ones vertex rise strictly along the stream.
    labels = [gamma.cycle_to_sequence(c).value for c in cycles]
    assert all(a < b for a, b in zip(labels, labels[1:]))


@pytest.mark.parametrize('limit', [0, 1, 2, 7, 100, 2048, 5000])
def test_enumeration_limit_is_a_prefix_of_the_reference(limit):
    got = [c.vertices
           for c in itertools.islice(gamma.enumerate_hamiltonian(5), limit)]
    assert got == list(itertools.islice(ref.ref_hamiltonian_cycles(5),
                                        limit))


def test_pruned_search_matches_the_reference_at_order_6():
    # The last-exit rule skips most dead branches; the first 5,000
    # cycles of order 6 still come in the unpruned search's order.
    got = [verts for verts, _ in
           itertools.islice(gamma._hamiltonian_dfs(6), 5000)]
    assert got == list(itertools.islice(ref.ref_hamiltonian_cycles(6), 5000))


@pytest.mark.parametrize('n', [3, 4, 5])
def test_search_labels_are_the_cycle_sequences(n):
    for verts, labels in gamma._hamiltonian_dfs(n):
        assert labels == gamma.cycle_to_sequence(HamCycle(verts, n)).value


def test_enumeration_depth_is_not_bounded_by_recursion():
    # A cycle at order 10 is 1023 vertices deep in the search.
    cycle = next(gamma.enumerate_hamiltonian(10))
    assert len(cycle.vertices) == 1023
    assert cycle.vertices[0] == 1023


def test_dot_export_content():
    text = gamma.dot_export(4)
    assert text.startswith('digraph gamma_4 {')
    assert '  8 -> 15 [label="1", color="red"];' in text
    assert '  9 -> 2 [label="0", color="blue"];' in text
    assert 'bold' not in text
    assert text.rstrip().endswith('}')


def test_dot_export_highlight():
    cycle = HamCycle((1, 13, 5, 10, 11, 9, 2, 4, 7, 14, 3, 6, 12, 8, 15), 4)
    text = gamma.dot_export(4, highlight=cycle.vertices)
    assert text.count('style="bold"') == 15


def test_walk_matches_series_expansion_reversal():
    g = gf2poly.parse('x^10+x^8+x^5+x+1')
    cycle = HamCycle(ref.ref_walk_of_generator(g, 4), 4)
    arcs = gamma.cycle_to_sequence(cycle)
    series = seqkit.BitSequence(
        gf2poly.expand_series(g, gf2poly.build_F(4), 15), 15)
    assert ref.same_cycle(
        arcs, seqkit.parse_sequence(series.to_text()[::-1]))
