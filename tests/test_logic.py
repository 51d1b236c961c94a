import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ghzgames.logic import (
    Hypergraph,
    PartitionLogic,
    enumerate_states,
    from_json,
    ghz_isolated_logic,
    is_separating,
    partition_logic,
    tightened_ghz_logic,
    tightened_partition_logic,
    to_dot,
)


def test_isolated_logic_partitions_into_eight_blocks_of_512():
    h = ghz_isolated_logic()
    states = enumerate_states(h)
    pl = partition_logic(h, states)
    assert pl.state_count == 4096
    for ctx in pl.contexts:
        assert len(ctx) == 8
        assert all(len(block) == 512 for block in ctx)


def _block_name(block):
    return "".join(str(x) for x in sorted(block))


def test_tightened_logic_structure(tightened_partitions):
    h = tightened_ghz_logic()
    assert len(h.atoms) == 16
    assert len(h.contexts) == 12
    assert all(len(c) == 4 for c in h.contexts)
    # the eight published partitions come first, verbatim
    for k, part in enumerate(tightened_partitions):
        assert [h.atoms[a] for a in h.contexts[k]] == [_block_name(b) for b in part]
    # every atom sits in one row, one column and one diagonal context
    for a in range(16):
        assert sum(1 for c in h.contexts if a in c) == 3


def test_tightened_vertical_contexts_are_grid_columns(tightened_partitions):
    h = tightened_ghz_logic()
    for j in range(4):
        names = {h.atoms[a] for a in h.contexts[8 + j]}
        assert names == {_block_name(tightened_partitions[i][j]) for i in range(4)}
        covered = sorted(x for name in names for x in (int(name[0]), int(name[1])))
        assert covered == list(range(1, 9))


def test_tightened_contexts_form_three_parallel_classes():
    # rows, diagonals and columns: within a class the contexts are pairwise
    # disjoint and cover all 16 atoms; across classes two contexts meet once
    h = tightened_ghz_logic()
    classes = [[set(c) for c in h.contexts[k : k + 4]] for k in (0, 4, 8)]
    for cls in classes:
        assert set().union(*cls) == set(range(16))
        assert all(not a & b for a, b in itertools.combinations(cls, 2))
    for first, second in itertools.combinations(classes, 2):
        assert all(len(a & b) == 1 for a in first for b in second)


def test_published_partitions_alone_admit_24_states():
    # without the vertical contexts the admissible states are the perfect
    # matchings of the 16 blocks, of which there are 24, not 8
    h12 = tightened_ghz_logic()
    h8 = Hypergraph(atoms=h12.atoms, contexts=h12.contexts[:8])
    assert len(enumerate_states(h8)) == 24


def test_tightened_partition_extraction_matches_published_logic():
    # ball k is the k-th two-valued state in descending order, the published
    # numbering: the first eight contexts are the table block for block
    h = tightened_ghz_logic()
    pl = partition_logic(h, enumerate_states(h))
    reference = tightened_partition_logic()
    assert pl.labels == reference.labels
    assert pl.contexts[:8] == reference.contexts
    assert partition_logic(h, enumerate_states(h)[::-1]) == pl


def test_tightened_partition_logic_is_the_published_table(tightened_partitions):
    pl = tightened_partition_logic()
    assert pl.contexts == tuple(tuple(frozenset(b) for b in part) for part in tightened_partitions)
    labels = dict(zip(pl.hypergraph.atoms, pl.labels))
    assert labels == {_block_name(b): frozenset(b) for part in tightened_partitions for b in part}


def test_published_partition_logic_shape():
    pl = tightened_partition_logic()
    assert pl.state_count == 8
    assert len(pl.contexts) == 8
    full = frozenset(range(1, 9))
    for ctx in pl.contexts:
        assert frozenset().union(*ctx) == full
        assert sum(len(b) for b in ctx) == 8


def test_enumerate_single_context():
    h = Hypergraph(atoms=tuple("abcdefgh"), contexts=((0, 1, 2, 3, 4, 5, 6, 7),))
    states = enumerate_states(h)
    assert len(states) == 8
    assert all(sum(s) == 1 for s in states)


def _recursive_enumerate(h):
    """Reference: a recursive backtracker over -1/0/1 values, independent of the exact cover."""
    values = [-1] * len(h.atoms)
    found = []

    def fill(ci):
        if ci == len(h.contexts):
            found.append(tuple(values))
            return
        ctx = h.contexts[ci]
        ones = [a for a in ctx if values[a] == 1]
        if len(ones) > 1:
            return
        pending = [a for a in ctx if values[a] == -1]
        for pick in [None] if ones else pending:
            for a in pending:
                values[a] = 1 if a == pick else 0
            fill(ci + 1)
            for a in pending:
                values[a] = -1

    fill(0)
    return sorted(found)


@pytest.mark.parametrize("make", [ghz_isolated_logic, tightened_ghz_logic])
def test_enumerate_matches_the_recursive_search(make):
    h = make()
    assert enumerate_states(h) == _recursive_enumerate(h)


def test_enumerate_long_chain_under_the_default_recursion_limit():
    # 5000 two-atom contexts, each sharing an atom with the next: the two
    # alternating valuations, far deeper than the interpreter's default limit
    h = Hypergraph(atoms=tuple(f"a{i}" for i in range(5001)), contexts=tuple((i, i + 1) for i in range(5000)))
    assert enumerate_states(h) == [(0, 1) * 2500 + (0,), (1, 0) * 2500 + (1,)]


def test_enumerate_dead_end_logic():
    # the singleton contexts force both atoms to 1, violating the pair context
    h = Hypergraph(atoms=("a", "b"), contexts=((0, 1), (0,), (1,)))
    assert enumerate_states(h) == []


def test_is_separating_counterexample():
    h = Hypergraph(atoms=("a", "b", "c"), contexts=((0, 1, 2),))
    states = [(1, 0, 0)]
    assert not is_separating(h, states)
    with pytest.raises(ValueError):
        is_separating(h, [])


def test_partition_logic_singletons():
    h = Hypergraph(atoms=("a", "b", "c"), contexts=((0, 1, 2),))
    states = enumerate_states(h)
    pl = partition_logic(h, states)
    assert pl.state_count == 3
    assert sorted(pl.contexts[0], key=min) == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_partition_logic_rejects_non_separating_states():
    h = Hypergraph(atoms=("a", "b", "c"), contexts=((0, 1, 2),))
    with pytest.raises(ValueError, match="atom labels collide"):
        partition_logic(h, [(1, 0, 0)])


def test_partition_logic_rejects_states_that_are_not_two_valued():
    # separating, but ball 1 lies in the blocks of both a and b
    h = Hypergraph(atoms=("a", "b", "c"), contexts=((0, 1, 2),))
    with pytest.raises(ValueError, match="context 0 has overlapping blocks"):
        partition_logic(h, [(1, 1, 0), (0, 0, 1), (1, 0, 0)])


# the labels of a malformed partition logic's context 1, whose atoms a2, a3, ...
# follow a0 = {1} and a1 = {2, 3} of context 0 (``...`` is an atom given no
# label), and the one-line ValueError
MALFORMED_PARTITIONS = {
    "overlapping blocks": ([{1, 2}, {1, 3}], "context 1 has overlapping blocks"),
    "no block holds ball 3": ([{1, 2}], "context 1: no block holds ball 3"),
    "ball outside 1..n": ([{1, 2}, {3, 4}], "atom 'a3' holds ball 4, which is not an integer in 1..3"),
    "non-integer ball": ([{1, 2}, {3}, {"x"}], "atom 'a4' holds ball 'x', which is not an integer in 1..3"),
    # a set reads each of these as ball 1
    "bool ball": ([{True, 3}, {2}], "atom 'a2' holds ball True, which is not an integer in 1..3"),
    "float ball": ([{1.0, 3}, {2}], "atom 'a2' holds ball 1.0, which is not an integer in 1..3"),
    "numpy ball": ([{np.int64(1), 3}, {2}], f"atom 'a2' holds ball {np.int64(1)!r}, which is not an integer in 1..3"),
    "colliding labels": ([{1}, {2, 3}], "atom labels collide: two atoms hold the same balls"),
    "non-iterable label": ([{1, 2}, 3], "labels must be iterables of balls: 'int' object is not iterable"),
    "missing label": ([{1, 2}, {3}, ...], "need one label per atom (5), got 4"),
}


@pytest.mark.parametrize("case", list(MALFORMED_PARTITIONS))
def test_partition_logic_names_a_malformed_partition(case):
    blocks, message = MALFORMED_PARTITIONS[case]
    labels = [{1}, {2, 3}, *blocks]
    h = Hypergraph(atoms=tuple(f"a{i}" for i in range(len(labels))), contexts=[(0, 1), range(2, len(labels))])
    with pytest.raises(ValueError) as exc:
        PartitionLogic(hypergraph=h, labels=[b for b in labels if b is not ...], state_count=3)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "hypergraph", [("a",), None, {"atoms": ("a",), "contexts": [(0,)]}], ids=["tuple", "None", "dict"]
)
def test_partition_logic_needs_a_hypergraph(hypergraph):
    with pytest.raises(ValueError) as exc:
        PartitionLogic(hypergraph, [{1}], 1)
    assert str(exc.value) == f"a partition logic needs a Hypergraph, got {type(hypergraph).__name__}"


def test_partition_logic_stores_an_integer_ball_count_as_plain_int():
    h = Hypergraph(atoms=("a", "b"), contexts=((0, 1),))
    pl = PartitionLogic(hypergraph=h, labels=[[1], (2, 3)], state_count=np.int64(3))
    assert pl.state_count == 3 and type(pl.state_count) is int
    assert pl.labels == (frozenset({1}), frozenset({2, 3}))


@pytest.mark.parametrize("check", [is_separating, partition_logic])
def test_states_must_have_one_value_per_atom(check):
    # too short: neither True nor an IndexError; too long: not silently cut
    with pytest.raises(ValueError, match=r"one value per atom \(16\)"):
        check(tightened_ghz_logic(), [(1, 0)])
    pair = Hypergraph(atoms=("a", "b"), contexts=((0, 1),))
    with pytest.raises(ValueError, match=r"one value per atom \(2\)"):
        check(pair, [(1, 0, 0), (0, 1, 1)])


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json("{not json")
    with pytest.raises(ValueError):
        from_json('{"atoms": ["a"]}')
    with pytest.raises(ValueError):
        from_json('{"atoms": [1], "contexts": [[0]]}')


JSON_SHAPE = re.escape('hypergraph JSON must be {"atoms": [...], "contexts": [[...], ...]}')


def test_from_json_rejects_non_list_atoms():
    # a string is iterable, so "abc" used to be read as three atoms
    with pytest.raises(ValueError, match=JSON_SHAPE):
        from_json('{"atoms": "abc", "contexts": [[0, 1, 2]]}')


@pytest.mark.parametrize(
    "contexts", ['"01"', "[0, 1]", '[[0], "1"]', '{"0": [0, 1]}'], ids=["string", "ints", "a string", "object"]
)
def test_from_json_rejects_contexts_that_are_not_lists_of_lists(contexts):
    with pytest.raises(ValueError, match=JSON_SHAPE):
        from_json(f'{{"atoms": ["a", "b"], "contexts": {contexts}}}')


def test_from_json_rejects_bool_atom_indices():
    with pytest.raises(ValueError, match="context 0 holds index True, which is not an integer"):
        from_json('{"atoms": ["a", "b"], "contexts": [[true, false]]}')


def test_dot_export_of_the_built_in_logics_is_pinned():
    # the tightened logic's DOT is pinned as the stdout of `export tightened --format dot`
    digest = hashlib.sha256(to_dot(ghz_isolated_logic()).encode()).hexdigest()
    assert digest == "e697710f28347c809dffb68dfcbcf14abc4469d6fc583e44488b20faf9a79b29"


def test_dot_export_escapes_quotes_and_backslashes_in_labels():
    h = from_json(json.dumps({"atoms": ['a"b', "a\\b"], "contexts": [[0, 1]]}))
    lines = to_dot(h).splitlines()
    assert lines[2:4] == ['  n0 [label="a\\"b"];', '  n1 [label="a\\\\b"];']


# a malformed hypergraph's atoms and contexts, and its one-line ValueError: an
# index's type is checked before any repeat or range check can misread it
MALFORMED_HYPERGRAPHS = {
    "bool index": (("a", "b"), ((1, True),), "context 0 holds index True, which is not an integer"),
    "float index": (("a", "b"), ((0, 1), (0, 1.0)), "context 1 holds index 1.0, which is not an integer"),
    "str index": (("a", "b"), ((0, "1"),), "context 0 holds index '1', which is not an integer"),
    "index one past the end": (("a", "b"), ((0, 1, 2),), "atom index 2 out of range"),
    "repeated index": (("a", "b"), ((0, 1, 1),), "context (0, 1, 1) lists an atom twice"),
    "int context": (("a",), (5,), "contexts must be iterables of atom indices: 'int' object is not iterable"),
    "int atom": (("a", 1), ((0, 1),), "atom 1 is 1, not a string"),
    "unhashable atom": (("a", ["b"]), ((0, 1),), "atom 1 is ['b'], not a string"),
}


@pytest.mark.parametrize("case", list(MALFORMED_HYPERGRAPHS))
def test_hypergraph_names_a_malformed_atom_or_index(case):
    atoms, contexts, message = MALFORMED_HYPERGRAPHS[case]
    with pytest.raises(ValueError) as exc:
        Hypergraph(atoms=atoms, contexts=contexts)
    assert str(exc.value) == message


def test_hypergraph_stores_numpy_indices_as_plain_ints():
    h = Hypergraph(atoms=("a", "b", "c"), contexts=[np.array([0, 1]), (np.int32(2), np.uint8(1))])
    assert h == Hypergraph(atoms=("a", "b", "c"), contexts=((0, 1), (2, 1)))
    assert all(type(i) is int for ctx in h.contexts for i in ctx)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(atoms=("a", "a"), contexts=((0, 1),))
    with pytest.raises(ValueError):
        Hypergraph(atoms=("a", "b"), contexts=((0, 0),))
    with pytest.raises(ValueError):
        Hypergraph(atoms=("a", "b"), contexts=((0, 5),))
    with pytest.raises(ValueError):
        Hypergraph(atoms=("a", "b"), contexts=((0,),))


def test_logic_imports_without_numpy():
    # states, partition and export need only this module, so their commands
    # can skip numpy's import once the CLI imports it lazily
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, ghzgames.logic; print('numpy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")
