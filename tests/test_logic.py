import hashlib
import json

import pytest

from ghzgames import logic
from ghzgames.logic import (
    Hypergraph,
    TIGHTENED_PARTITIONS,
    enumerate_states,
    export,
    from_json,
    ghz_isolated_logic,
    is_separating,
    partition_logic,
    states_to_json,
    tightened_ghz_logic,
    tightened_partition_logic,
    to_json,
)


def admissible(h, state):
    """Exclusivity and completeness: exactly one 1 in every context."""
    return all(sum(state[a] for a in ctx) == 1 for ctx in h.contexts)


def test_isolated_logic_structure():
    h = ghz_isolated_logic()
    assert len(h.atoms) == 32
    assert len(h.contexts) == 4
    assert all(len(c) == 8 for c in h.contexts)
    first_context_atoms = {h.atoms[a] for a in h.contexts[0]}
    assert "x+x-x-" in first_context_atoms
    assert "x+y-y+" in {h.atoms[a] for a in h.contexts[1]}


def test_isolated_logic_state_count_and_separability():
    h = ghz_isolated_logic()
    states = enumerate_states(h)
    assert len(states) == 8**4
    assert is_separating(h, states)
    assert all(admissible(h, s) for s in states[:100])
    assert all(admissible(h, s) for s in states[-100:])


def test_isolated_logic_partitions_into_eight_blocks_of_512():
    h = ghz_isolated_logic()
    states = enumerate_states(h)
    pl = partition_logic(h, states)
    assert pl.state_count == 4096
    for ctx in pl.contexts:
        assert len(ctx) == 8
        assert all(len(block) == 512 for block in ctx)


def test_tightened_logic_structure():
    h = tightened_ghz_logic()
    assert len(h.atoms) == 16
    assert len(h.contexts) == 12
    assert all(len(c) == 4 for c in h.contexts)
    # the eight published partitions come first, verbatim
    for k, part in enumerate(TIGHTENED_PARTITIONS):
        names = ["".join(str(x) for x in sorted(b)) for b in part]
        assert [h.atoms[a] for a in h.contexts[k]] == names
    # every atom sits in one row, one column and one diagonal context
    for a in range(16):
        assert sum(1 for c in h.contexts if a in c) == 3


def test_tightened_vertical_contexts_are_grid_columns():
    h = tightened_ghz_logic()
    for j in range(4):
        names = {h.atoms[a] for a in h.contexts[8 + j]}
        expected = {
            "".join(str(x) for x in sorted(TIGHTENED_PARTITIONS[i][j])) for i in range(4)
        }
        assert names == expected
        covered = sorted(x for name in names for x in (int(name[0]), int(name[1])))
        assert covered == list(range(1, 9))


def test_tightened_logic_has_exactly_eight_states():
    h = tightened_ghz_logic()
    states = enumerate_states(h)
    assert len(states) == 8
    assert is_separating(h, states)
    assert all(admissible(h, s) for s in states)


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
    assert pl.atom_labels == reference.atom_labels
    assert pl.contexts[:8] == reference.contexts
    assert partition_logic(h, enumerate_states(h)[::-1]) == pl


def test_tightened_partition_logic_is_the_published_table():
    pl = tightened_partition_logic()
    assert pl.contexts == tuple(tuple(frozenset(b) for b in part) for part in TIGHTENED_PARTITIONS)
    assert pl.atom_labels == {
        "".join(str(x) for x in sorted(b)): frozenset(b) for part in TIGHTENED_PARTITIONS for b in part
    }


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


def test_enumerate_is_deterministic_and_sorted():
    h = tightened_ghz_logic()
    first = enumerate_states(h)
    second = enumerate_states(h)
    assert first == second == sorted(first)


def _recursive_enumerate(h):
    """Reference: the recursive backtracker, visiting picks in the same order."""
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
    with pytest.raises(ValueError):
        partition_logic(h, [(1, 0, 0)])


def test_json_round_trip():
    h = tightened_ghz_logic()
    again = from_json(to_json(h))
    assert again == h


def test_json_schema():
    h = ghz_isolated_logic()
    data = json.loads(export(h, "json"))
    assert len(data["atoms"]) == 32
    assert len(data["contexts"]) == 4


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json("{not json")
    with pytest.raises(ValueError):
        from_json('{"atoms": ["a"]}')
    with pytest.raises(ValueError):
        from_json('{"atoms": [1], "contexts": [[0]]}')


def test_from_json_rejects_non_list_atoms():
    # a string is iterable, so "abc" used to be read as three atoms
    with pytest.raises(ValueError, match="list of strings"):
        from_json('{"atoms": "abc", "contexts": [[0, 1, 2]]}')


def test_from_json_rejects_bool_atom_indices():
    with pytest.raises(ValueError, match="atom indices"):
        from_json('{"atoms": ["a", "b"], "contexts": [[true, false]]}')


def test_states_json_round_trip():
    h = tightened_ghz_logic()
    states = enumerate_states(h)
    assert json.loads(states_to_json(states)) == {"states": [list(s) for s in states]}


def test_dot_export():
    text = export(tightened_ghz_logic(), "dot")
    assert text.startswith("graph hypergraph {")
    assert text.count("subgraph") == 12
    assert 'label="12"' in text


def test_dot_export_of_the_built_in_logics_is_pinned():
    for build, digest in (
        (ghz_isolated_logic, "e697710f28347c809dffb68dfcbcf14abc4469d6fc583e44488b20faf9a79b29"),
        (tightened_ghz_logic, "ab29916bc0339183631a12f58ee4c28f1efaae387cc20a4b185d5f2e18e28dba"),
    ):
        assert hashlib.sha256(export(build(), "dot").encode()).hexdigest() == digest


def test_dot_export_escapes_quotes_and_backslashes_in_labels():
    h = from_json(json.dumps({"atoms": ['a"b', "a\\b"], "contexts": [[0, 1]]}))
    lines = export(h, "dot").splitlines()
    assert lines[2:4] == ['  n0 [label="a\\"b"];', '  n1 [label="a\\\\b"];']


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export(tightened_ghz_logic(), "svg")


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(atoms=("a", "a"), contexts=((0, 1),))
    with pytest.raises(ValueError):
        Hypergraph(atoms=("a", "b"), contexts=((0, 0),))
    with pytest.raises(ValueError):
        Hypergraph(atoms=("a", "b"), contexts=((0, 5),))
    with pytest.raises(ValueError):
        Hypergraph(atoms=("a", "b"), contexts=((0,),))
