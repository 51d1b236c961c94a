import argparse
import errno
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghzgames import cli
from ghzgames.cli import build_parser, main
from ghzgames.logic import enumerate_states, tightened_ghz_logic


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_knows_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["states", "tightened", "--list"])
    assert args.command == "states" and args.list
    args = parser.parse_args(["game", "+++-", "quantum", "--rounds", "50", "--seed", "4"])
    assert args.targets == "+++-" and args.rounds == 50 and args.seed == 4
    args = parser.parse_args(["prbox", "+++-", "--flip", "2"])
    assert args.flip == 2


# Every option of every subcommand, -h aside: a new option needs a deliberate
# change here.
OPTIONS = {
    "verify": {"--check"},
    "states": {"--list"},
    "partition": set(),
    "game": {"--rounds", "--seed"},
    "prbox": {"--rounds", "--seed", "--flip"},
    "export": {"--format"},
    "table": set(),
    "entropy": set(),
}


def test_parser_options_are_pinned():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert options == OPTIONS


VERIFY_REPORT = """\
PASS operators: four context operators match their antidiagonal forms
PASS commutation: all six operator pairs commute
PASS product: product of four operators = -I
PASS projectors: all eight spectral projectors idempotent, Hermitian, trace 4
PASS sign-table: sign table reproduced for standard and permuted bases
PASS expansions: expansions of first and last basis states match the references
PASS maximal-operator: context operators are functions of the maximal operator"""


def test_verify_all_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert (code, out) == (0, VERIFY_REPORT + "\n")


def test_verify_reports_every_check_then_fails(capsys, monkeypatch):
    monkeypatch.setitem(cli._CHECK_FUNCTIONS, "commutation", lambda: (False, "forced failure"))
    code, out, _ = run_cli(capsys, "verify")
    lines = out.splitlines()
    assert code == 1
    assert [l.split()[1].rstrip(":") for l in lines] == list(cli.VERIFY_CHECKS)
    assert lines[1] == "FAIL commutation: forced failure"
    assert all(l.startswith("PASS") for l in lines[2:])


SIGN_TABLE_REPORT = """\
state  yyx  yxy  xyy  xxx
    1    -    -    -    +
    2    +    +    +    -
    3    -    +    +    +
    4    +    -    -    -
    5    +    -    +    +
    6    -    +    -    -
    7    +    +    -    +
    8    -    -    +    -"""


def test_verify_single_check_prints_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "sign-table")
    lines = VERIFY_REPORT.splitlines()
    assert (code, out) == (0, f"{lines[4]}\n{SIGN_TABLE_REPORT}\n")


@pytest.mark.parametrize("check", [c for c in cli.VERIFY_CHECKS if c != "sign-table"])
def test_verify_single_check_prints_its_line(capsys, check):
    [line] = [l for l in VERIFY_REPORT.splitlines() if l.split()[1] == f"{check}:"]
    assert run_cli(capsys, "verify", "--check", check) == (0, line + "\n", "")


def _nudged_context_operator(monkeypatch, label):
    """Make ``quantum.context_operator(label)`` return its operator with one entry 1e-12 off."""
    exact = cli.quantum.context_operator

    def nudged(context):
        op = exact(context)
        if context == label:
            op[0, 7] += 1e-12
        return op

    monkeypatch.setattr(cli.quantum, "context_operator", nudged)


def test_verify_operators_rejects_a_perturbed_operator(capsys, monkeypatch):
    _nudged_context_operator(monkeypatch, "xyy")
    code, out, _ = run_cli(capsys, "verify", "--check", "operators")
    assert (code, out) == (1, "FAIL operators: operator xyy deviates from its antidiagonal form\n")


def test_verify_product_names_a_product_that_is_not_minus_identity(capsys, monkeypatch):
    _nudged_context_operator(monkeypatch, "xxx")
    code, out, _ = run_cli(capsys, "verify", "--check", "product")
    assert (code, out) == (1, "FAIL product: product of four operators is not -I\n")


def test_verify_rejects_unknown_check():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--check", "bogus"])
    assert err.value.code == 2


def test_states_isolated_list_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "states", "isolated", "--list")
    assert code == 0
    assert out.count("\n") == 4097
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7eab04f31e33eca3e89c097855b77ccee0303219d16d4bb08afda2e3cb5278de"
    )


def test_states_list_without_states_prints_the_count_only(capsys, tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"atoms": ["a", "b", "c"], "contexts": [[0, 1], [1, 2], [0, 2]]}))
    code, out, _ = run_cli(capsys, "states", str(path), "--list")
    assert (code, out) == (0, "0 states, separating: false\n")


# Exact stdout of `states tightened --list`: one 0/1 row per state, one column
# per atom.
STATES_TIGHTENED_LIST = """\
8 states, separating: true
0001010010000010
0001100000100100
0010010000011000
0010100001000001
0100000100101000
0100001010000001
1000000101000010
1000001000010100
"""


def test_states_tightened_list_is_pinned(capsys):
    assert run_cli(capsys, "states", "tightened", "--list") == (0, STATES_TIGHTENED_LIST, "")


def test_states_list_rows_are_the_enumerated_states(capsys):
    code, out, _ = run_cli(capsys, "states", "tightened", "--list")
    rows = [tuple(int(bit) for bit in line) for line in out.splitlines()[1:]]
    assert code == 0
    assert rows == enumerate_states(tightened_ghz_logic())


def test_states_list_json(capsys, tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"atoms": ["a", "b", "c"], "contexts": [[0, 1, 2]]}))
    code, out, _ = run_cli(capsys, "states", str(path), "--list")
    assert (code, out) == (0, "3 states, separating: true\n001\n010\n100\n")


def test_states_json_round_trip(capsys, tmp_path):
    code, exported, _ = run_cli(capsys, "export", "tightened")
    path = tmp_path / "tightened.json"
    path.write_text(exported)
    code_states, out, _ = run_cli(capsys, "states", str(path), "--list")
    rows = [tuple(int(bit) for bit in line) for line in out.splitlines()[1:]]
    assert (code, code_states) == (0, 0)
    assert rows == enumerate_states(tightened_ghz_logic())


@pytest.mark.parametrize("name, count", [("isolated", 4096), ("tightened", 8)])
def test_states_of_an_exported_logic(capsys, tmp_path, name, count):
    _, exported, _ = run_cli(capsys, "export", name)
    path = tmp_path / f"{name}.json"
    path.write_text(exported)
    assert run_cli(capsys, "states", str(path)) == (0, f"{count} states, separating: true\n", "")


def test_states_of_a_chain_deeper_than_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"atoms": [f"a{i}" for i in range(5001)], "contexts": [[i, i + 1] for i in range(5000)]}))
    assert run_cli(capsys, "states", str(path)) == (0, "2 states, separating: false\n", "")


def test_states_missing_file(capsys):
    code, out, err = run_cli(capsys, "states", "nowhere.json")
    message = "nowhere.json is neither a built-in logic (isolated, tightened) nor a regular file"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_states_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "states", str(tmp_path))
    message = f"{tmp_path} is neither a built-in logic (isolated, tightened) nor a regular file"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unreadable_logic_file_is_a_usage_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "locked.json"
    path.write_text("{}")

    def denied(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    code, out, err = run_cli(capsys, "states", str(path))
    assert (code, out, err) == (2, "", f"error: cannot read {path}: Permission denied\n")


@pytest.mark.parametrize("command", ["states", "partition", "export"])
def test_non_utf8_logic_file_is_named_in_one_stderr_line(capsys, tmp_path, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, command, str(path))
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert (code, out, err) == (2, "", f"error: cannot read {path}: {reason}\n")


# json.loads keeps a lone surrogate, which no report can encode as UTF-8
@pytest.mark.parametrize("argv", [("states",), ("partition",), ("export",), ("export", "--format", "dot")], ids=" ".join)
def test_atom_that_cannot_be_encoded_is_named_in_one_stderr_line(capsys, tmp_path, argv):
    path = tmp_path / "surrogate.json"
    path.write_text('{"atoms": ["a", "\\ud800"], "contexts": [[0, 1]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", "error: atom 1 cannot be encoded as UTF-8: surrogates not allowed\n")


# Exact stdout of `partition tightened`. Ball k is the k-th two-valued state
# in descending order, so the first eight contexts are the published table.
PARTITION_TIGHTENED = (
    '{"atom_labels":{"12":[1,2],"13":[1,3],"16":[1,6],"17":[1,7],"24":[2,4],"25":[2,5],'
    '"28":[2,8],"34":[3,4],"35":[3,5],"38":[3,8],"46":[4,6],"47":[4,7],"56":[5,6],"57":[5,7],'
    '"68":[6,8],"78":[7,8]},"contexts":[[[1,2],[3,4],[5,6],[7,8]],[[5,7],[6,8],[1,3],[2,4]],'
    '[[3,8],[2,5],[4,7],[1,6]],[[4,6],[1,7],[2,8],[3,5]],[[1,2],[6,8],[4,7],[3,5]],'
    '[[7,8],[1,3],[2,5],[4,6]],[[5,6],[2,4],[3,8],[1,7]],[[3,4],[5,7],[1,6],[2,8]],'
    '[[1,2],[5,7],[3,8],[4,6]],[[3,4],[6,8],[2,5],[1,7]],[[5,6],[1,3],[4,7],[2,8]],'
    '[[7,8],[2,4],[1,6],[3,5]]],"state_count":8}'
)


def test_partition_tightened(capsys):
    assert run_cli(capsys, "partition", "tightened") == (0, PARTITION_TIGHTENED + "\n", "")


def test_partition_of_the_exported_tightened_logic(capsys, tmp_path):
    _, exported, _ = run_cli(capsys, "export", "tightened")
    path = tmp_path / "tightened.json"
    path.write_text(exported)
    assert run_cli(capsys, "partition", str(path)) == run_cli(capsys, "partition", "tightened")


@pytest.mark.parametrize("command", ["states", "partition", "export"])
def test_too_deeply_nested_json_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: invalid hypergraph JSON")


def test_partition_without_states_is_a_result(capsys, tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"atoms": ["a", "b", "c"], "contexts": [[0, 1], [1, 2], [0, 2]]}))
    code, out, err = run_cli(capsys, "partition", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "no two-valued states" in err


def test_partition_without_a_separating_state_set_is_a_result(capsys, tmp_path):
    path = tmp_path / "path.json"  # two states, a=c=1 and b=d=1: a and c share a label
    path.write_text(json.dumps({"atoms": list("abcd"), "contexts": [[0, 1], [1, 2], [2, 3]]}))
    code, out, err = run_cli(capsys, "partition", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "do not separate its atoms" in err


def test_game_quantum_without_share_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "game", "----", "quantum")
    assert code == 1
    assert "no GHZ share exists" in err


@pytest.mark.parametrize("command", [("game", "classical"), ("prbox",)], ids=" ".join)
def test_report_names_the_game_as_typed(capsys, command):
    for pattern in itertools.product("+-", repeat=4):
        targets = "".join(pattern)
        code, out, _ = run_cli(capsys, command[0], targets, *command[1:])
        assert (code, json.loads(out)["game"]) == (0, targets)


# Seeded rates of laws that win each context always or never: the rate is
# the same whatever numpy's random stream.
ZERO_ONE_RATES = {
    ("prbox", "+++-"): 1.0,
    ("prbox", "---+", "--flip", "1"): 1.0,
    ("prbox", "+++-", "--flip", "2"): 0.0,
    ("game", "---+", "contextual"): 1.0,
    ("game", "---+", "quantum"): 1.0,
}


@pytest.mark.parametrize("seed", ["0", "5"])
@pytest.mark.parametrize("argv", list(ZERO_ONE_RATES), ids=" ".join)
def test_zero_one_law_rate_does_not_depend_on_the_seed(capsys, argv, seed):
    code, out, _ = run_cli(capsys, *argv, "--seed", seed)
    assert (code, json.loads(out)["win_rate"]) == (0, ZERO_ONE_RATES[argv])


def test_game_rejects_malformed_targets(capsys):
    code, out, err = run_cli(capsys, "game", "--++-", "classical")
    assert code == 2
    assert out == ""
    assert err == "error: three-party games take four targets\n"


def test_prbox_rejects_malformed_targets(capsys):
    code, out, err = run_cli(capsys, "prbox", "--++-")
    assert code == 2
    assert out == ""
    assert err == "error: two-party games take four targets\n"


def test_usage_error_quotes_a_sign_token_as_typed(capsys):
    with pytest.raises(SystemExit):
        main(["game", "---+", "---+"])
    assert capsys.readouterr().err.startswith("error: argument mode: invalid choice: '---+' (")


# How sign tokens parse, as argv -> (exit code, the report's "game" or the
# whole stdout, stderr). Bare "---+" looks like an option flag to argparse,
# and a logic file may be named like one.
TARGETS = ["".join(p) for p in itertools.product("+-", repeat=4)]
SIGN_TOKEN_RUNS = {
    **{("game", t, "classical"): (0, t, "") for t in TARGETS},
    **{("prbox", t): (0, t, "") for t in TARGETS},
    ("game", "--", "---+", "classical"): (0, "---+", ""),
    ("prbox", "--rounds", "5", "+++-"): (0, "+++-", ""),
    **{
        ("game", t, "classical"): (2, "", "error: three-party games take four targets\n")
        for t in ("-", "-+", "--++-")
    },
    ("game", "---+", "quantum", "--seed", "-1"): (
        2,
        "",
        "error: argument --seed: expected a non-negative integer, got '-1'\n",
    ),
    ("states", "---+"): (0, "3 states, separating: true\n", ""),
    ("states", "--", "---+"): (0, "3 states, separating: true\n", ""),
    ("states", "-+--"): (2, "", "error: -+-- is neither a built-in logic (isolated, tightened) nor a regular file\n"),
}


@pytest.mark.parametrize("argv", list(SIGN_TOKEN_RUNS), ids=" ".join)
def test_sign_tokens_parse_as_positionals(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "---+").write_text(json.dumps({"atoms": ["a", "b", "c"], "contexts": [[0, 1, 2]]}))
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["game"] if out.startswith("{") else out, err) == SIGN_TOKEN_RUNS[argv]


def test_prbox_all_positive_classical_value(capsys):
    code, out, _ = run_cli(capsys, "prbox", "++++", "--rounds", "600", "--seed", "5")
    payload = json.loads(out)
    assert code == 0
    assert payload["classical_value"] == 1.0
    assert payload["win_rate"] < 1.0


# Exact stdout of `export isolated`: the hypergraph file format.
EXPORT_ISOLATED = (
    '{"atoms":["x+x+x+","x+x+x-","x+x-x+","x+x-x-","x-x+x+","x-x+x-","x-x-x+","x-x-x-",'
    '"x+y+y+","x+y+y-","x+y-y+","x+y-y-","x-y+y+","x-y+y-","x-y-y+","x-y-y-",'
    '"y+x+y+","y+x+y-","y+x-y+","y+x-y-","y-x+y+","y-x+y-","y-x-y+","y-x-y-",'
    '"y+y+x+","y+y+x-","y+y-x+","y+y-x-","y-y+x+","y-y+x-","y-y-x+","y-y-x-"],'
    '"contexts":[[0,1,2,3,4,5,6,7],[8,9,10,11,12,13,14,15],[16,17,18,19,20,21,22,23],'
    '[24,25,26,27,28,29,30,31]]}'
)


def test_export_isolated_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "export", "isolated", "--format", "json")
    assert (code, out) == (0, EXPORT_ISOLATED + "\n")


def test_export_tightened_dot_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "export", "tightened", "--format", "dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ab29916bc0339183631a12f58ee4c28f1efaae387cc20a4b185d5f2e18e28dba"
    )


# DOT has no empty statement, so a context without atoms keeps its subgraph
# and writes no chain line: no line is a bare ";"
EXPORT_EMPTY_CONTEXT_DOT = """\
graph hypergraph {
  node [shape=circle];
  n0 [label="a"];
  subgraph context_0 {
    edge [color=red];
    n0;
  }
  subgraph context_1 {
    edge [color=blue];
  }
}
"""


def test_export_dot_writes_no_bare_semicolon_for_an_empty_context(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"atoms": ["a"], "contexts": [[0], []]}))
    assert run_cli(capsys, "export", str(path), "--format", "dot") == (0, EXPORT_EMPTY_CONTEXT_DOT, "")


def test_export_unknown_format_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["export", "tightened", "--format", "svg"])
    assert err.value.code == 2


def test_entropy_line(capsys):
    code, out, _ = run_cli(capsys, "entropy")
    assert code == 0
    assert out.strip() == "H{0,1}^3 = 0.5436, H{-1,+1}^3 = 1.0000"


TABLE_REPORT = """\
parties game classical optimal rank share quantum
      3 ++++      1.00       8    8     -       -
      3 +++-      0.75      32    7     2  1.0000
      3 ++-+      0.75      32    7     7  1.0000
      3 ++--      1.00       8    8     -       -
      3 +-++      0.75      32    7     5  1.0000
      3 +-+-      1.00       8    8     -       -
      3 +--+      1.00       8    8     -       -
      3 +---      0.75      32    7     4  1.0000
      3 -+++      0.75      32    7     3  1.0000
      3 -++-      1.00       8    8     -       -
      3 -+-+      1.00       8    8     -       -
      3 -+--      0.75      32    7     6  1.0000
      3 --++      1.00       8    8     -       -
      3 --+-      0.75      32    7     8  1.0000
      3 ---+      0.75      32    7     1  1.0000
      3 ----      1.00       8    8     -       -
      2 ++++      1.00       2    4     -       -
      2 +++-      0.75       8    4     -       -
      2 ++-+      0.75       8    4     -       -
      2 ++--      1.00       2    4     -       -
      2 +-++      0.75       8    4     -       -
      2 +-+-      1.00       2    4     -       -
      2 +--+      1.00       2    4     -       -
      2 +---      0.75       8    4     -       -
      2 -+++      0.75       8    4     -       -
      2 -++-      1.00       2    4     -       -
      2 -+-+      1.00       2    4     -       -
      2 -+--      0.75       8    4     -       -
      2 --++      1.00       2    4     -       -
      2 --+-      0.75       8    4     -       -
      2 ---+      0.75       8    4     -       -
      2 ----      1.00       2    4     -       -"""


def test_table_rows(capsys, sign_rows):
    code, out, _ = run_cli(capsys, "table")
    header, *rows = out.splitlines()
    assert (code, header.split()) == (0, ["parties", "game", "classical", "optimal", "rank", "share", "quantum"])
    three = [c[1:] for c in map(str.split, rows) if c[0] == "3"]
    two = {c[1]: c[2:] for c in map(str.split, rows) if c[0] == "2"}
    odd = [c for c in three if c[4] != "-"]
    assert len(three) == len(two) == 16
    assert sorted(c[1:4] + c[5:] for c in three if c[4] == "-") == [["1.00", "8", "8", "-"]] * 8
    assert [c[1:4] + c[5:] for c in odd] == [["0.75", "32", "7", "1.0000"]] * 8
    assert all(sign_rows[int(c[4]) - 1] == tuple(1 if ch == "+" else -1 for ch in c[0]) for c in odd)
    assert two["+++-"] == ["0.75", "8", "4", "-", "-"]  # rank 4 of 4: no perfect share
    assert all(c[3] == c[4] == "-" for c in two.values())


USAGE_ERRORS = {
    ("game", "---+", "quantum", "--rounds", "abc"): "argument --rounds: invalid int value: 'abc'",
    ("prbox", "++++", "--flip", "3"): "argument --flip: invalid choice: 3 (choose from 1, 2)",
    ("game", "---+", "quantum", "--seed", "-1"): "argument --seed: expected a non-negative integer, got '-1'",
    ("prbox", "++++", "--seed", "x"): "argument --seed: expected a non-negative integer, got 'x'",
    ("game", "---+", "classical", "---+"): "unrecognized arguments: ---+",
    ("verify", "--pretty"): "unrecognized arguments: --pretty",
    ("partition", "tightened", "--pretty"): "unrecognized arguments: --pretty",
    ("game", "---+", "classical", "--pretty"): "unrecognized arguments: --pretty",
    ("prbox", "+++-", "--pretty"): "unrecognized arguments: --pretty",
    ("states", "tightened", "--format", "json"): "unrecognized arguments: --format json",
    ("states", "tightened", "--list", "--format", "json"): "unrecognized arguments: --format json",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=" ".join)
def test_usage_error_is_one_stderr_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (2, "", f"error: {USAGE_ERRORS[argv]}\n")


@pytest.mark.parametrize("argv", [("-h",), ("game", "-h")])
def test_help_still_prints_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: ghzgames") and "show this help message and exit" in out


@pytest.mark.parametrize("option", [("--rounds", "5"), ("--seed", "1"), ("--rounds", "0", "--seed", "9")])
def test_classical_game_rejects_rounds_and_seed(capsys, option):
    code, out, err = run_cli(capsys, "game", "---+", "classical", *option)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: --rounds and --seed only apply to quantum and contextual play"]


@pytest.mark.parametrize(
    "argv",
    [
        ("game", "---+", "quantum"),
        ("game", "---+", "contextual"),
        ("prbox", "+++-"),
    ],
)
@pytest.mark.parametrize("rounds", ["0", str(2**63)])
def test_rounds_out_of_range_is_a_usage_error(capsys, argv, rounds):
    code, out, err = run_cli(capsys, *argv, "--rounds", rounds)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: rounds must be between 1 and 2**63 - 1, got {rounds}"]


# Exact stdout of seeded play at the default 10000 rounds. The tallies are
# drawn in one multinomial step per session; any change to that stream must
# update these on purpose.
GOLDEN_REPORTS = {
    ("game", "---+", "quantum", "--seed", "7"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"exact_win_probabilities":[1.0,1.0,1.0,1.0],'
        '"game":"---+","mode":"quantum","plays_by_context":[2495,2443,2496,2566],"rounds":10000,'
        '"seed":7,"strategy":{"basis_index":1,"type":"ghz-share"},"win_rate":1.0,'
        '"wins_by_context":[2495,2443,2496,2566]}'
    ),
    ("game", "-+--", "quantum", "--seed", "0"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"exact_win_probabilities":[1.0,1.0,1.0,1.0],'
        '"game":"-+--","mode":"quantum","plays_by_context":[2554,2485,2488,2473],"rounds":10000,'
        '"seed":0,"strategy":{"basis_index":6,"type":"ghz-share"},"win_rate":1.0,'
        '"wins_by_context":[2554,2485,2488,2473]}'
    ),
    ("game", "-+--", "quantum", "--seed", "7"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"exact_win_probabilities":[1.0,1.0,1.0,1.0],'
        '"game":"-+--","mode":"quantum","plays_by_context":[2495,2443,2496,2566],"rounds":10000,'
        '"seed":7,"strategy":{"basis_index":6,"type":"ghz-share"},"win_rate":1.0,'
        '"wins_by_context":[2495,2443,2496,2566]}'
    ),
    ("game", "+-+-", "contextual", "--seed", "0"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"game":"+-+-","mode":"contextual",'
        '"plays_by_context":[2554,2485,2488,2473],"rounds":10000,"seed":0,'
        '"strategy":{"logic":"tightened","type":"urn"},"win_rate":0.2485,"wins_by_context":[0,2485,0,0]}'
    ),
    ("game", "+-+-", "contextual", "--seed", "2"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"game":"+-+-","mode":"contextual",'
        '"plays_by_context":[2505,2471,2518,2506],"rounds":10000,"seed":2,'
        '"strategy":{"logic":"tightened","type":"urn"},"win_rate":0.2471,"wins_by_context":[0,2471,0,0]}'
    ),
    ("prbox", "+++-", "--seed", "0"): (
        '{"classical_value":0.75,"contexts":["xx","xy","yx","yy"],"game":"+++-",'
        '"plays_by_context":[2554,2485,2488,2473],"quantum_infeasible":true,"rank":4,"rounds":10000,'
        '"seed":0,"strategy":{"flip":null,"type":"pr-box"},"win_rate":1.0,'
        '"wins_by_context":[2554,2485,2488,2473]}'
    ),
    ("prbox", "+++-", "--seed", "3"): (
        '{"classical_value":0.75,"contexts":["xx","xy","yx","yy"],"game":"+++-",'
        '"plays_by_context":[2489,2466,2500,2545],"quantum_infeasible":true,"rank":4,"rounds":10000,'
        '"seed":3,"strategy":{"flip":null,"type":"pr-box"},"win_rate":1.0,'
        '"wins_by_context":[2489,2466,2500,2545]}'
    ),
    ("prbox", "---+", "--flip", "1", "--seed", "0"): (
        '{"classical_value":0.75,"contexts":["xx","xy","yx","yy"],"game":"---+",'
        '"plays_by_context":[2554,2485,2488,2473],"quantum_infeasible":true,"rank":4,"rounds":10000,'
        '"seed":0,"strategy":{"flip":1,"type":"pr-box"},"win_rate":1.0,'
        '"wins_by_context":[2554,2485,2488,2473]}'
    ),
    ("prbox", "---+", "--flip", "1", "--seed", "3"): (
        '{"classical_value":0.75,"contexts":["xx","xy","yx","yy"],"game":"---+",'
        '"plays_by_context":[2489,2466,2500,2545],"quantum_infeasible":true,"rank":4,"rounds":10000,'
        '"seed":3,"strategy":{"flip":1,"type":"pr-box"},"win_rate":1.0,'
        '"wins_by_context":[2489,2466,2500,2545]}'
    ),
    ("game", "---+", "classical"): (
        '{"game":"---+","mode":"classical","strategies":[{"x":[1,1,1],"y":[1,1,-1]},'
        '{"x":[1,1,-1],"y":[1,1,-1]},{"x":[1,1,1],"y":[1,-1,1]},{"x":[1,1,1],"y":[1,-1,-1]},'
        '{"x":[1,-1,-1],"y":[1,1,1]},{"x":[1,-1,-1],"y":[1,1,-1]},{"x":[1,-1,1],"y":[1,-1,1]},'
        '{"x":[1,-1,-1],"y":[1,-1,1]},{"x":[1,1,1],"y":[-1,1,1]},{"x":[1,1,1],"y":[-1,1,-1]},'
        '{"x":[1,1,1],"y":[-1,-1,1]},{"x":[1,1,-1],"y":[-1,-1,1]},{"x":[1,-1,1],"y":[-1,1,-1]},'
        '{"x":[1,-1,-1],"y":[-1,1,-1]},{"x":[1,-1,-1],"y":[-1,-1,1]},{"x":[1,-1,-1],"y":[-1,-1,-1]},'
        '{"x":[-1,1,-1],"y":[1,1,1]},{"x":[-1,1,-1],"y":[1,1,-1]},{"x":[-1,1,1],"y":[1,-1,-1]},'
        '{"x":[-1,1,-1],"y":[1,-1,-1]},{"x":[-1,-1,1],"y":[1,1,1]},{"x":[-1,-1,-1],"y":[1,1,1]},'
        '{"x":[-1,-1,1],"y":[1,-1,1]},{"x":[-1,-1,1],"y":[1,-1,-1]},{"x":[-1,1,1],"y":[-1,1,1]},'
        '{"x":[-1,1,-1],"y":[-1,1,1]},{"x":[-1,1,-1],"y":[-1,-1,1]},{"x":[-1,1,-1],"y":[-1,-1,-1]},'
        '{"x":[-1,-1,1],"y":[-1,1,1]},{"x":[-1,-1,1],"y":[-1,1,-1]},{"x":[-1,-1,1],"y":[-1,-1,-1]},'
        '{"x":[-1,-1,-1],"y":[-1,-1,-1]}],"strategy_count":32,"value":0.75}'
    ),
    ("game", "----", "classical"): (
        '{"game":"----","mode":"classical","strategies":[{"x":[1,1,-1],"y":[1,1,-1]},'
        '{"x":[1,-1,1],"y":[1,-1,1]},{"x":[1,1,-1],"y":[-1,-1,1]},{"x":[1,-1,1],"y":[-1,1,-1]},'
        '{"x":[-1,1,1],"y":[1,-1,-1]},{"x":[-1,-1,-1],"y":[1,1,1]},{"x":[-1,1,1],"y":[-1,1,1]},'
        '{"x":[-1,-1,-1],"y":[-1,-1,-1]}],"strategy_count":8,"value":1.0}'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS), ids=" ".join)
def test_golden_seeded_report(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == GOLDEN_REPORTS[argv] + "\n"


def test_readme_sample_report_is_the_command_stdout(capsys):
    command = "ghzgames game ---+ quantum --rounds 10000 --seed 7"
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sample = readme.split(f"`{command}`:\n\n```json\n", 1)[1].split("```", 1)[0]
    code, out, err = run_cli(capsys, *command.split()[1:])
    assert (code, err) == (0, "")
    assert out == sample


SRC = Path(__file__).resolve().parent.parent / "src"

# Exact stdout of the package run as a module, so `__main__` and the package
# import are exercised the way users and the benchmark start them.
MODULE_RUNS = {
    ("entropy",): "H{0,1}^3 = 0.5436, H{-1,+1}^3 = 1.0000",
    ("verify",): VERIFY_REPORT,
    ("table",): TABLE_REPORT,
    **{
        argv: GOLDEN_REPORTS[argv]
        for argv in [
            ("game", "---+", "quantum", "--seed", "7"),
            ("game", "+-+-", "contextual", "--seed", "0"),
            ("prbox", "+++-", "--seed", "0"),
        ]
    },
}


def _module_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv", list(MODULE_RUNS), ids=" ".join)
def test_python_m_ghzgames(argv):
    r = subprocess.run(
        [sys.executable, "-m", "ghzgames", *argv], env=_module_env(), capture_output=True, text=True, timeout=120
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, MODULE_RUNS[argv] + "\n", "")


# Float linear algebra runs in verify, quantum play, the box's rank and the
# table: none of their reports may depend on how many threads OpenBLAS runs.
@pytest.mark.parametrize(
    "argv", [("verify",), ("game", "---+", "quantum", "--seed", "7"), ("prbox", "+++-"), ("table",)], ids=" ".join
)
def test_python_m_ghzgames_ignores_the_openblas_thread_count(argv):
    runs = []
    for setting in (None, "4"):
        env = _module_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        r = subprocess.run(
            [sys.executable, "-m", "ghzgames", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        runs.append((r.returncode, r.stdout, r.stderr))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


# A negative result exits 1 and a usage error 2, each with one stderr line.
MODULE_FAILURES = {
    ("game", "----", "quantum"): (1, "no GHZ share exists for targets ----"),
    ("game", "--++-", "classical"): (2, "error: three-party games take four targets"),
    ("game", ".+++-", "classical"): (2, "error: targets must be a string over '+'/'-', got '.+++-'"),
    ("game", ".---+", "quantum"): (2, "error: targets must be a string over '+'/'-', got '.---+'"),
    ("prbox", ".+++-"): (2, "error: targets must be a string over '+'/'-', got '.+++-'"),
    (): (2, "error: the following arguments are required: command"),
}


@pytest.mark.parametrize("argv", list(MODULE_FAILURES), ids=" ".join)
def test_python_m_ghzgames_failure(argv):
    r = subprocess.run(
        [sys.executable, "-m", "ghzgames", *argv], env=_module_env(), capture_output=True, text=True, timeout=120
    )
    code, line = MODULE_FAILURES[argv]
    assert (r.returncode, r.stdout, r.stderr) == (code, "", line + "\n")


def test_python_m_ghzgames_help_is_the_parser_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the same help width in this process and the child
    r = subprocess.run(
        [sys.executable, "-m", "ghzgames", "-h"], env=_module_env(), capture_output=True, text=True, timeout=120
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, build_parser().format_help(), "")


def test_report_that_cannot_be_encoded_is_a_usage_error(tmp_path):
    # an ASCII stdout cannot encode the DOT label "é" (JSON escapes it), and
    # the encoder must reject it while the command runs, not when the report
    # is written
    path = tmp_path / "accent.json"
    path.write_text('{"atoms": ["é"], "contexts": [[0]]}', encoding="utf-8")
    r = subprocess.run(
        [sys.executable, "-m", "ghzgames", "export", str(path), "--format", "dot"],
        env={**_module_env(), "PYTHONIOENCODING": "ascii"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert "can't encode character" in r.stderr and "Traceback" not in r.stderr


THREADS_PROBE = (
    "import os, ghzgames.cli\n"
    "tasks = '/proc/self/task'\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)"
)


@pytest.mark.parametrize("setting", [None, "3"])
def test_cli_import_defaults_openblas_to_one_thread(setting):
    env = _module_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    r = subprocess.run([sys.executable, "-c", THREADS_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    value, threads = r.stdout.split()
    assert value == (setting or "1")  # a user's own setting wins
    if setting is None:
        assert threads == "1"


def test_closed_pipe_exits_without_a_traceback():
    # the 4096-state listing (about 135 KB) outgrows any pipe buffer, so the
    # writer always meets the closed pipe
    with subprocess.Popen(
        [sys.executable, "-m", "ghzgames", "states", "isolated", "--list"],
        env=_module_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()  # a no-op once the process has exited
        err = proc.stderr.read()
    assert (first, code, err) == (b"4096 states, separating: true\n", 141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize(
    "argv", [("entropy",), ("states", "isolated", "--list"), ("-h",), ("game", "-h")], ids=" ".join
)
def test_full_disk_exits_1_with_one_stderr_line(argv):
    # each report, help included, is buffered and fails at run()'s one write;
    # stdout is left block-buffered, as a user runs it
    env = _module_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        r = subprocess.run(
            [sys.executable, "-m", "ghzgames", *argv],
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert (r.returncode, r.stderr) == (1, "error: cannot write output: No space left on device\n")


# A child started with fd 1 closed, as by `ghzgames entropy >&-`: argv -> (exit
# code, stderr). A report that cannot be written is an error, help included,
# and a command that failed without output keeps its own line.
CLOSED_STDOUT_RUNS = {
    ("entropy",): (1, "error: cannot write output: Bad file descriptor\n"),
    ("states", "isolated", "--list"): (1, "error: cannot write output: Bad file descriptor\n"),
    ("game", "----", "quantum"): (1, "no GHZ share exists for targets ----\n"),
    ("game", "+++", "quantum"): (2, "error: three-party games take four targets\n"),
    ("-h",): (1, "error: cannot write output: Bad file descriptor\n"),
}


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 with a POSIX shell")
@pytest.mark.parametrize("argv", list(CLOSED_STDOUT_RUNS), ids=" ".join)
def test_closed_stdout_exits_with_one_stderr_line(argv):
    command = ["sh", "-c", 'exec "$0" -m ghzgames "$@" >&-', sys.executable, *argv]
    r = subprocess.run(command, env=_module_env(), capture_output=True, text=True, timeout=120)
    code, err = CLOSED_STDOUT_RUNS[argv]
    assert (r.returncode, r.stdout, r.stderr) == (code, "", err)


# verify with its commutation check forced to fail: the FAIL line cannot be
# written, so the run reports that rather than exiting 1 in silence
FAILING_VERIFY = (
    "import ghzgames.cli as cli\n"
    "cli._CHECK_FUNCTIONS['commutation'] = lambda: (False, 'forced to fail')\n"
    "cli.run()"
)


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 with a POSIX shell")
def test_closed_stdout_reports_a_failing_command_that_printed():
    command = ["sh", "-c", 'exec "$0" -c "$1" verify >&-', sys.executable, FAILING_VERIFY]
    r = subprocess.run(command, env=_module_env(), capture_output=True, text=True, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", "error: cannot write output: Bad file descriptor\n")
