import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghzgames import cli
from ghzgames.cli import build_parser, main


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


def test_verify_single_check_prints_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "sign-table")
    assert code == 0
    assert out.count("\n") >= 9  # PASS line, header, eight rows
    assert "+" in out and "-" in out


def test_verify_product_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "product")
    assert code == 0
    assert "product of four operators = -I" in out


def test_verify_rejects_unknown_check():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--check", "bogus"])
    assert err.value.code == 2


def test_states_tightened(capsys):
    code, out, _ = run_cli(capsys, "states", "tightened")
    assert code == 0
    assert out.strip() == "8 states, separating: true"


def test_states_isolated(capsys):
    code, out, _ = run_cli(capsys, "states", "isolated")
    assert code == 0
    assert out.strip() == "4096 states, separating: true"


def test_states_custom_json(capsys, tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"atoms": ["a", "b", "c"], "contexts": [[0, 1, 2]]}))
    code, out, _ = run_cli(capsys, "states", str(path))
    assert code == 0
    assert out.startswith("3 states")


def test_states_list_streams_states(capsys):
    code, out, _ = run_cli(capsys, "states", "tightened", "--list")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 9
    assert all(set(l) <= {"0", "1"} for l in lines[1:])


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


def test_states_list_json(capsys):
    code, out, _ = run_cli(capsys, "states", "tightened", "--list", "--format", "json")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert len(payload["states"]) == 8


def test_states_missing_file(capsys):
    code, _, err = run_cli(capsys, "states", "nowhere.json")
    assert code == 2
    assert "no such logic" in err


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
    code, out, _ = run_cli(capsys, "partition", "tightened")
    assert code == 0
    payload = json.loads(out)
    assert payload["state_count"] == 8
    assert len(payload["contexts"]) == 12
    assert len(payload["atom_labels"]) == 16
    assert out == PARTITION_TIGHTENED + "\n"


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


def test_game_quantum_wins(capsys):
    code, out, _ = run_cli(capsys, "game", "---+", "quantum", "--rounds", "400", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["win_rate"] == 1.0
    assert payload["strategy"]["basis_index"] == 1
    assert payload["exact_win_probabilities"] == pytest.approx([1, 1, 1, 1])
    assert sum(payload["plays_by_context"]) == 400


def test_game_quantum_output_is_reproducible(capsys):
    _, first, _ = run_cli(capsys, "game", "-+--", "quantum", "--rounds", "300", "--seed", "42")
    _, second, _ = run_cli(capsys, "game", "-+--", "quantum", "--rounds", "300", "--seed", "42")
    assert first == second


def test_game_quantum_without_share_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "game", "----", "quantum")
    assert code == 1
    assert "no GHZ share exists" in err


def test_game_classical_value(capsys):
    code, out, _ = run_cli(capsys, "game", "---+", "classical")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.75
    assert payload["strategy_count"] == 32


def test_game_classical_all_negative(capsys):
    code, out, _ = run_cli(capsys, "game", "----", "classical")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == 1.0
    assert {"x": [-1, -1, -1], "y": [-1, -1, -1]} in payload["strategies"]


def test_game_contextual(capsys):
    code, out, _ = run_cli(capsys, "game", "---+", "contextual", "--rounds", "500", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["win_rate"] == 1.0
    assert payload["strategy"] == {"logic": "tightened", "type": "urn"}


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


def test_prbox_report(capsys):
    code, out, _ = run_cli(capsys, "prbox", "+++-", "--rounds", "600", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["classical_value"] == 0.75
    assert payload["quantum_infeasible"] is True
    assert payload["rank"] == 4
    assert payload["win_rate"] == 1.0


def test_prbox_flip(capsys):
    code, out, _ = run_cli(capsys, "prbox", "---+", "--flip", "1", "--rounds", "600", "--seed", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["win_rate"] == 1.0
    assert payload["strategy"]["flip"] == 1


def test_prbox_all_positive_classical_value(capsys):
    code, out, _ = run_cli(capsys, "prbox", "++++", "--rounds", "600", "--seed", "5")
    payload = json.loads(out)
    assert code == 0
    assert payload["classical_value"] == 1.0
    assert payload["win_rate"] < 1.0


def test_export_json(capsys):
    code, out, _ = run_cli(capsys, "export", "isolated", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["atoms"]) == 32


def test_export_dot(capsys):
    code, out, _ = run_cli(capsys, "export", "tightened", "--format", "dot")
    assert code == 0
    assert out.startswith("graph hypergraph {")


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


def test_pretty_json_is_indented(capsys):
    _, out, _ = run_cli(capsys, "game", "---+", "classical", "--pretty")
    assert out.startswith("{\n")
    json.loads(out)


USAGE_ERRORS = {
    ("game", "---+", "quantum", "--rounds", "abc"): "argument --rounds: invalid int value: 'abc'",
    ("prbox", "++++", "--flip", "3"): "argument --flip: invalid choice: 3 (choose from 1, 2)",
    ("game", "---+", "quantum", "--seed", "-1"): "argument --seed: expected a non-negative integer, got '-1'",
    ("prbox", "++++", "--seed", "x"): "argument --seed: expected a non-negative integer, got 'x'",
    ("game", "---+", "classical", "---+"): "unrecognized arguments: ---+",
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
        '"game":"---+","mode":"quantum","plays_by_context":[2422,2526,2536,2516],"rounds":10000,'
        '"seed":7,"strategy":{"basis_index":1,"type":"ghz-share"},"win_rate":1.0,'
        '"wins_by_context":[2422,2526,2536,2516]}'
    ),
    ("game", "-+--", "quantum", "--seed", "0"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"exact_win_probabilities":[1.0,1.0,1.0,1.0],'
        '"game":"-+--","mode":"quantum","plays_by_context":[2523,2481,2527,2469],"rounds":10000,'
        '"seed":0,"strategy":{"basis_index":6,"type":"ghz-share"},"win_rate":1.0,'
        '"wins_by_context":[2523,2481,2527,2469]}'
    ),
    ("game", "-+--", "quantum", "--seed", "7"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"exact_win_probabilities":[1.0,1.0,1.0,1.0],'
        '"game":"-+--","mode":"quantum","plays_by_context":[2422,2526,2536,2516],"rounds":10000,'
        '"seed":7,"strategy":{"basis_index":6,"type":"ghz-share"},"win_rate":1.0,'
        '"wins_by_context":[2422,2526,2536,2516]}'
    ),
    ("game", "+-+-", "contextual", "--seed", "0"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"game":"+-+-","mode":"contextual",'
        '"plays_by_context":[2535,2445,2488,2532],"rounds":10000,"seed":0,'
        '"strategy":{"logic":"tightened","type":"urn"},"win_rate":0.2445,"wins_by_context":[0,2445,0,0]}'
    ),
    ("game", "+-+-", "contextual", "--seed", "2"): (
        '{"contexts":["yyx","yxy","xyy","xxx"],"game":"+-+-","mode":"contextual",'
        '"plays_by_context":[2528,2514,2458,2500],"rounds":10000,"seed":2,'
        '"strategy":{"logic":"tightened","type":"urn"},"win_rate":0.2514,"wins_by_context":[0,2514,0,0]}'
    ),
    ("prbox", "+++-", "--seed", "0"): (
        '{"classical_value":0.75,"contexts":["xx","xy","yx","yy"],"game":"+++-",'
        '"plays_by_context":[2538,2480,2490,2492],"quantum_infeasible":true,"rank":4,"rounds":10000,'
        '"seed":0,"strategy":{"flip":null,"type":"pr-box"},"win_rate":1.0,'
        '"wins_by_context":[2538,2480,2490,2492]}'
    ),
    ("prbox", "+++-", "--seed", "3"): (
        '{"classical_value":0.75,"contexts":["xx","xy","yx","yy"],"game":"+++-",'
        '"plays_by_context":[2470,2526,2462,2542],"quantum_infeasible":true,"rank":4,"rounds":10000,'
        '"seed":3,"strategy":{"flip":null,"type":"pr-box"},"win_rate":1.0,'
        '"wins_by_context":[2470,2526,2462,2542]}'
    ),
    ("prbox", "---+", "--flip", "1", "--seed", "0"): (
        '{"classical_value":0.75,"contexts":["xx","xy","yx","yy"],"game":"---+",'
        '"plays_by_context":[2538,2480,2490,2492],"quantum_infeasible":true,"rank":4,"rounds":10000,'
        '"seed":0,"strategy":{"flip":1,"type":"pr-box"},"win_rate":1.0,'
        '"wins_by_context":[2538,2480,2490,2492]}'
    ),
    ("prbox", "---+", "--flip", "1", "--seed", "3"): (
        '{"classical_value":0.75,"contexts":["xx","xy","yx","yy"],"game":"---+",'
        '"plays_by_context":[2470,2526,2462,2542],"quantum_infeasible":true,"rank":4,"rounds":10000,'
        '"seed":3,"strategy":{"flip":1,"type":"pr-box"},"win_rate":1.0,'
        '"wins_by_context":[2470,2526,2462,2542]}'
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


# A negative result exits 1 and a usage error 2, each with one stderr line.
MODULE_FAILURES = {
    ("game", "----", "quantum"): (1, "no GHZ share exists for targets ----"),
    ("game", "--++-", "classical"): (2, "error: three-party games take four targets"),
    ("game", ".+++-", "classical"): (2, "error: targets must be a string over '+'/'-', got '.+++-'"),
    ("game", ".---+", "quantum"): (2, "error: targets must be a string over '+'/'-', got '.---+'"),
    ("prbox", ".+++-"): (2, "error: targets must be a string over '+'/'-', got '.+++-'"),
}


@pytest.mark.parametrize("argv", list(MODULE_FAILURES), ids=" ".join)
def test_python_m_ghzgames_failure(argv):
    r = subprocess.run(
        [sys.executable, "-m", "ghzgames", *argv], env=_module_env(), capture_output=True, text=True, timeout=120
    )
    code, line = MODULE_FAILURES[argv]
    assert (r.returncode, r.stdout, r.stderr) == (code, "", line + "\n")


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
