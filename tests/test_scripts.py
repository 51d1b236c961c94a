"""Smoke tests for the runnable experiments in scripts/, so they follow the API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_games_sweep_prints_the_dichotomy():
    r = run_script("games_sweep.py", "--rounds", "200")
    assert r.returncode == 0, r.stderr
    header, *rows = r.stdout.splitlines()
    assert header.split() == ["targets", "classical", "perfect", "share", "quantum", "rate"]
    assert len(rows) == 16
    columns = [row.split() for row in rows]
    assert sorted(c[1:] for c in columns if c[3] == "-") == [["1.00", "8", "-", "-"]] * 8
    assert sorted(c[1:3] + [c[4]] for c in columns if c[3] != "-") == [["0.75", "0", "1.0000"]] * 8


def test_stranger_game_demo_headlines():
    r = run_script("stranger_game_demo.py", "--rounds", "200")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert "rank = 4 of 4 -> perfect share space is trivial" in lines
    assert "classical optimum: 0.75 (8 strategies attain it)" in lines
    assert any(line.startswith("box play: 200/200 rounds won") for line in lines)
    assert lines[-1] == "negated game with one party flipped: win rate 1.0"
    assert "-0.j" not in r.stdout and "-0. " not in r.stdout
