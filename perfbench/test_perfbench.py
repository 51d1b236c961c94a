"""Smoke tests for the benchmark harness, so it cannot rot.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import reference  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_declared_metric(trace):
    r = _bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert r.returncode == 0, r.stderr
    results = json.loads(r.stdout.splitlines()[-1])
    assert set(results) >= {w["name"] for w in SPEC["workloads"]}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        r = _bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert r.returncode != 0
    assert r.stdout == ""


def _brute_force(atom_count, contexts):
    return [
        values
        for values in itertools.product((0, 1), repeat=atom_count)
        if all(sum(values[a] for a in ctx) == 1 for ctx in contexts)
    ]


@pytest.mark.parametrize("seed", range(30))
def test_reference_solver_matches_brute_force(seed):
    rng = random.Random(seed)
    atom_count = rng.randint(1, 12)
    contexts = [tuple(rng.sample(range(atom_count), rng.randint(1, min(4, atom_count)))) for _ in range(rng.randint(1, 8))]
    uncovered = tuple(sorted(set(range(atom_count)) - {a for ctx in contexts for a in ctx}))
    if uncovered:  # as in a Hypergraph, every atom sits in some context
        contexts.append(uncovered)
    assert reference.exact_cover_states(atom_count, contexts) == _brute_force(atom_count, contexts)


def test_reference_classical_dichotomy():
    for targets in reference.ALL_TARGETS:
        value, _ = reference.classical_optimum(reference.THREE_PARTY_CONTEXTS, targets)
        assert value == (0.75 if targets in reference.ODD_TARGETS else 1.0)
