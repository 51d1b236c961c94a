"""Per-layer probes for the traced run.

The same fixed set of calls runs in every workload's traced run, so each
per-layer metric means the same thing everywhere. Every call goes through the
tracer; busy times are span medians, rates are totals over span time, and the
results are checked like workload ops.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
import time

import numpy as np
import reference as ref
import workloads
from ghzgames import cli, games, linalg, logic, quantum

CLI_REPS = 3
MICRO_REPS = 200


def import_breakdown(env: dict, reps: int) -> dict[str, float]:
    """Medians over fresh interpreters, in ms.

    numpy is its cumulative import time and ghzgames the summed self time of
    its modules, both from ``-X importtime``; a bare ``python -c pass`` is the
    control that separates an import saving from interpreter start.
    """
    bare, numpy_ms, own_ms = [], [], []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append((time.perf_counter() - start) * 1e3)
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ghzgames.cli"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
            timeout=60,
        ).stderr
        own = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:") :].split("|")
            if not self_us.strip().isdigit():
                continue  # the column header
            if name.strip() == "numpy":
                numpy_ms.append(int(cumulative_us) / 1e3)
            if name.strip().startswith("ghzgames"):
                own += int(self_us)
        own_ms.append(own / 1e3)
    return {
        "import.interpreter_ms": statistics.median(bare),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.ghzgames_ms": statistics.median(own_ms),
    }


def _cli_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _repeat(tr, name: str, reps: int, fn, *args):
    for _ in range(reps):
        result = tr.call(name, fn, *args)
    return result


def sweep(tr, seed: int, smoke: bool) -> tuple[dict[str, float], list[str]]:
    """Run the fixed probe set through ``tr``; returns metrics and failures."""
    failures: list[str] = []

    def expect(name: str, error: str | None) -> None:
        if error:
            failures.append(f"{name}: {error}")

    metrics: dict[str, float] = {}
    micro = 10 if smoke else MICRO_REPS

    for entry, argv in workloads.cli_commands(random.Random(seed)).items():
        code, out = _repeat(tr, f"cli.{entry}", 1 if smoke else CLI_REPS, _cli_main, argv)
        expect(f"cli.{entry}", workloads.check_cli(argv, code, out))
        metrics[f"cli.{entry}.busy_ms"] = tr.median(f"cli.{entry}") * 1e3

    basis = _repeat(tr, "quantum.ghz_basis", micro, quantum.ghz_basis)
    table = _repeat(tr, "quantum.sign_table", micro, quantum.sign_table, basis)
    expect("quantum.sign_table", None if tuple(map(table.row, range(8))) == ref.SIGN_ROWS else "table deviates")
    xyy = _repeat(tr, "quantum.product_basis", micro, quantum.product_basis, "xyy")
    _repeat(tr, "quantum.expand", micro, quantum.expand, basis.vectors[0], xyy)
    born = _repeat(tr, "quantum.born_probabilities", micro, quantum.born_probabilities, basis.vectors[0], xyy)
    expect("quantum.born_probabilities", None if abs(sum(p for _, p in born) - 1) < 1e-9 else "not normalised")

    stranger = games.stranger_constraint_matrix()
    expect("linalg.rank", None if _repeat(tr, "linalg.rank", micro, linalg.rank, stranger) == 4 else "rank != 4")
    ops = [quantum.context_operator(c) for c in ref.THREE_PARTY_CONTEXTS]
    commute = _repeat(tr, "linalg.commutes", micro, linalg.commutes, ops[0], ops[1])
    plus, _ = quantum.lagrange_projectors(ops[3])
    projector = _repeat(tr, "linalg.is_projector", micro, linalg.is_projector, plus)
    expect("linalg", None if commute and projector else "context operators must commute, E+ be a projector")
    for name in ("quantum.ghz_basis", "quantum.sign_table", "quantum.product_basis", "quantum.expand",
                 "quantum.born_probabilities", "linalg.rank", "linalg.commutes", "linalg.is_projector"):
        metrics[f"{name}.busy_us"] = tr.median(name) * 1e6

    named = workloads.named_shapes()
    shapes = {
        "isolated": (named["isolated"], 5),
        "tightened": (named["tightened"], 20),
        "disjoint6x8": (workloads.disjoint(4 if smoke else 6), 1),
        "intertwined": (workloads.intertwined(random.Random(seed), 5, 0), 5),
        "chain800": (workloads.chain(800), 5),
    }
    states_found, enumerate_seconds = 0, 0.0
    for label, (shape, reps) in shapes.items():
        span = f"logic.enumerate_states.{label}"
        for _ in range(1 if smoke else reps):
            states = tr.call(span, logic.enumerate_states, shape.hypergraph)
        expect(span, workloads.check_shape(shape, (states, shape.separating, None)))
        metrics[f"logic.enumerate_states.busy_ms.{label}"] = tr.median(span) * 1e3
        states_found += len(states)
        enumerate_seconds += tr.median(span)
        del states
    metrics["logic.enumerate_states.states_per_s"] = states_found / enumerate_seconds
    metrics["logic.states_found"] = states_found
    isolated = named["isolated"]
    states = logic.enumerate_states(isolated.hypergraph)
    separating = _repeat(tr, "logic.is_separating", 3, logic.is_separating, isolated.hypergraph, states)
    pl = _repeat(tr, "logic.partition_logic", 3, logic.partition_logic, isolated.hypergraph, states)
    expect("logic.isolated", workloads.check_shape(isolated, (states, separating, pl)))
    metrics["logic.is_separating.busy_ms"] = tr.median("logic.is_separating") * 1e3
    metrics["logic.partition_logic.busy_ms"] = tr.median("logic.partition_logic") * 1e3

    np_rng = np.random.default_rng(seed)
    big = 10_000 if smoke else 1_000_000
    targets = ref.SIGN_ROWS[0]
    urn_rounds = big // 10  # the urn's per-round loop is about 80x slower
    pl = logic.tightened_partition_logic()
    sessions = [
        ("play_quantum", big, 3, workloads.quantum_session_op("q", (1.0,) + (0.0,) * 7, targets, big, np_rng)),
        ("play_prbox", big, 3, workloads.box_session_op(ref.BOX_SIGNS, None, big, np_rng)),
        ("play_contextual", urn_rounds, 1, workloads.urn_session_op(targets, pl, urn_rounds, np_rng)),
    ]
    for engine, rounds, reps, op in sessions:
        for _ in range(reps):
            expect(f"games.{engine}", op.check(op.run(tr)))
        metrics[f"games.{engine}.rounds_per_s"] = reps * rounds / sum(tr.durations(f"games.{engine}"))
    classical = workloads.classical_sweep_op()
    expect("games.best_classical_strategies", classical.check(classical.run(tr)))
    metrics["games.best_classical_strategies.busy_ms"] = tr.median("games.best_classical_strategies") * 1e3
    game = games.GameSpec.three_party(targets)
    strategy = games.QuantumStrategy(share=basis.vectors[0])
    exact = _repeat(tr, "games.exact_win_probabilities", micro, games.exact_win_probabilities, game, strategy)
    index = _repeat(tr, "games.quantum_share_for", micro, games.quantum_share_for, game)
    exact_ok = all(abs(p - 1.0) <= 1e-9 for p in exact) and index == 0
    expect("games.exact", None if exact_ok else "share 1 must win ---+ exactly")
    metrics["games.exact_win_probabilities.busy_us"] = tr.median("games.exact_win_probabilities") * 1e6
    metrics["games.quantum_share_for.busy_us"] = tr.median("games.quantum_share_for") * 1e6
    metrics["games.rounds"] = tr.counts["games.rounds"]
    metrics["games.wins"] = tr.counts["games.wins"]
    return metrics, failures

