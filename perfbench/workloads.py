"""The four workloads: seeded inputs, timed ops and the facts each op must meet.

An op is one unit of timed work. ``run`` makes its calls into the package
through the tracer; ``check`` returns None when the result meets the facts in
``reference`` and a message naming the violated fact otherwise. Checks compare
facts, never byte hashes, so a deliberate change of the random streams keeps
them valid.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import reference as ref
from ghzgames import games, logic, quantum


@dataclass
class Op:
    name: str
    run: Callable  # (tracer) -> result
    check: Callable  # (result) -> str | None


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one rotation; runs repeat whole rotations
    warmup: Callable  # (tracer) -> None
    size: dict
    in_process: bool = True


# --------------------------------------------------------------------------
# cli: one fresh `python -m ghzgames` process per op


def cli_commands(rng: random.Random) -> dict[str, list[str]]:
    """The user-facing rotation at its defaults; the seed draws the targets.

    Quantum targets are drawn from the odd games, the only ones with a share;
    the others exit 1 by design.
    """
    t = {k: ref.sign_string(rng.choice(ref.ALL_TARGETS)) for k in ("classical", "contextual", "prbox")}
    return {
        "verify": ["verify"],
        "states-tightened": ["states", "tightened"],
        "states-isolated-list": ["states", "isolated", "--list"],
        "partition-tightened": ["partition", "tightened"],
        "game-classical": ["game", t["classical"], "classical"],
        "game-quantum": ["game", ref.sign_string(rng.choice(ref.ODD_TARGETS)), "quantum"],
        "game-contextual": ["game", t["contextual"], "contextual"],
        "prbox": ["prbox", t["prbox"]],
        "export-dot": ["export", "tightened", "--format", "dot"],
        "entropy": ["entropy"],
    }


def _targets(text: str) -> tuple[int, ...]:
    return tuple(1 if ch == "+" else -1 for ch in text)


def _check_play_report(report: dict, targets, signs) -> str | None:
    if sum(report["plays_by_context"]) != report["rounds"]:
        return "plays do not add up to the rounds"
    return ref.deterministic_wins(report["plays_by_context"], report["wins_by_context"], targets, signs)


def check_cli(argv: list[str], code: int, out: str) -> str | None:
    """Parse one CLI report and test it against the paper's facts."""
    if code != 0:
        return f"exit code {code}"
    command, lines = argv[0], out.splitlines()
    if command == "verify":
        passed = sum(line.startswith("PASS ") for line in lines)
        if passed < 7 or any(line.startswith("FAIL") for line in lines):
            return f"verify: {passed} PASS lines, expected all 7 checks to pass"
    elif command == "states" and argv[1] == "tightened":
        if lines[:1] != ["8 states, separating: true"]:
            return f"states tightened: {lines[:1]}"
    elif command == "states":
        if lines[0] != "4096 states, separating: true" or len(lines) != 4097:
            return f"states isolated: {lines[0]!r} with {len(lines) - 1} listed"
        listed = lines[1:]
        if len(set(listed)) != 4096:
            return "states isolated: listed states repeat"
        for s in listed:
            if len(s) != 32 or any(s[k : k + 8].count("1") != 1 for k in range(0, 32, 8)):
                return f"states isolated: {s} is not one atom per eight-atom context"
    elif command == "partition":
        pl = json.loads(out)
        if pl["state_count"] != 8 or len(pl["contexts"]) != 12 or len(pl["atom_labels"]) != 16:
            return "partition tightened: expected 8 states, 12 contexts, 16 atoms"
        for ctx in pl["contexts"]:
            if sorted(b for block in ctx for b in block) != list(range(1, 9)):
                return f"partition tightened: {ctx} does not partition 1..8"
    elif command == "game" and argv[2] == "classical":
        report, targets = json.loads(out), _targets(argv[1])
        best, winners = ref.classical_optimum(ref.THREE_PARTY_CONTEXTS, targets)
        if report["value"] != best or best != (1.0 if math.prod(targets) == 1 else 0.75):
            return f"classical value {report['value']}, expected {best}"
        got = {tuple(zip(s["x"], s["y"])) for s in report["strategies"]}
        if got != winners or report["strategy_count"] != len(winners):
            return "classical optimal strategies differ from brute force"
    elif command == "game" and argv[2] == "quantum":
        report, targets = json.loads(out), _targets(argv[1])
        if ref.SIGN_ROWS[report["strategy"]["basis_index"] - 1] != targets:
            return f"share {report['strategy']['basis_index']} does not carry signature {argv[1]}"
        if any(abs(p - 1.0) > 1e-9 for p in report["exact_win_probabilities"]):
            return f"exact win probabilities {report['exact_win_probabilities']}, expected all 1"
        return _check_play_report(report, targets, targets)
    elif command == "game":
        return _check_play_report(json.loads(out), _targets(argv[1]), ref.URN_SIGNS)
    elif command == "prbox":
        report, targets = json.loads(out), _targets(argv[1])
        best, _ = ref.classical_optimum(ref.TWO_PARTY_CONTEXTS, targets)
        if report["classical_value"] != best or report["quantum_infeasible"] is not True or report["rank"] != 4:
            return "prbox: classical value or infeasibility certificate deviates"
        return _check_play_report(report, targets, ref.BOX_SIGNS)
    elif command == "export":
        if not (out.startswith("graph hypergraph {") and out.endswith("}\n")):
            return "export dot: not a graphviz graph"
        nodes = sum('[label="' in line for line in lines)
        contexts = sum(line.strip().startswith("subgraph context_") for line in lines)
        if (nodes, contexts) != (16, 12):
            return f"export dot: {nodes} atoms and {contexts} contexts, expected 16 and 12"
    elif command == "entropy":
        if out.strip() != ref.entropy_line():
            return f"entropy: {out.strip()!r}"
    return None


def _cli_process(argv: list[str], env: dict) -> tuple[int, str]:
    r = subprocess.run(
        [sys.executable, "-m", "ghzgames", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=60,
    )
    return r.returncode, r.stdout


def _cli(seed: int, env: dict) -> Workload:
    commands = cli_commands(random.Random(seed))
    ops = [
        Op(
            f"cli.{entry}",
            lambda tr, argv=argv: tr.call("cli.process", _cli_process, argv, env),
            lambda result, argv=argv: check_cli(argv, *result),
        )
        for entry, argv in commands.items()
    ]
    return Workload(
        "cli",
        ops,
        warmup=lambda tr: _cli_process(["entropy"], env),
        size={"commands": [" ".join(argv) for argv in commands.values()]},
        in_process=False,
    )


# --------------------------------------------------------------------------
# play and urn: sampled sessions checked against exact win probabilities


def computed_session_bytes(rounds: int) -> dict:
    """Peak array bytes of one session, counted from the array expressions
    of the engines in games.py when this benchmark was written (not measured).

    play_quantum peaks while drawing contexts: a float64 uniform and an int64
    index per round. play_prbox keeps seven int64 arrays of one entry per
    round alive while scoring (draws, o1, o2, v1, v2, their product and the
    gathered targets) plus a bool result.
    """
    return {
        "label": "computed",
        "play_quantum_peak_bytes": 16 * rounds,
        "play_prbox_peak_bytes": 57 * rounds,
    }


def _session_check(rounds: int, targets=None, signs=None, probs=None, error=None):
    """Wins follow ``signs`` exactly, or ``probs`` within the binomial bound."""

    def check(result) -> str | None:
        if error:
            return error
        if result.rounds != rounds or sum(result.plays_by_context) != rounds:
            return "plays do not add up to the rounds"
        if signs is not None:
            return ref.deterministic_wins(result.plays_by_context, result.wins_by_context, targets, signs)
        return ref.binomial_wins(result.plays_by_context, result.wins_by_context, probs)

    return check


def _session(tr, engine: str, fn, *args):
    result = tr.call(f"games.{engine}", fn, *args)
    tr.count("games.rounds", result.rounds)
    tr.count("games.wins", sum(result.wins_by_context))
    return result


def quantum_session_op(name, amplitudes, targets, rounds, np_rng, expected=None) -> Op:
    """A shared-basis superposition on one three-party game.

    ``expected`` defaults to the win probabilities the paper's sign table
    gives for the amplitudes; exact_win_probabilities must agree with it.
    """
    game = games.GameSpec.three_party(targets)
    strategy = games.QuantumStrategy(share=quantum.ghz_superposition(amplitudes))
    expected = expected or ref.share_win_probabilities(amplitudes, targets)
    exact = games.exact_win_probabilities(game, strategy)
    mismatch = None
    if any(abs(a - b) > 1e-9 for a, b in zip(exact, expected)):
        mismatch = f"exact_win_probabilities {exact} differ from {expected}"
    return Op(
        name,
        lambda tr: _session(tr, "play_quantum", games.play_quantum, game, strategy, rounds, np_rng),
        _session_check(rounds, probs=expected, error=mismatch),
    )


def box_session_op(targets, flip, rounds, np_rng) -> Op:
    game = games.GameSpec.two_party(targets)
    strategy = games.PrBoxStrategy(flip=flip)
    signs = ref.BOX_SIGNS if flip is None else tuple(-s for s in ref.BOX_SIGNS)
    return Op(
        f"box.flip{flip}.{ref.sign_string(targets)}",
        lambda tr: _session(tr, "play_prbox", games.play_prbox, game, strategy, rounds, np_rng),
        _session_check(rounds, targets, signs),
    )


def classical_sweep_op() -> Op:
    """best_classical_strategies on all 16 three-party and 16 two-party games."""
    specs = [games.GameSpec.three_party(t) for t in ref.ALL_TARGETS]
    specs += [games.GameSpec.two_party(t) for t in ref.ALL_TARGETS]
    expected = [ref.classical_optimum(g.contexts, g.targets) for g in specs]

    def run(tr):
        return [tr.call("games.best_classical_strategies", games.best_classical_strategies, g) for g in specs]

    def check(results) -> str | None:
        for g, (value, winners), (best, best_set) in zip(specs, results, expected):
            dichotomy = 1.0 if math.prod(g.targets) == 1 else 0.75
            if value != best or best != dichotomy or {w.assignments for w in winners} != best_set:
                return f"{g.parties}-party game {ref.sign_string(g.targets)}: value {value}, expected {best}"
        return None

    return Op("classical.all32", run, check)


def _basis_amplitudes(index: int) -> tuple[float, ...]:
    return tuple(1.0 if i == index else 0.0 for i in range(8))


def _play(seed: int, smoke: bool) -> Workload:
    rounds = 10_000 if smoke else 1_000_000
    rng, np_rng = random.Random(seed), np.random.default_rng(seed)
    ops = []
    for targets in ref.ODD_TARGETS:  # the share the lookup finds must win every round
        index = games.quantum_share_for(games.GameSpec.three_party(targets))
        ops.append(
            quantum_session_op(
                f"quantum.own.{ref.sign_string(targets)}",
                _basis_amplitudes(index),
                targets,
                rounds,
                np_rng,
                expected=(1.0,) * 4,
            )
        )
    for _ in range(1 if smoke else 4):  # shares on games they do not win outright
        index = rng.randrange(8)
        targets = rng.choice([t for t in ref.ALL_TARGETS if t != ref.SIGN_ROWS[index]])
        ops.append(
            quantum_session_op(
                f"quantum.share{index + 1}.{ref.sign_string(targets)}",
                _basis_amplitudes(index),
                targets,
                rounds,
                np_rng,
            )
        )
    uniform = (1 / math.sqrt(8),) * 8  # not an eigenstate: p = 1/2 per context
    for _ in range(1 if smoke else 2):
        targets = rng.choice(ref.ALL_TARGETS)
        ops.append(quantum_session_op(f"quantum.uniform.{ref.sign_string(targets)}", uniform, targets, rounds, np_rng))
    ops += [box_session_op(t, flip, rounds, np_rng) for flip in (None, 1, 2) for t in ref.ALL_TARGETS]
    ops.append(classical_sweep_op())
    rng.shuffle(ops)

    def warmup(tr):
        ops[0].run(tr)
        box_session_op(ref.ALL_TARGETS[0], None, 1000, np_rng).run(tr)

    return Workload(
        "play",
        ops,
        warmup,
        size={
            "rounds_per_session": rounds,
            "ops_per_rotation": len(ops),
            "computed_bytes_per_session": computed_session_bytes(rounds),
        },
    )


def urn_session_op(targets, pl, rounds, np_rng) -> Op:
    game = games.GameSpec.three_party(targets)
    return Op(
        f"urn.{rounds}.{ref.sign_string(targets)}",
        lambda tr: _session(tr, "play_contextual", games.play_contextual, game, pl, rounds, np_rng),
        _session_check(rounds, targets, ref.URN_SIGNS),
    )


def _urn(seed: int, smoke: bool) -> Workload:
    # Four seeded games get 1e5-round sessions and twelve get 1e4: the p90
    # then falls inside the long sessions rather than on the noise tail, and
    # a 20-second run still holds well over 100 sessions.
    short, long = (100, 1_000) if smoke else (10_000, 100_000)
    rng, np_rng = random.Random(seed), np.random.default_rng(seed)
    pl = logic.tightened_partition_logic()
    targets = list(ref.ALL_TARGETS)
    rng.shuffle(targets)
    ops = [urn_session_op(t, pl, long if i < 4 else short, np_rng) for i, t in enumerate(targets)]
    rng.shuffle(ops)
    return Workload(
        "urn",
        ops,
        warmup=lambda tr: urn_session_op(targets[0], pl, 1000, np_rng).run(tr),
        size={"rounds_per_session": {"long": long, "short": short}, "sessions_per_rotation": {"long": 4, "short": 12}},
    )


# --------------------------------------------------------------------------
# enumerate: enumerate_states, is_separating, partition_logic per shape


@dataclass
class Shape:
    name: str
    hypergraph: object
    states: int | list  # expected count, or the full expected state list
    separating: bool


def disjoint(k: int) -> Shape:
    h = logic.Hypergraph(
        atoms=tuple(f"d{j}.{i}" for j in range(k) for i in range(8)),
        contexts=tuple(tuple(range(8 * j, 8 * j + 8)) for j in range(k)),
    )
    return Shape(f"disjoint{k}x8", h, 8**k, True)


def chain(length: int) -> Shape:
    """2-atom contexts linked end to end: the two alternating states only,
    so atoms two apart are never separated."""
    h = logic.Hypergraph(
        atoms=tuple(f"c{i}" for i in range(length + 1)),
        contexts=tuple((i, i + 1) for i in range(length)),
    )
    return Shape(f"chain{length}", h, 2, False)


def intertwined(rng: random.Random, n: int, index: int) -> Shape:
    """Cells of an n x n grid under three random Latin squares.

    Each square's symbol classes are n contexts, so every atom sits in three
    contexts. Every row and every column is a two-valued state, which makes
    the state set separating; the full set comes from the reference solver.
    """
    contexts = []
    for _ in range(3):
        p, q, s = (rng.sample(range(n), n) for _ in range(3))
        square = [[s[(p[i] + q[j]) % n] for j in range(n)] for i in range(n)]
        contexts += [tuple(i * n + j for i in range(n) for j in range(n) if square[i][j] == v) for v in range(n)]
    rng.shuffle(contexts)
    h = logic.Hypergraph(atoms=tuple(f"g{i}.{j}" for i in range(n) for j in range(n)), contexts=tuple(contexts))
    return Shape(f"intertwined{n}-{index}", h, ref.exact_cover_states(n * n, contexts), True)


def named_shapes() -> dict[str, Shape]:
    return {
        "isolated": Shape("isolated", logic.ghz_isolated_logic(), 8**4, True),
        "tightened": Shape("tightened", logic.tightened_ghz_logic(), 8, True),
    }


def enumerate_pipeline(tr, h):

    states = tr.call("logic.enumerate_states", logic.enumerate_states, h)
    tr.count("logic.states_found", len(states))
    separating = tr.call("logic.is_separating", logic.is_separating, h, states)
    pl = tr.call("logic.partition_logic", logic.partition_logic, h, states) if separating else None
    return states, separating, pl


# Larger outputs are checked on a seeded sample of states; the count, strict
# order and sample together pin the set for product shapes.
CHECKED_STATES = 256


def check_shape(shape: Shape, result) -> str | None:
    states, separating, pl = result
    h = shape.hypergraph
    if isinstance(shape.states, list):
        if states != shape.states:
            return f"{len(states)} states differ from the {len(shape.states)} of the reference solver"
    elif len(states) != shape.states:
        return f"{len(states)} states, expected {shape.states}"
    if any(a >= b for a, b in zip(states, states[1:])):
        return "states are not strictly ascending"
    sample = states if len(states) <= CHECKED_STATES else random.Random(len(states)).sample(states, CHECKED_STATES)
    for s in sample:
        if len(s) != len(h.atoms) or any(sum(s[a] for a in ctx) != 1 for ctx in h.contexts):
            return f"state {s} does not pick exactly one atom per context"
    if separating != shape.separating:
        return f"is_separating returned {separating}, expected {shape.separating}"
    if pl is not None:
        everything = set(range(1, len(states) + 1))
        if pl.state_count != len(states) or len(pl.contexts) != len(h.contexts):
            return "partition logic does not match the states"
        for blocks in pl.contexts:
            if sum(map(len, blocks)) != len(states) or set().union(*blocks) != everything:
                return "a context's blocks do not partition the states"
    return None


def shape_op(shape: Shape) -> Op:
    return Op(
        f"enumerate.{shape.name}",
        lambda tr: enumerate_pipeline(tr, shape.hypergraph),
        lambda result: check_shape(shape, result),
    )


def _enumerate(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    named = named_shapes()
    if smoke:
        shapes = [named["tightened"], chain(200), disjoint(2), intertwined(rng, 4, 0), named["isolated"]]
    else:
        # The counts place the median inside the isolated ops and the p90
        # inside the widest ones, away from the seeded intertwined costs.
        shapes = [named["tightened"], chain(200), chain(800), disjoint(3)]
        shapes += [intertwined(rng, 5, i) for i in range(4)]
        shapes += [named["isolated"]] * 7 + [disjoint(5)] * 3
    rng.shuffle(shapes)
    return Workload(
        "enumerate",
        [shape_op(s) for s in shapes],
        warmup=lambda tr: enumerate_pipeline(tr, named["tightened"].hypergraph),
        size={
            s.name: {
                "atoms": len(s.hypergraph.atoms),
                "contexts": len(s.hypergraph.contexts),
                "per_rotation": shapes.count(s),
            }
            for s in shapes
        },
    )


def known_defects() -> list[Op]:
    """Ops that reproduce known defects. Every run runs them once, outside
    the timed rotation, and reports them by name instead of counting them
    as failures."""
    # Past the interpreter's default recursion limit of 1000.
    return [shape_op(chain(1500))]


def build(name: str, seed: int, smoke: bool, env: dict) -> Workload:
    if name == "cli":
        return _cli(seed, env)
    return {"play": _play, "urn": _urn, "enumerate": _enumerate}[name](seed, smoke)
