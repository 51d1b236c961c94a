"""Command-line front end: verification, state enumeration, export and play.

Every invocation is deterministic given ``--seed``; machine-readable reports
are compact JSON on stdout.
Exit codes: 0 success / all checks pass, 1 a negative result (a failed check,
no GHZ share, or a ``partition`` of a logic whose two-valued states are
missing or do not separate its atoms; ``states`` reports such a logic with
``separating: false`` and exits 0) or a stdout that cannot be written (as on a
full disk or when closed), 2 usage error (an unreadable logic file included),
141 the reader closed stdout before the output was written (as in
``| head -1``; the rest of the output is dropped and nothing goes to stderr).
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import itertools
import json
import os
import re
import sys
from pathlib import Path

# The largest float matrix is 8x8 (a context operator, a product basis or
# |S|·I - W): an OpenBLAS worker thread only costs start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import games, logic, quantum
from .linalg import EPS, commutes, is_projector

# Eigenvalue signature of each shared-basis state under the four contexts, as
# published: rows follow ghz_basis order, columns follow GHZ_CONTEXTS.
_EXPECTED_SIGN_ROWS = (
    (-1, -1, -1, +1),
    (+1, +1, +1, -1),
    (-1, +1, +1, +1),
    (+1, -1, -1, -1),
    (+1, -1, +1, +1),
    (-1, +1, -1, -1),
    (+1, +1, -1, +1),
    (-1, -1, +1, -1),
)

# Antidiagonal entries of the four context operators, read top-right to
# bottom-left, used as the reference for `verify`.
_EXPECTED_ANTIDIAGONALS = {
    "yyx": (-1, -1, 1, 1, 1, 1, -1, -1),
    "yxy": (-1, 1, -1, 1, 1, -1, 1, -1),
    "xyy": (-1, 1, 1, -1, -1, 1, 1, -1),
    "xxx": (1, 1, 1, 1, 1, 1, 1, 1),
}

# Expansion references for the first and last shared-basis states:
# context -> {outcome triple: coefficient}.
_EXPECTED_EXPANSION_FIRST = {
    "xxx": {(1, 1, 1): 0.5, (1, -1, -1): 0.5, (-1, 1, -1): 0.5, (-1, -1, 1): 0.5},
    "xyy": {(1, 1, -1): 0.5, (1, -1, 1): 0.5, (-1, 1, 1): 0.5, (-1, -1, -1): 0.5},
    "yxy": {(1, 1, -1): 0.5, (1, -1, 1): 0.5, (-1, 1, 1): 0.5, (-1, -1, -1): 0.5},
    "yyx": {(1, 1, -1): 0.5, (1, -1, 1): 0.5, (-1, 1, 1): 0.5, (-1, -1, -1): 0.5},
}
_EXPECTED_EXPANSION_LAST = {
    "xxx": {(1, 1, -1): -0.5, (1, -1, 1): -0.5, (-1, 1, 1): 0.5, (-1, -1, -1): 0.5},
    "xyy": {(1, 1, 1): -0.5, (1, -1, -1): -0.5, (-1, 1, -1): 0.5, (-1, -1, 1): 0.5},
    "yxy": {(1, 1, -1): 0.5j, (1, -1, 1): 0.5j, (-1, 1, 1): -0.5j, (-1, -1, -1): -0.5j},
    "yyx": {(1, 1, -1): 0.5j, (1, -1, 1): 0.5j, (-1, 1, 1): -0.5j, (-1, -1, -1): -0.5j},
}


def _check_operators() -> tuple[bool, str]:
    for label, expected in _EXPECTED_ANTIDIAGONALS.items():
        if not np.array_equal(quantum.context_operator(label), np.fliplr(np.diag(expected))):
            return False, f"operator {label} deviates from its antidiagonal form"
    return True, "four context operators match their antidiagonal forms"


def _check_commutation() -> tuple[bool, str]:
    labelled = [(c, quantum.context_operator(c)) for c in quantum.GHZ_CONTEXTS]
    for (la, a), (lb, b) in itertools.combinations(labelled, 2):
        if not commutes(a, b):
            return False, f"contexts {la} and {lb} do not commute"
    return True, "all six operator pairs commute"


def _check_product() -> tuple[bool, str]:
    ops = [quantum.context_operator(c) for c in quantum.GHZ_CONTEXTS]
    prod = ops[0] @ ops[1] @ ops[2] @ ops[3]
    if np.array_equal(prod, -np.eye(8)):
        return True, "product of four operators = -I"
    return False, "product of four operators is not -I"


def _check_projectors() -> tuple[bool, str]:
    for label in quantum.GHZ_CONTEXTS:
        plus, minus = quantum.lagrange_projectors(quantum.context_operator(label))
        for name, proj in (("+", plus), ("-", minus)):
            if not is_projector(proj):
                return False, f"E{name}({label}) is not a projector"
            if np.trace(proj) != 4:
                return False, f"E{name}({label}) does not have trace 4"
    return True, "all eight spectral projectors idempotent, Hermitian, trace 4"


def _check_sign_table() -> tuple[bool, str]:
    expected = np.array(_EXPECTED_SIGN_ROWS)
    for variant in ("standard", "permuted"):
        table = quantum.sign_table(quantum.ghz_basis(variant))
        if not np.array_equal(table.entries, expected):
            return False, f"{variant} basis sign table deviates"
    return True, "sign table reproduced for standard and permuted bases"


def _check_expansions() -> tuple[bool, str]:
    basis = quantum.ghz_basis()
    for state, reference, which in (
        (basis.vectors[0], _EXPECTED_EXPANSION_FIRST, "first"),
        (basis.vectors[7], _EXPECTED_EXPANSION_LAST, "last"),
    ):
        for context, table in reference.items():
            for signs, coeff in quantum.expand(state, quantum.product_basis(context)):
                if abs(coeff - table.get(signs, 0.0)) > EPS:
                    return False, f"{which} state, context {context}: coefficient {signs} deviates"
    return True, "expansions of first and last basis states match the references"


def _check_maximal_operator() -> tuple[bool, str]:
    for variant in ("standard", "permuted"):
        basis = quantum.ghz_basis(variant)
        big = quantum.maximal_operator(basis)
        for i, v in enumerate(basis.vectors):
            if np.abs(big @ v - (i + 1) * v).max() > EPS:
                return False, f"{variant} basis: maximal operator misses eigenvalue {i + 1}"
        table = quantum.sign_table(basis)
        for j, (label, op) in enumerate(zip(quantum.GHZ_CONTEXTS, basis.context_operators())):
            rebuilt = quantum.signed_projector_sum(basis, table.entries[:, j])
            if np.abs(rebuilt - op).max() > EPS:
                return False, f"{variant} basis: context {label} is not recovered from the signed projector sum"
    return True, "context operators are functions of the maximal operator"


_CHECK_FUNCTIONS = {
    "operators": _check_operators,
    "commutation": _check_commutation,
    "product": _check_product,
    "projectors": _check_projectors,
    "sign-table": _check_sign_table,
    "expansions": _check_expansions,
    "maximal-operator": _check_maximal_operator,
}
VERIFY_CHECKS = tuple(_CHECK_FUNCTIONS)


def _print_sign_table() -> None:
    table = quantum.sign_table(quantum.ghz_basis())
    header = "state  " + "  ".join(f"{c:>3}" for c in quantum.GHZ_CONTEXTS)
    print(header)
    for i in range(8):
        row = "  ".join(f"{'+' if s > 0 else '-':>3}" for s in table.entries[i])
        print(f"{i + 1:>5}  {row}")


def cmd_verify(args) -> int:
    names = [args.check] if args.check else list(VERIFY_CHECKS)
    failed = False
    for name in names:
        ok, detail = _CHECK_FUNCTIONS[name]()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if name == "sign-table" and args.check:
            _print_sign_table()
        failed = failed or not ok
    return 1 if failed else 0


def _load_logic(name: str) -> logic.Hypergraph:
    if name == "isolated":
        return logic.ghz_isolated_logic()
    if name == "tightened":
        return logic.tightened_ghz_logic()
    path = Path(name)
    if not path.is_file():
        raise ValueError(f"{name} is neither a built-in logic (isolated, tightened) nor a regular file")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {name}: {exc}") from None
    return logic.from_json(text)


# A state's 0/1 values, as bytes, to its listing line.
_BITS = bytes.maketrans(b"\0\1", b"01")


def cmd_states(args) -> int:
    h = _load_logic(args.logic)
    states = logic.enumerate_states(h)
    separating = logic.is_separating(h, states) if states else False
    print(f"{len(states)} states, separating: {str(separating).lower()}")
    if args.list and states:
        print(b"\n".join(bytes(s).translate(_BITS) for s in states).decode())
    return 0


def cmd_partition(args) -> int:
    h = _load_logic(args.logic)
    states = logic.enumerate_states(h)
    if not states:
        print(f"{args.logic} has no two-valued states, so no partition logic", file=sys.stderr)
        return 1
    if not logic.is_separating(h, states):
        message = f"the two-valued states of {args.logic} do not separate its atoms, so no partition logic"
        print(message, file=sys.stderr)
        return 1
    pl = logic.partition_logic(h, states)
    payload = {
        "state_count": pl.state_count,
        "contexts": [[sorted(block) for block in ctx] for ctx in pl.contexts],
        "atom_labels": {atom: sorted(label) for atom, label in pl.atom_labels.items()},
    }
    print(_dumps(payload))
    return 0


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _report(args, game: games.GameSpec, strategy: dict, result: games.PlayResult) -> dict:
    """The record of one play session; each command adds its own keys."""
    return {
        "game": args.targets,
        "contexts": list(game.contexts),
        "strategy": strategy,
        "rounds": result.rounds,
        "plays_by_context": list(result.plays_by_context),
        "wins_by_context": list(result.wins_by_context),
        "win_rate": result.win_rate,
        "seed": args.seed,
    }


def cmd_game(args) -> int:
    game = games.GameSpec.three_party(args.targets)
    if args.mode == "classical":
        if (args.rounds, args.seed) != (None, None):
            raise ValueError("--rounds and --seed only apply to quantum and contextual play")
        value, winners = games.best_classical_strategies(game)
        payload = {
            "game": args.targets,
            "mode": "classical",
            "value": value,
            "strategy_count": len(winners),
            "strategies": [
                {"x": [a[0] for a in s.assignments], "y": [a[1] for a in s.assignments]}
                for s in winners
            ],
        }
        print(_dumps(payload))
        return 0
    args.rounds = 10000 if args.rounds is None else args.rounds
    args.seed = 0 if args.seed is None else args.seed
    rng = np.random.default_rng(args.seed)
    if args.mode == "quantum":
        index = games.quantum_share_for(game)
        if index is None:
            print(f"no GHZ share exists for targets {args.targets}", file=sys.stderr)
            return 1
        strategy = games.QuantumStrategy(share=quantum.ghz_basis().vectors[index])
        result = games.play_quantum(game, strategy, args.rounds, rng)
        payload = _report(args, game, {"type": "ghz-share", "basis_index": index + 1}, result)
        payload["mode"] = "quantum"
        payload["exact_win_probabilities"] = list(games.exact_win_probabilities(game, strategy))
        print(_dumps(payload))
        return 0
    # contextual: urn strategy over the tightened partition logic
    pl = logic.tightened_partition_logic()
    result = games.play_contextual(game, pl, args.rounds, rng)
    payload = _report(args, game, {"type": "urn", "logic": "tightened"}, result)
    payload["mode"] = "contextual"
    print(_dumps(payload))
    return 0


def cmd_prbox(args) -> int:
    game = games.GameSpec.two_party(args.targets)
    strategy = games.PrBoxStrategy(flip=args.flip)
    rng = np.random.default_rng(args.seed)
    infeasible, certificate = games.stranger_quantum_infeasible(game)
    result = games.play_prbox(game, strategy, args.rounds, rng)
    payload = _report(args, game, {"type": "pr-box", "flip": args.flip}, result)
    payload["classical_value"] = games.best_classical_strategies(game)[0]
    payload["quantum_infeasible"] = infeasible
    payload["rank"] = certificate
    print(_dumps(payload))
    return 0


def cmd_table(args) -> int:
    basis = quantum.ghz_basis()
    print("parties game classical optimal rank share quantum")
    for parties, spec in ((3, games.GameSpec.three_party), (2, games.GameSpec.two_party)):
        for pattern in itertools.product("+-", repeat=4):
            targets = "".join(pattern)
            game = spec(targets)
            value, winners = games.best_classical_strategies(game)
            _, rank = games.stranger_quantum_infeasible(game)
            index = games.quantum_share_for(game) if parties == 3 else None
            share = rate = "-"
            if index is not None:
                strategy = games.QuantumStrategy(share=basis.vectors[index])
                share = index + 1
                rate = f"{np.mean(games.exact_win_probabilities(game, strategy)):.4f}"
            print(f"{parties:>7} {targets} {value:>9.2f} {len(winners):>7} {rank:>4} {share:>5} {rate:>7}")
    return 0


def cmd_export(args) -> int:
    h = _load_logic(args.logic)
    text = logic.to_dot(h) if args.format == "dot" else logic.to_json(h) + "\n"
    print(text, end="")
    return 0


def cmd_entropy(args) -> int:
    h01 = quantum.outcome_entropy((0, 1))
    h11 = quantum.outcome_entropy((-1, 1))
    print(f"H{{0,1}}^3 = {h01:.4f}, H{{-1,+1}}^3 = {h11:.4f}")
    return 0


_SIGN_TOKEN = re.compile(r"-[+-]+")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, as the commands do."""

    def _parse_optional(self, arg_string):
        # argparse would read a sign string such as "---+" as an option
        if arg_string != "--" and _SIGN_TOKEN.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghzgames",
        description="Parity games on four measurement contexts: verify, enumerate, export, play.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="recompute operators, tables and expansions; PASS/FAIL per check")
    p.add_argument("--check", choices=VERIFY_CHECKS, help="run a single named check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("states", help="enumerate two-valued states of a logic")
    p.add_argument("logic", help="'isolated', 'tightened', or a hypergraph JSON file")
    p.add_argument("--list", action="store_true", help="also print every state")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("partition", help="partition-logic representation of a logic")
    p.add_argument("logic", help="'isolated', 'tightened', or a hypergraph JSON file")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("game", help="play or analyze a three-party game")
    p.add_argument("targets", help="four signs over +/- in context order (yyx, yxy, xyy, xxx)")
    p.add_argument("mode", choices=("classical", "quantum", "contextual"))
    p.add_argument("--rounds", type=int, help="quantum and contextual play only (default 10000)")
    p.add_argument("--seed", type=_seed, help="quantum and contextual play only (default 0)")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("prbox", help="two-party game: classical value, infeasibility rank, box play")
    p.add_argument("targets", help="four signs over +/- in context order (xx, xy, yx, yy)")
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--flip", type=int, choices=(1, 2), help="negate this party's announced values")
    p.set_defaults(func=cmd_prbox)

    p = sub.add_parser("export", help="serialize a logic as JSON or DOT")
    p.add_argument("logic", help="'isolated', 'tightened', or a hypergraph JSON file")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("table", help="one row per three- and two-party game: classical optimum, rank, share")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("entropy", help="triple-product entropies of the two outcome encodings")
    p.set_defaults(func=cmd_entropy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run main() on a buffered stdout; only this loop writes fd 1, in one piece."""
    stdout, buffer = sys.stdout, io.BytesIO()
    # encode as print runs: a report that cannot be encoded fails inside main()
    sys.stdout = io.TextIOWrapper(
        buffer, encoding=getattr(stdout, "encoding", "utf-8"), errors=getattr(stdout, "errors", "strict")
    )
    try:
        code = main()
    except SystemExit as exc:  # argparse ends help and usage errors this way
        code = exc.code
    sys.stdout.flush()
    report = memoryview(buffer.getvalue())
    try:
        if report and stdout is None:  # fd 1 was closed at start; a file may reuse it
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        while report:
            report = report[os.write(1, report) :]
    except BrokenPipeError:
        code = 141  # 128 + SIGPIPE, as a shell reports a writer the pipe killed
    except OSError as exc:
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        code = 1
    # Exit without collecting numpy's object graph: nothing left holds a resource
    # that only a collection would release.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
