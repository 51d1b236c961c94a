"""Two-party stranger game: infeasibility certificate and nonlocal-box play.

Usage: python scripts/stranger_game_demo.py [--rounds N] [--seed S]
"""

import argparse

import numpy as np

from ghzgames import games
from ghzgames.linalg import rank


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    matrix = games.stranger_constraint_matrix()
    print("orthogonality constraint matrix (rows = conjugated product states that lose +++-):")
    with np.printoptions(precision=3, suppress=True):
        print(matrix + 0)  # + 0 turns negative zeros positive, so none prints as -0.
    print(f"rank = {rank(matrix)} of {matrix.shape[1]} -> perfect share space is trivial")

    game = games.GameSpec.two_party("+++-")
    value, winners = games.best_classical_strategies(game)
    print(f"classical optimum: {value} ({len(winners)} strategies attain it)")

    rng = np.random.default_rng(args.seed)
    result = games.play_prbox(game, games.PrBoxStrategy(), args.rounds, rng)
    print(f"box play: {sum(result.wins_by_context)}/{result.rounds} rounds won "
          f"(per context {result.wins_by_context})")

    flipped = games.play_prbox(
        games.GameSpec.two_party("---+"), games.PrBoxStrategy(flip=1), args.rounds,
        np.random.default_rng(args.seed),
    )
    print(f"negated game with one party flipped: win rate {flipped.win_rate}")


if __name__ == "__main__":
    main()
