"""Published reference tables shared by several test modules."""

import pytest


@pytest.fixture
def witness_strategies():
    """The paper's table of the eight games with no shared-basis strategy.

    Sign pattern (yyx, yxy, xyy, xxx) -> (x values, y values) of the three
    parties in a classical strategy that wins every context.
    """
    return {
        (-1, -1, -1, -1): ((-1, -1, -1), (-1, -1, -1)),
        (-1, -1, +1, +1): ((-1, -1, +1), (-1, +1, -1)),
        (-1, +1, +1, -1): ((-1, -1, -1), (-1, -1, +1)),
        (-1, +1, -1, +1): ((-1, -1, +1), (-1, +1, +1)),
        (+1, -1, +1, -1): ((-1, -1, -1), (-1, +1, -1)),
        (+1, -1, -1, +1): ((-1, -1, +1), (-1, -1, -1)),
        (+1, +1, -1, -1): ((-1, -1, -1), (-1, +1, +1)),
        (+1, +1, +1, +1): ((+1, +1, +1), (+1, +1, +1)),
    }
