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


@pytest.fixture
def sign_rows():
    """The paper's sign table: the eigenvalue of each shared-basis state (rows,
    in ``ghz_basis`` order) under each context (columns: yyx, yxy, xyy, xxx).
    """
    return (
        (-1, -1, -1, +1),
        (+1, +1, +1, -1),
        (-1, +1, +1, +1),
        (+1, -1, -1, -1),
        (+1, -1, +1, +1),
        (-1, +1, -1, -1),
        (+1, +1, -1, +1),
        (-1, -1, +1, -1),
    )


@pytest.fixture
def antidiagonals():
    """Antidiagonal entries of the four context operators, top-right to bottom-left."""
    return {
        "yyx": (-1, -1, 1, 1, 1, 1, -1, -1),
        "yxy": (-1, 1, -1, 1, 1, -1, 1, -1),
        "xyy": (-1, 1, 1, -1, -1, 1, 1, -1),
        "xxx": (1, 1, 1, 1, 1, 1, 1, 1),
    }


@pytest.fixture
def expansion_first():
    """Context -> {outcome triple: coefficient} of the first shared-basis state."""
    return {
        "xxx": {(1, 1, 1): 0.5, (1, -1, -1): 0.5, (-1, 1, -1): 0.5, (-1, -1, 1): 0.5},
        "xyy": {(1, 1, -1): 0.5, (1, -1, 1): 0.5, (-1, 1, 1): 0.5, (-1, -1, -1): 0.5},
        "yxy": {(1, 1, -1): 0.5, (1, -1, 1): 0.5, (-1, 1, 1): 0.5, (-1, -1, -1): 0.5},
        "yyx": {(1, 1, -1): 0.5, (1, -1, 1): 0.5, (-1, 1, 1): 0.5, (-1, -1, -1): 0.5},
    }


@pytest.fixture
def expansion_last():
    """Context -> {outcome triple: coefficient} of the last shared-basis state."""
    return {
        "xxx": {(1, 1, -1): -0.5, (1, -1, 1): -0.5, (-1, 1, 1): 0.5, (-1, -1, -1): 0.5},
        "xyy": {(1, 1, 1): -0.5, (1, -1, -1): -0.5, (-1, 1, -1): 0.5, (-1, -1, 1): 0.5},
        "yxy": {(1, 1, -1): 0.5j, (1, -1, 1): 0.5j, (-1, 1, 1): -0.5j, (-1, -1, -1): -0.5j},
        "yyx": {(1, 1, -1): 0.5j, (1, -1, 1): 0.5j, (-1, 1, 1): -0.5j, (-1, -1, -1): -0.5j},
    }
