import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from neurosudoku.engine import generate_solved, mask_puzzle


@pytest.fixture
def solved_grid():
    return generate_solved(11)


@pytest.fixture
def instance_03():
    """A fixed difficulty-0.3 instance used across loss and training tests."""
    return mask_puzzle(generate_solved(0), 0.3, 0)


@pytest.fixture
def uniform_tensor():
    return np.full((9, 9, 9), 1.0 / 9.0)


def one_hot_tensor(grid):
    tensor = np.zeros((9, 9, 9))
    for i in range(9):
        for j in range(9):
            tensor[i, j, int(grid[i, j]) - 1] = 1.0
    return tensor
