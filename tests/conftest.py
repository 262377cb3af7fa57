import math

import numpy as np
import pytest

from mubest.designs import clifford_design, default_design
from mubest.groups import clifford_group_2q, pauli_group_2q, restricted_clifford_group_2q
from mubest.mub import mub_triple

Z_GRID = [i * math.pi / 8 for i in range(9)]

# Table of published three-copy ideal fidelities on the x = pi/2 grid,
# rows y = pi/2 and y = 0, z = 0 .. pi in steps of pi/8.
IDEAL_ROW_Y_HALF = [
    0.5103, 0.5146, 0.5179, 0.5199, 0.5206, 0.5199, 0.5179, 0.5146, 0.5103,
]
IDEAL_ROW_Y_ZERO = [
    0.5000, 0.5044, 0.5076, 0.5096, 0.5103, 0.5096, 0.5076, 0.5044, 0.5000,
]

F3_SYMMETRIC = (46 + 5 * math.sqrt(3)) / 105  # x = y = z = pi/2


@pytest.fixture(scope="session")
def pauli_group():
    return pauli_group_2q()


@pytest.fixture(scope="session")
def restricted_group():
    return restricted_clifford_group_2q()


@pytest.fixture(scope="session")
def clifford_group():
    return clifford_group_2q()


@pytest.fixture(scope="session")
def design960():
    # the pinned orbit that every command scores and samples: goldens over it
    # do not also test the closure's bits on this BLAS kernel
    return default_design()


@pytest.fixture(scope="session")
def orbit960(restricted_group):
    # the orbit as the closure builds it, for the tests of that construction
    return clifford_design(restricted_group)


@pytest.fixture(scope="session")
def symmetric_triple():
    return mub_triple(math.pi / 2, math.pi / 2, math.pi / 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
