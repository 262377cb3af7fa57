import itertools
import math

import numpy as np
import pytest

from mubest.errors import ContractViolationError
from mubest.linalg import check_unitary, is_unitary
from mubest.mub import mub_triple, transform_triple
from reference import permutation_operator, symmetric_projector


@pytest.mark.parametrize("m", [np.float64(1.0), np.ones(4)], ids=["scalar", "vector"])
def test_fewer_than_two_axes_are_not_unitary(m):
    # no matrix at all: not unitary, and the checks that promise a contract error raise one
    assert is_unitary(m) is False
    with pytest.raises(ContractViolationError):
        check_unitary(m)
    with pytest.raises(ContractViolationError):
        transform_triple(mub_triple(1, 1, 1), m)


def test_permutation_identity():
    W = permutation_operator((0, 1), 3, 2)
    assert np.array_equal(W, np.eye(9))


def test_permutation_swap_trace():
    W = permutation_operator((1, 0), 2, 2)
    assert np.isclose(np.trace(W), 2)  # tr(SWAP) = d
    # explicit SWAP matrix
    expected = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.array_equal(W, expected)


def test_permutation_three_cycle_is_permutation_matrix():
    W = permutation_operator((1, 2, 0), 4, 3)
    assert np.all((W == 0) | (W == 1))
    assert np.array_equal(W.sum(axis=0), np.ones(64))
    assert np.array_equal(W.sum(axis=1), np.ones(64))


def test_permutation_action_on_product_state(rng):
    # W_sigma (v1 x v2 x v3) = v_{s^-1(1)} x v_{s^-1(2)} x v_{s^-1(3)}
    d = 3
    vs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(3)]
    sigma = (2, 0, 1)
    W = permutation_operator(sigma, d, 3)
    inp = np.kron(np.kron(vs[0], vs[1]), vs[2])
    inverse = [sigma.index(p) for p in range(3)]
    expected = np.kron(np.kron(vs[inverse[0]], vs[inverse[1]]), vs[inverse[2]])
    assert np.allclose(W @ inp, expected)


def test_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        permutation_operator((0, 0), 2, 2)


def test_symmetric_projector_d4_t4():
    P = symmetric_projector(4, 4)
    assert round(np.trace(P).real) == 35


def test_symmetric_projector_d2_t2():
    P = symmetric_projector(2, 2)
    assert round(np.trace(P).real) == 3
    assert np.max(np.abs(P @ P - P)) <= 1e-12


def test_symmetric_projector_single_copy():
    P = symmetric_projector(4, 1)
    assert round(np.trace(P).real) == 4
    assert np.array_equal(P, np.eye(4))


@pytest.mark.parametrize(
    "d,t",
    [(d, t) for d in range(2, 6) for t in range(1, 6) if d**t <= 1024],
)
def test_symmetric_projector_properties(d, t):
    P = symmetric_projector(d, t)
    assert round(np.trace(P).real) == math.comb(d + t - 1, t)
    assert np.max(np.abs(P @ P - P)) <= 1e-10
    # commutes with every factor permutation (sampled)
    for sigma in itertools.islice(itertools.permutations(range(t)), 6):
        W = permutation_operator(sigma, d, t)
        assert np.max(np.abs(P @ W - W @ P)) <= 1e-10
