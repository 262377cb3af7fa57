"""Dense complex linear algebra on small tensor-product Hilbert spaces.

Everything here operates on plain numpy arrays: operators are square complex
matrices, pure states are unit-norm complex vectors.  Dimensions stay tiny
(d^t <= 1024), so all constructions are explicit and dense.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class TensorSpace:
    """t copies of a local d-dimensional space, total dimension d**t."""

    d: int
    t: int

    def __post_init__(self):
        if self.d < 1 or self.t < 1:
            raise ValueError(f"invalid tensor space ({self.d}, {self.t})")

    @property
    def dim(self):
        return self.d**self.t


def kron(a, b):
    """Kronecker product."""
    return np.kron(np.asarray(a), np.asarray(b))


def is_hermitian(m, tol=HERMITIAN_TOL):
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


def is_unitary(m, tol=UNITARY_TOL):
    """max |U^dag U - I| <= tol for a square matrix, or over a stack of them."""
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        return False
    gram = np.swapaxes(m.conj(), -1, -2) @ m
    return np.max(np.abs(gram - np.eye(m.shape[-1]))) <= tol


def check_unitary(m, tol=UNITARY_TOL):
    """m as a complex array; raises unless it (each matrix of a stack) is unitary."""
    if not is_unitary(m, tol):
        raise ContractViolationError("matrix is not unitary within tolerance")
    return np.asarray(m, dtype=complex)


def permutation_operator(sigma, space):
    """Unitary permuting tensor factors on (C^d)^{x t}.

    `sigma` is a permutation of range(t); the operator maps
    v_1 x ... x v_t  to  w_1 x ... x w_t with w_p = v_{sigma^{-1}(p)}.
    The result is a 0/1 permutation matrix of size d^t.
    """
    sigma = tuple(sigma)
    d, t = space.d, space.t
    if sorted(sigma) != list(range(t)):
        raise ValueError(f"{sigma} is not a permutation of range({t})")
    inverse = [0] * t
    for p, q in enumerate(sigma):
        inverse[q] = p
    dim = d**t
    W = np.zeros((dim, dim))
    strides = [d ** (t - 1 - p) for p in range(t)]
    for idx in itertools.product(range(d), repeat=t):
        col = sum(i * s for i, s in zip(idx, strides))
        row = sum(idx[inverse[p]] * strides[p] for p in range(t))
        W[row, col] = 1.0
    return W


def symmetric_projector(space):
    """Projector onto the symmetric subspace, by explicit sum over all t! permutations.

    Returns (P, D) where D = tr(P) rounded to the nearest integer,
    equal to binomial(d + t - 1, t).
    """
    d, t = space.d, space.t
    P = np.zeros((d**t, d**t))
    for sigma in itertools.permutations(range(t)):
        P += permutation_operator(sigma, space)
    P /= math.factorial(t)
    D = round(np.trace(P).real)
    assert D == math.comb(d + t - 1, t)
    return P, D


def symmetric_dimension(d, t):
    return math.comb(d + t - 1, t)
