"""Small dense linear-algebra helpers: unitarity checks and the symmetric-subspace dimension.

Operators are plain square complex numpy arrays, or stacks of them.
"""

import math

import numpy as np

from .errors import ContractViolationError

UNITARY_TOL = 1e-10


def is_unitary(m):
    """max |U^dag U - I| <= UNITARY_TOL for a square matrix, or over a (maybe empty) stack."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    gram = np.swapaxes(m.conj(), -1, -2) @ m
    return np.max(np.abs(gram - np.eye(m.shape[-1])), initial=0.0) <= UNITARY_TOL


def check_unitary(m):
    """m as a complex array; raises unless it (each matrix of a stack) is unitary."""
    if not is_unitary(m):
        raise ContractViolationError("matrix is not unitary within tolerance")
    return np.asarray(m, dtype=complex)


def symmetric_dimension(d, t):
    """Dimension binomial(d + t - 1, t) of the symmetric subspace of (C^d)^{x t}."""
    return math.comb(d + t - 1, t)
