"""The parametrized triple of mutually unbiased bases in dimension 4.

The first basis is computational; the second and third are the columns of two
parametrized complex Hadamard matrices.  Every pair of vectors from distinct
bases has |overlap|^2 = 1/4, which the constructor verifies at build time
(a row/column transposition slip would fail this check immediately).

A basis is its own measurement: the rank-1 projective measurement onto its
columns.  `born_probabilities` is the one place its outcome probabilities
are computed.
"""

import numpy as np

from .errors import ContractViolationError, ReadOnlyRecord
from .linalg import check_unitary

UNBIASED_TOL = 1e-10


class OrthonormalBasis(ReadOnlyRecord):
    """Columns of `vectors` (dim x dim) form the basis."""

    __slots__ = ("vectors",)

    @property
    def dim(self):
        return self.vectors.shape[0]

    def __init__(self, vectors):
        self._set(vectors=vectors)
        shape = self.vectors.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ContractViolationError(f"basis matrix must be square, got {shape}")
        check_unitary(self.vectors)  # orthonormal columns


class MubTriple(ReadOnlyRecord):
    __slots__ = ("x", "y", "z", "basis_a", "basis_b", "basis_c")

    def __init__(self, x, y, z, basis_a, basis_b, basis_c):
        self._set(x=x, y=y, z=z, basis_a=basis_a, basis_b=basis_b, basis_c=basis_c)

    @property
    def bases(self):
        return (self.basis_a, self.basis_b, self.basis_c)


def hadamard_b(x):
    ex = np.exp(1j * x)
    return 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, 1j * ex, -1, -1j * ex],
            [1, -1, 1, -1],
            [1, -1j * ex, -1, 1j * ex],
        ]
    )


def hadamard_c(y, z):
    ey, ez = np.exp(1j * y), np.exp(1j * z)
    return 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [-ey, ez, ey, -ez],
            [1, -1, 1, -1],
            [ey, ez, -ey, -ez],
        ]
    )


def mub_triple(x, y, z):
    """Build the (x, y, z) triple; raises if the bases fail unbiasedness."""
    triple = MubTriple(
        x=x,
        y=y,
        z=z,
        basis_a=OrthonormalBasis(np.eye(4, dtype=complex)),
        basis_b=OrthonormalBasis(hadamard_b(x)),
        basis_c=OrthonormalBasis(hadamard_c(y, z)),
    )
    dev = unbiasedness_report(triple)
    if not dev <= UNBIASED_TOL:
        raise ContractViolationError(f"bases are not mutually unbiased (dev={dev:.2e})")
    return triple


def unbiasedness_report(triple):
    """Max over all 48 cross-basis pairs of | |<u|v>|^2 - 1/4 |."""
    bases = [b.vectors for b in triple.bases]
    overlaps = [np.abs(bases[i].conj().T @ bases[j]) ** 2
                for i in range(3) for j in range(i + 1, 3)]
    return float(np.max(np.abs(np.array(overlaps) - 0.25)))  # NaN propagates


def transform_triple(triple, u):
    """Apply a unitary to all three bases simultaneously; overlaps are preserved."""
    u = check_unitary(u)
    return MubTriple(triple.x, triple.y, triple.z,
                     *(OrthonormalBasis(u @ basis.vectors) for basis in triple.bases))


def born_probabilities(basis, states):
    """(K, d) outcome distribution per state of the rank-1 measurement in `basis`.

    p[k, o] = |<v_o|psi_k>|^2 for the columns of `states`.  This arithmetic
    fixes the seeded counts: it feeds the sampler, Q and run health.
    """
    p = np.abs(basis.vectors.conj().T @ states) ** 2  # d x K
    p = p.T
    sums = p.sum(axis=1)
    if not np.max(np.abs(sums - 1.0)) <= 1e-9:  # NaN fails too
        raise ContractViolationError("outcome probabilities do not sum to 1")
    return p / sums[:, None]


def controlled_phase(phi):
    return np.diag([1, 1, 1, np.exp(1j * phi)]).astype(complex)


def haar_random_unitary(dim, rng):
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phases folded into Q."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
