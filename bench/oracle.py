"""Independent reference for the benchmark's output checks.

Nothing here imports mubest.  Ideal Q comes from an explicit sum over the
t! permutation operators and a partial trace written out below; estimators
are normalised projectors onto the top eigenspace of Q; the design-weighted
Q' replaces the symmetric projector by the moment operator of a design's
states.  The three MUB bases are rebuilt from the paper's Hadamard matrices.
"""

import itertools
import math

import numpy as np

D = 4  # local dimension
DEGENERACY_TOL = 1e-9  # relative width of the top eigenspace

# x = y = z = pi/2 closed forms for 1, 2 and 3 copies
CLOSED_FORM = {1: 2 / 5, 2: 7 / 15, 3: (46 + 5 * math.sqrt(3)) / 105}

# Published three-copy ideal fidelities at x = pi/2, z = 0 .. pi in steps of
# pi/8, for y = pi/2 and y = 0 (4 decimals).
Z_GRID = tuple(i * math.pi / 8 for i in range(9))
PUBLISHED = {
    math.pi / 2: (0.5103, 0.5146, 0.5179, 0.5199, 0.5206, 0.5199, 0.5179, 0.5146, 0.5103),
    0.0: (0.5000, 0.5044, 0.5076, 0.5096, 0.5103, 0.5096, 0.5076, 0.5044, 0.5000),
}
PUBLISHED_TOL = 5e-5


def symmetric_projector(t):
    """(1/t!) sum over sigma of the operator permuting the t tensor factors."""
    dim = D**t
    eye = np.eye(dim).reshape((D,) * (2 * t))
    P = np.zeros((dim, dim))
    for perm in itertools.permutations(range(t)):
        P += eye.transpose(perm + tuple(range(t, 2 * t))).reshape(dim, dim)
    return P / math.factorial(t)


def partial_trace_leading(m, n_traced):
    """Trace out the first n_traced factors of an operator on (C^D)^{n_traced+1}."""
    outer = D**n_traced
    mr = m.reshape(outer, D, outer, D)
    out = np.zeros((D, D), dtype=complex)
    for x in range(outer):
        out += mr[x, :, x, :]
    return out


def q_operator(effect, P, n_copies):
    """Q(A) = (N+1)! tr_{1..N}[P (A x 1)] for any effect A on N copies."""
    lifted = P @ np.kron(effect, np.eye(D))
    return math.factorial(n_copies + 1) * partial_trace_leading(lifted, n_copies)


def q_rank1(vectors, P, n_copies):
    """Q for every rank-1 effect |v><v|: (N+1)! (<v| x 1) P (|v> x 1), batched.

    Equal to q_operator(outer(v, v*), ...) by linearity of the partial trace;
    the test suite checks the two against each other.
    """
    n_out, dim = vectors.shape
    lift = np.einsum("ox,ab->oxab", vectors, np.eye(D)).reshape(n_out, dim * D, D)
    return math.factorial(n_copies + 1) * (lift.conj().transpose(0, 2, 1) @ P @ lift)


def estimators(qs):
    """Top eigenvalue and normalised top-eigenspace projector of each Q."""
    w, v = np.linalg.eigh(qs)
    top = w[:, -1]
    members = w >= (top - DEGENERACY_TOL * top)[:, None]
    vm = v * members[:, None, :]
    rho = (vm @ vm.conj().transpose(0, 2, 1)) / members.sum(axis=1)[:, None, None]
    return top, rho


def hadamard_b(x):
    e = np.exp(1j * x)
    return 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1j * e, -1, -1j * e], [1, -1, 1, -1], [1, -1j * e, -1, 1j * e]]
    )


def hadamard_c(y, z):
    ey, ez = np.exp(1j * y), np.exp(1j * z)
    return 0.5 * np.array(
        [[1, 1, 1, 1], [-ey, ez, ey, -ez], [1, -1, 1, -1], [ey, ez, -ey, -ez]]
    )


def triple_bases(x, y, z):
    """The three bases as column matrices: computational, B(x), C(y, z)."""
    return [np.eye(D, dtype=complex), hadamard_b(x), hadamard_c(y, z)]


def product_vectors(bases):
    """Row o = (j, k, ...) in row-major order holds kron(b0[:, j], b1[:, k], ...)."""
    vecs = np.ones((1, 1), dtype=complex)
    for b in bases:
        vecs = np.einsum("oi,aj->ojia", vecs, b).reshape(-1, vecs.shape[1] * b.shape[0])
    return vecs


def moment_projector(states, t):
    """P' = (D_t / K) sum_j (|psi_j><psi_j|)^{x t} for design states (D x K)."""
    cols = states.T
    lifted = cols
    for _ in range(t - 1):
        lifted = np.einsum("ka,kb->kab", lifted, cols).reshape(cols.shape[0], -1)
    return sym_dim(t) / cols.shape[0] * (lifted.T @ lifted.conj())


def sym_dim(t):
    return math.comb(D + t - 1, t)


class Oracle:
    """Fidelities and estimator tables, with the projectors built once."""

    def __init__(self):
        self._P = {}

    def projector(self, t):
        if t not in self._P:
            self._P[t] = symmetric_projector(t)
        return self._P[t]

    def outcome_table(self, bases, design_states=None):
        """(top eigenvalues, estimator densities) per joint outcome."""
        n = len(bases)
        P = (self.projector(n + 1) if design_states is None
             else moment_projector(design_states, n + 1))
        return estimators(q_rank1(product_vectors(bases), P, n))

    def fidelity(self, bases, design_states=None):
        """N-copy estimation fidelity of the product of the given bases."""
        n = len(bases)
        tops, _ = self.outcome_table(bases, design_states)
        return float(tops.sum()) / (math.factorial(n + 1) * sym_dim(n + 1))

    def triple_fidelity(self, x, y, z, design_states=None):
        return self.fidelity(triple_bases(x, y, z), design_states)

    def sampling_model(self, x, y, z, states):
        """Expected F and per-block std of one block of M=1 over these states.

        Returns (f_table (K, 64), expected F, block std at M=1): for M
        repetitions per state the block std is the last value / sqrt(M).
        """
        bases = triple_bases(x, y, z)
        _, rho = self.outcome_table(bases)
        f = np.einsum("ik,oij,jk->ko", states.conj(), rho, states).real
        probs = [np.abs(b.conj().T @ states).T ** 2 for b in bases]  # (K, 4) each
        joint = np.einsum("kj,kl,km->kjlm", *probs).reshape(states.shape[1], -1)
        mean_k = (joint * f).sum(axis=1)
        var_k = (joint * f**2).sum(axis=1) - mean_k**2
        K = states.shape[1]
        return f, float(mean_k.mean()), float(math.sqrt(var_k.sum()) / K)


def frame_potential(states, t):
    G = np.abs(states.conj().T @ states) ** 2
    return float((G**t).sum()) / states.shape[1] ** 2


def self_test(oracle):
    """Closed forms at x = y = z = pi/2; returns the largest deviation."""
    bases = triple_bases(math.pi / 2, math.pi / 2, math.pi / 2)
    devs = [abs(oracle.fidelity(bases[:n]) - CLOSED_FORM[n]) for n in (1, 2, 3)]
    devs += [abs(oracle.fidelity([bases[i], bases[j]]) - CLOSED_FORM[2])
             for i, j in ((0, 2), (1, 2))]
    return max(devs)
