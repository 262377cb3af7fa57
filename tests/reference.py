"""Slow, textbook reference constructions that the tests check mubest against.

Each is built densely on the full (C^d)^{x t}, independently of the package's
own code paths: a factor permutation as a transposed identity, the symmetric
projector as the average over all t! permutations, Q as a partial trace of
P_{N+1} (A x 1), the stabilizer by scanning a group, the moment operator
from the lifted states psi^{x t}, and a sampled run's health from its full
(K, d^N) table of joint Born weights.
"""

import functools
import itertools
import math

import numpy as np


def permutation_operator(sigma, d, t):
    """d^t x d^t operator sending v_1 x ... x v_t to w_1 x ... x w_t, w_p = v_{sigma^{-1}(p)}.

    `sigma` is a permutation of range(t); anything else raises ValueError.
    """
    sigma = tuple(sigma)
    eye = np.eye(d**t).reshape((d,) * (2 * t))
    # input factor q lands on output axis sigma(q)
    axes = list(range(t)) + [t + sigma[q] for q in range(t)]
    return np.transpose(eye, axes).reshape(d**t, d**t)


@functools.lru_cache(maxsize=None)
def symmetric_projector(d, t):
    """Projector onto the symmetric subspace: the mean of all t! permutation operators.

    Built once per (d, t) and returned read-only.
    """
    perms = itertools.permutations(range(t))
    P = sum(permutation_operator(sigma, d, t) for sigma in perms) / math.factorial(t)
    P.flags.writeable = False
    return P


def q_operator(effect, N, d):
    """Q(A) = (N+1)! tr_{1..N}[P_{N+1} (A x 1)] for an effect A on (C^d)^{x N}."""
    t = N + 1
    lifted = symmetric_projector(d, t) @ np.kron(effect, np.eye(d))
    return math.factorial(t) * np.einsum("xaxb->ab", lifted.reshape(d**N, d, d**N, d))


def top_eigenspace(q, tol=1e-9):
    """(density, dimension) of Q's top eigenspace.

    Eigenvalues within tol * ||Q|| of the largest count as top; the density is
    the normalized projector onto them.
    """
    w, v = np.linalg.eigh(q)
    members = w >= w[-1] - tol * w[-1]
    top = v[:, members]
    return top @ top.conj().T / members.sum(), int(members.sum())


def product_effects(bases):
    """The product effect of each joint outcome, in np.ndindex order over the bases.

    Each factor is the projector onto one basis column, built here with np.outer.
    """
    for label in np.ndindex(*(b.dim for b in bases)):
        yield functools.reduce(np.kron, [np.outer(b.vectors[:, i], b.vectors[:, i].conj())
                                         for b, i in zip(bases, label)])


def stabilizer(group, psi, tol=1e-8):
    """Elements of `group` fixing |psi> up to global phase: |<psi|U|psi>| >= 1 - tol."""
    psi = np.asarray(psi, dtype=complex)
    return [u for u in group if abs(np.vdot(psi, u @ psi)) >= 1 - tol]


def moment_matrix(design, t):
    """M = sum_j (|psi_j><psi_j|)^{x t} on the full d^t-dimensional space."""
    A = design.states.T  # K x d
    lifted = A
    for _ in range(t - 1):
        lifted = np.einsum("ka,kb->kab", lifted, A).reshape(len(A), -1)
    return lifted.T @ lifted.conj()


def estimator_table(estimators, states):
    """f[k, o] = <psi_k| rhohat_o |psi_k> as a whole (K, outcomes) table, in complex arithmetic.

    `estimators` is `estimator_tables`' (outcomes, 2 d*d) float array, `states`
    holds the psi_k as columns.
    """
    d = states.shape[0]
    rho = estimators.view(complex).reshape(-1, d, d)
    return np.einsum("ak,oab,bk->ko", states.conj(), rho, states).real


def run_health(report):
    """Exact F, predicted std of the mean and z of a sampled run, from joint weights.

    The weights w[k, o] = prod_i |<v_{i,o_i}|psi_k>|^2 are formed for every
    state and joint outcome; per state, mean = sum_o w f and
    var = sum_o w f^2 - mean^2, and sigma^2 = sum_k var_k / (K^2 M B).
    """
    states, cfg = report.design.states, report.config
    f = estimator_table(report.estimators, states)
    K = states.shape[1]
    joint = np.ones((K, 1))
    for basis in report.measurements:
        p = np.abs(basis.vectors.conj().T @ states).T ** 2
        p = p / p.sum(axis=1, keepdims=True)
        joint = (joint[:, :, None] * p[:, None, :]).reshape(K, -1)
    mean = (joint * f).sum(axis=1)
    var = (joint * f**2).sum(axis=1) - mean**2
    exact = float(mean.sum() / K)
    sigma = math.sqrt(max(float(var.sum()), 0.0) / (K**2 * cfg.m_block * cfg.blocks))
    return {"exact_fidelity": exact, "predicted_std_of_mean": sigma,
            "z": (report.mean_fidelity - exact) / sigma if sigma > 0 else 0.0}
