"""Q operators, optimal estimators, and exact N-copy estimation fidelities.

For an effect A on N copies, Q(A) = (N+1)! tr_{1..N}[ P_{N+1} (A x 1) ] acting
on the extra copy; the estimation fidelity of a product measurement is
sum over outcomes of ||Q|| / ((N+1)! D_{N+1}), attained by any estimator
supported in the top eigenspace of Q.  A K-state design {psi_j} of strength
t >= N+1 reproduces P_{N+1} as (D_{N+1}/K) sum_j (|psi_j><psi_j|)^{x N+1}, so
for a product effect x_i E_i, with Born weights w_j = prod_i <psi_j|E_i|psi_j>,

    Q = (N+1)! D_{N+1} / K  sum_j w_j |psi_j><psi_j|.

Each measurement is an `OrthonormalBasis`, and each factor of w_j is one of
its outcome probabilities from `mub.born_probabilities`, the function that
also drives the sampler.  `outcome_tables` evaluates Q for all outcomes at
once, over the Clifford orbit (an exact 4-design) in ideal mode and over a
given design in empirical mode, where the sum is the design's stand-in Q'.
It is the only place Q is formed.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .designs import default_design
from .errors import ContractViolationError, DimensionMismatchError
from .linalg import symmetric_dimension
from .mub import born_probabilities, mub_triple

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class OutcomeTables:
    """Q and its top eigenspace for each of the d^N joint outcomes.

    Outcomes are in np.ndindex order over the measurements, so the first
    measurement's outcome is the most significant digit.
    """

    q: np.ndarray  # (d^N, d, d)
    norms: np.ndarray  # (d^N,) largest eigenvalue of each Q
    densities: np.ndarray  # (d^N, d, d) normalized top-eigenspace projectors
    support: np.ndarray  # (d^N,) top-eigenspace dimensions
    gaps: np.ndarray  # (d^N,) distance to the next eigenvalue, 0 if none


@dataclass(frozen=True)
class EstimationReport:
    fidelity: float
    estimators: OutcomeTables  # the tables whose densities are the estimators


def _top_eigenspaces(q):
    """Batched top eigenvalue, estimator density, support dimension and gap.

    Eigenvalues within DEGENERACY_TOL * ||Q|| of the maximum are grouped, which
    keeps the estimator well defined at symmetric parameter points.
    """
    w, v = np.linalg.eigh(q)
    top = w[:, -1]
    if np.any(top <= DEGENERACY_TOL):
        raise ContractViolationError("Q operator is numerically zero")
    members = w >= (top - DEGENERACY_TOL * top)[:, None]
    support = members.sum(axis=1)
    vs = v * members[:, None, :]
    densities = vs @ vs.conj().swapaxes(1, 2) / support[:, None, None]
    below = np.where(members, -np.inf, w).max(axis=1)
    gaps = np.where(support < w.shape[1], top - below, 0.0)
    return top, densities, support, gaps


def _state_projectors(states):
    """C-ordered rows |psi_j><psi_j|, flattened to (K, d*d), of the columns of `states`."""
    v = np.ascontiguousarray(states.T)
    return (v[:, :, None] * v.conj()[:, None, :]).reshape(len(v), -1)


def born_weights(measurements, states):
    """(K, d^N) product Born weights w[j, o] = prod_i |<v_{i,o_i}|psi_j>|^2 of the bases."""
    w = np.ones((states.shape[1], 1))
    for basis in measurements:
        p = born_probabilities(basis, states)
        w = (w[:, :, None] * p[:, None, :]).reshape(len(w), -1)
    return w


def expectations(densities, states):
    """f[k, o] = <psi_k| rho_o |psi_k> for densities (n, d, d) and columns of `states`."""
    flat = np.ascontiguousarray(densities).reshape(len(densities), -1)
    # Re tr(rho P) as one real product over (re, im) pairs: no complex (K, n) temporary
    return _state_projectors(states).view(float) @ flat.view(float).T


def outcome_tables(measurements, design):
    """Q over `design` and its top eigenspaces for every joint outcome of the bases.

    One batched eigendecomposition of the (d^N, d, d) stack gives the norms,
    the estimator densities, the support dimensions and the gaps.
    """
    N = len(measurements)
    if N not in (1, 2, 3):
        raise ValueError("need 1 to 3 measurements")
    d = design.dim
    if any(m.dim != d for m in measurements):
        raise DimensionMismatchError(f"measurements do not act on dimension {d}")
    if design.t < N + 1:
        warnings.warn(
            f"design strength t={design.t} < N+1={N+1}; Q' may be inaccurate",
            stacklevel=2,
        )
    w = born_weights(measurements, design.states)
    scale = math.factorial(N + 1) * symmetric_dimension(d, N + 1) / design.size
    # real weights against (re, im) pairs, so w is never cast to a complex copy
    q = scale * (w.T @ _state_projectors(design.states).view(float)).view(complex)
    q = q.reshape(-1, d, d)
    norms, densities, support, gaps = _top_eigenspaces(q)
    return OutcomeTables(q=q, norms=norms, densities=densities, support=support, gaps=gaps)


def estimation_fidelity(measurements, mode="ideal", design=None,
                        estimator_source="matched"):
    """Estimation fidelity of a product of rank-1 projective measurements, one per basis.

    Ideal mode takes Q over the Clifford-orbit 4-design (equal to the exact
    symmetric-projector Q) and ignores `design`; empirical mode takes Q' over
    `design`.  With estimator_source="ideal" in empirical mode, the estimator
    comes from the ideal Q's top eigenspace but is scored against Q' (the
    "standard estimator": suboptimal, hence a slightly lower value).
    """
    if mode == "ideal":
        design = default_design()
    elif mode != "empirical":
        raise ValueError(f"unknown mode {mode!r}")
    elif design is None:
        raise ValueError("empirical mode requires a design")
    if estimator_source not in ("matched", "ideal"):
        raise ValueError(f"unknown estimator source {estimator_source!r}")
    tables = outcome_tables(measurements, design)
    estimators, values = tables, tables.norms
    if mode == "empirical" and estimator_source == "ideal":
        estimators = outcome_tables(measurements, default_design())
        values = np.einsum("oab,oba->o", tables.q, estimators.densities).real
    N = len(measurements)
    D = symmetric_dimension(design.dim, N + 1)
    return EstimationReport(
        fidelity=float(values.sum()) / (math.factorial(N + 1) * D),
        estimators=estimators,
    )


def triple_fidelity(triple, mode="ideal", design=None, estimator_source="matched"):
    """Three-copy estimation fidelity F_MUB of a triple of bases."""
    return estimation_fidelity(
        triple.bases,
        mode=mode,
        design=design,
        estimator_source=estimator_source,
    ).fidelity


def fidelity_scan(x, y_values, z_values, mode="ideal", design=None,
                  estimator_source="matched"):
    """F_MUB over a (y, z) grid at fixed x.  Returns rows (x, y, z, F) in grid order."""
    return [
        (x, y, z, triple_fidelity(mub_triple(x, y, z), mode=mode, design=design,
                                  estimator_source=estimator_source))
        for y in y_values
        for z in z_values
    ]
