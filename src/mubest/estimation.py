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
also drives the sampler.  Q is evaluated over the Clifford orbit (an exact
4-design) in ideal mode and over a given design in empirical mode, where the
sum is the design's stand-in Q'; the design, when given, is also the set of
states that are scored, in either mode.  `_q_operators` is the only place Q is
formed: one tuple of bases' Born weights go into an outcome-major (d^N, K)
array, so the product with the design's projectors, formed once per set of
states that a call needs, is one GEMM with no transpose and no K-sized temporary.
`_top_eigenspaces` turns a Q stack into its estimators rhohat_o, the
normalized top-eigenspace projectors; `estimator_tables` hands them to the
sampler as real (re, im) rows, which it scores against `_state_projectors` of
the states it draws, and `fidelities` is the only code that turns Q into a
fidelity, as sum_o tr(Q'_o rhohat_o) over the scored states for the matched
and the standard estimators alike.
"""

import math
import warnings

import numpy as np

from .designs import default_design
from .errors import ContractViolationError
from .linalg import symmetric_dimension
from .mub import born_probabilities, mub_triple

DEGENERACY_TOL = 1e-9


def _top_eigenspaces(q):
    """The (n, d, d) estimator densities: each Q's normalized top-eigenspace projector.

    Eigenvalues within DEGENERACY_TOL * ||Q|| of the maximum are grouped, which
    keeps the estimator well defined at symmetric parameter points.  Raises if
    any Q is numerically zero: its estimator is undefined.
    """
    w, v = np.linalg.eigh(q)
    top = w[:, -1]
    if np.any(top <= DEGENERACY_TOL):
        raise ContractViolationError("Q operator is numerically zero")
    members = w >= (top - DEGENERACY_TOL * top)[:, None]
    vs = v * members[:, None, :]
    return vs @ vs.conj().swapaxes(1, 2) / members.sum(axis=1)[:, None, None]


def _state_projectors(states):
    """C-ordered rows |psi_j><psi_j| of the columns of `states`, as (K, 2 d*d) (re, im) pairs.

    The float view lets real weights multiply them without a complex copy.
    """
    v = np.ascontiguousarray(states.T)
    return (v[:, :, None] * v.conj()[:, None, :]).reshape(len(v), -1).view(float)


def _q_operators(measurements, design, projectors):
    """Q over `design` of each joint outcome of the N bases, as (d^N, d, d).

    `projectors` is `_state_projectors(design.states)`.
    """
    N, d, K = len(measurements), design.dim, design.size
    if N not in (1, 2, 3):
        raise ValueError("need 1 to 3 measurements")
    if design.t < N + 1:
        warnings.warn(
            f"design strength t={design.t} < N+1={N+1}; Q' may be inaccurate",
            stacklevel=3,
        )
    if any(m.dim != d for m in measurements):
        raise ContractViolationError(f"measurements do not act on dimension {d}")
    # w[o, j] = prod_i |<v_{i,o_i}|psi_j>|^2, rows in np.ndindex order, multiplied
    # in place in the order of the bases: ((p_1 p_2) p_3) whatever the layout
    w = np.empty((d,) * N + (K,))
    for i, basis in enumerate(measurements):
        # born_probabilities returns (K, d) in Fortran order: .T is a C-ordered (d, K) view
        axes = (1,) * i + (d,) + (1,) * (N - 1 - i) + (K,)
        p = born_probabilities(basis, design.states).T.reshape(axes)
        if i == 0:
            w[...] = p
        else:
            w *= p
    sums = w.reshape(d**N, K) @ projectors
    scale = math.factorial(N + 1) * symmetric_dimension(d, N + 1) / K
    return (scale * sums.view(complex)).reshape(-1, d, d)


def _designs(mode, design):
    """(scored design, Q's design) of a call's mode and design.

    Q depends on the states alone: Q's design is the scored design itself when
    their states are equal, one object or a loaded copy, and then Q' = Q bit for bit.
    A scored design of another dimension than Q's fits no measurements: it is rejected.
    """
    if mode not in ("ideal", "empirical"):
        raise ValueError(f"unknown mode {mode!r}")
    q_design = default_design() if mode == "ideal" or design is None else design
    design = q_design if design is None else design
    if design.dim != q_design.dim:
        raise ContractViolationError(f"measurements do not act on dimension {design.dim}")
    if q_design is not design and np.array_equal(q_design.states, design.states):
        q_design = design
    return design, q_design


def estimator_tables(measurements, design, mode="ideal"):
    """The optimal estimators of N bases, as a (d^N, 2 d*d) float array.

    Row o holds rhohat_o for joint outcome o in np.ndindex order (o = 16 j + 4 k + l
    for three copies) as the (re, im) pairs of its C-ordered entries, so a row
    of `_state_projectors` times it is Re tr(rho rhohat_o) = <psi| rhohat_o |psi>
    with no complex temporary.  The estimators come from Q over the Clifford
    orbit (ideal) or `design` (empirical); `design` is checked as `fidelities`
    checks it, and only Q's design is projected.
    """
    _, q_design = _designs(mode, design)
    q = _q_operators(measurements, q_design, _state_projectors(q_design.states))
    return _top_eigenspaces(q).reshape(len(q), -1).view(float)


def estimation_fidelity(measurements, mode="ideal", design=None):
    """Estimation fidelity of a product of rank-1 projective measurements, one per basis.

    `fidelities` of one tuple.  Ideal mode with a design other than the
    Clifford orbit scores the "standard estimators": suboptimal, hence slightly
    lower than empirical mode's value.
    """
    return fidelities([measurements], mode, design)[0]


def triple_fidelity(triple, mode="ideal", design=None):
    """Three-copy estimation fidelity F_MUB of a triple of bases."""
    return estimation_fidelity(triple.bases, mode, design)


def fidelities(items, mode="ideal", design=None):
    """Estimation fidelity of each tuple of bases in `items`, which may be any iterable.

    `design` is the set of states scored (None: the Clifford orbit), and
    `mode` picks the Q the estimators come from: the Clifford orbit
    ("ideal") or `design` ("empirical").  Each tuple scores
    sum_o tr(Q'_o rhohat_o) / ((N+1)! D_{N+1}): Q' over `design`, rhohat the
    top-eigenspace densities of Q, which is Q' when the designs hold equal states.
    The orbit's Q' is Q, so it gives the same bits implied, named or copied,
    in either mode.  A zero Q raises; an outcome where only Q' is zero adds 0.
    Projectors are formed once and Q one tuple at a time, so memory does not
    grow with the tuples.
    """
    design, q_design = _designs(mode, design)
    projectors = _state_projectors(design.states)  # each set of states projected once
    q_projectors = projectors if q_design is design else _state_projectors(q_design.states)
    result = []
    for measurements in items:
        q = _q_operators(measurements, design, projectors)
        q_est = q if q_design is design else _q_operators(measurements, q_design, q_projectors)
        values = np.einsum("oab,oba->o", q, _top_eigenspaces(q_est)).real
        N = len(measurements)
        result.append(float(values.sum())
                      / (math.factorial(N + 1) * symmetric_dimension(design.dim, N + 1)))
    return result


def fidelity_scan(x, y_values, z_values, mode="ideal", design=None, bases=(0, 1, 2)):
    """F over a (y, z) grid at fixed x, measuring the triple's `bases` (0=A, 1=B, 2=C).

    `mode` and `design` mean what they mean in `fidelities`.  The default
    bases give F_MUB; a pair gives a two-copy fidelity.  Returns rows
    (x, y, z, F) in grid order.
    """
    triples = [mub_triple(x, y, z) for y in y_values for z in z_values]
    values = fidelities(([t.bases[i] for i in bases] for t in triples), mode, design)
    return [(x, t.y, t.z, f) for t, f in zip(triples, values)]
