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
sum is the design's stand-in Q'.  `_QStack` is the only place Q is formed:

- it flattens the design's projectors once, and forms each tuple of bases'
  Born weights in one outcome-major (d^N, K) buffer, so the product with
  the projectors is one GEMM per tuple with no transpose and no K-sized
  temporary;
- `outcome_tables` takes it for one tuple and keeps Q's top eigenspaces;
  `estimator_tables` scores their densities against a design's states with
  `expectations`, the lookup table the sampler's counts are scored with;
- `fidelities` is the only code that turns Q into a fidelity.  It takes Q for
  up to `_STACK_ITEMS` tuples at a time and runs one batched `eigh` over
  their stack; `estimation_fidelity` is `fidelities` of one tuple.

Batching does not change a fidelity's bits: every tuple's GEMM keeps its
shape, and `eigh` of a stack is `eigh` of each matrix.
"""

import itertools
import math
import warnings

import numpy as np

from .designs import default_design
from .errors import ContractViolationError, DimensionMismatchError
from .linalg import symmetric_dimension
from .mub import born_probabilities, mub_triple

DEGENERACY_TOL = 1e-9
# tuples of bases whose Q share one eigh in `fidelities`: enough to amortize
# the per-call cost, few enough that no scan's peak memory rises
_STACK_ITEMS = 8


class OutcomeTables:
    """Q and its top eigenspace for each of the d^N joint outcomes.

    Outcomes are in np.ndindex order over the measurements, so the first
    measurement's outcome is the most significant digit.
    """

    __slots__ = ("q", "norms", "densities", "support", "gaps")

    def __init__(self, q, norms, densities, support, gaps):
        self.q = q  # (d^N, d, d)
        self.norms = norms  # (d^N,) largest eigenvalue of each Q
        self.densities = densities  # (d^N, d, d) normalized top-eigenspace projectors
        self.support = support  # (d^N,) top-eigenspace dimensions
        self.gaps = gaps  # (d^N,) distance to the next eigenvalue, 0 if none


def _checked_eigh(q):
    """eigh of a stack of Q; raises if any Q is numerically zero."""
    w, v = np.linalg.eigh(q)
    if np.any(w[:, -1] <= DEGENERACY_TOL):
        raise ContractViolationError("Q operator is numerically zero")
    return w, v


def _top_eigenspaces(q):
    """Batched top eigenvalue, estimator density, support dimension and gap.

    Eigenvalues within DEGENERACY_TOL * ||Q|| of the maximum are grouped, which
    keeps the estimator well defined at symmetric parameter points.
    """
    w, v = _checked_eigh(q)
    top = w[:, -1]
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


def expectations(densities, states):
    """f[k, o] = <psi_k| rho_o |psi_k> for densities (n, d, d) and columns of `states`."""
    flat = np.ascontiguousarray(densities).reshape(len(densities), -1)
    # Re tr(rho P) as one real product over (re, im) pairs: no complex (K, n) temporary
    return _state_projectors(states).view(float) @ flat.view(float).T


class _QStack:
    """Q over one design for tuples of N bases, up to `items` tuples per stack.

    The projectors, the Born-weight buffer and the stack of unscaled sums are
    allocated once; a call writes one GEMM per tuple into the stack.
    """

    def __init__(self, design, N, items):
        if N not in (1, 2, 3):
            raise ValueError("need 1 to 3 measurements")
        if design.t < N + 1:
            warnings.warn(
                f"design strength t={design.t} < N+1={N+1}; Q' may be inaccurate",
                stacklevel=3,
            )
        d, K = design.dim, design.size
        self.design, self.N = design, N
        self.scale = math.factorial(N + 1) * symmetric_dimension(d, N + 1) / K
        # (re, im) pairs, so the real weights are never cast to a complex copy
        self.projectors = _state_projectors(design.states).view(float)
        self.weights = np.empty((d**N, K))
        self.sums = np.empty((items, d**N, 2 * d * d))

    def __call__(self, batch):
        """Q of each tuple of bases in `batch`, stacked as (len(batch) d^N, d, d)."""
        d, K, N = self.design.dim, self.design.size, self.N
        w = self.weights.reshape((d,) * N + (K,))
        for measurements, out in zip(batch, self.sums):
            if len(measurements) != N:
                raise ValueError(f"need {N} measurements in every tuple")
            if any(m.dim != d for m in measurements):
                raise DimensionMismatchError(f"measurements do not act on dimension {d}")
            # w[o, j] = prod_i |<v_{i,o_i}|psi_j>|^2, rows in np.ndindex order, multiplied
            # in place in the order of the bases: ((p_1 p_2) p_3) whatever the layout
            for i, basis in enumerate(measurements):
                # born_probabilities returns (K, d) in Fortran order: .T is a C-ordered (d, K) view
                axes = (1,) * i + (d,) + (1,) * (N - 1 - i) + (K,)
                p = born_probabilities(basis, self.design.states).T.reshape(axes)
                if i == 0:
                    w[...] = p
                else:
                    w *= p
            np.matmul(self.weights, self.projectors, out=out)
        return (self.scale * self.sums[:len(batch)].view(complex)).reshape(-1, d, d)


def _validated_design(mode, design, estimator_source):
    """The design Q is taken over in `mode`; ValueError for a bad mode or source."""
    if mode == "ideal":
        design = default_design()
    elif mode != "empirical":
        raise ValueError(f"unknown mode {mode!r}")
    elif design is None:
        raise ValueError("empirical mode requires a design")
    if estimator_source not in ("matched", "ideal"):
        raise ValueError(f"unknown estimator source {estimator_source!r}")
    return design


def outcome_tables(measurements, design):
    """Q over `design` and its top eigenspaces for every joint outcome of the bases.

    One batched eigendecomposition of the (d^N, d, d) stack gives the norms,
    the estimator densities, the support dimensions and the gaps.
    """
    q = _QStack(design, len(measurements), 1)([measurements])
    norms, densities, support, gaps = _top_eigenspaces(q)
    return OutcomeTables(q=q, norms=norms, densities=densities, support=support, gaps=gaps)


def estimator_tables(measurements, design, mode="ideal"):
    """(K, d^N) fidelity lookup table of the optimal estimators of N bases.

    f_table[i, o] = <psi_i| rhohat_o |psi_i> for joint outcome o in np.ndindex
    order (o = 16 j + 4 k + l for three copies).
    """
    q_design = _validated_design(mode, design, "matched")
    return expectations(outcome_tables(measurements, q_design).densities, design.states)


def estimation_fidelity(measurements, mode="ideal", design=None,
                        estimator_source="matched"):
    """Estimation fidelity of a product of rank-1 projective measurements, one per basis.

    Ideal mode takes Q over the Clifford-orbit 4-design (equal to the exact
    symmetric-projector Q) and ignores `design`; empirical mode takes Q' over
    `design`.  With estimator_source="ideal" in empirical mode, the estimator
    comes from the ideal Q's top eigenspace but is scored against Q' (the
    "standard estimator": suboptimal, hence a slightly lower value).
    """
    return fidelities([measurements], mode, design, estimator_source)[0]


def triple_fidelity(triple, mode="ideal", design=None, estimator_source="matched"):
    """Three-copy estimation fidelity F_MUB of a triple of bases."""
    return estimation_fidelity(triple.bases, mode, design, estimator_source)


def fidelities(items, mode="ideal", design=None, estimator_source="matched"):
    """Estimation fidelity of each tuple of N bases in `items`, one Q pass per design.

    `items` may be any iterable; it is read `_STACK_ITEMS` tuples at a time,
    and each such batch's Q go through one `eigh`, so memory does not grow
    with the number of tuples.  Each value has the same bits whatever the
    batch it falls in, because `eigh` of a stack is `eigh` of each matrix.
    Empirical mode with estimator_source="ideal" runs a second pass over the
    Clifford orbit for the estimators.
    """
    design = _validated_design(mode, design, estimator_source)
    items = iter(items)
    batch = list(itertools.islice(items, _STACK_ITEMS))
    if not batch:
        return []
    # the first batch is full unless it is the only one, so no stack outgrows it
    N, items_per_stack = len(batch[0]), len(batch)
    stack = _QStack(design, N, items_per_stack)
    standard = None
    if mode == "empirical" and estimator_source == "ideal":
        standard = _QStack(default_design(), N, items_per_stack)
    denominator = math.factorial(N + 1) * symmetric_dimension(design.dim, N + 1)

    def batch_fidelities(batch):
        # a function, so that one batch's stacks are freed before the next is formed
        q = stack(batch)
        values = _checked_eigh(q)[0][:, -1]
        if standard is not None:
            densities = _top_eigenspaces(standard(batch))[1]
            values = np.einsum("oab,oba->o", q, densities).real
        return [float(v.sum()) / denominator for v in values.reshape(len(batch), -1)]

    result = []
    while batch:
        result += batch_fidelities(batch)
        batch = list(itertools.islice(items, _STACK_ITEMS))
    return result


def fidelity_scan(x, y_values, z_values, mode="ideal", design=None,
                  estimator_source="matched", bases=(0, 1, 2)):
    """F over a (y, z) grid at fixed x, measuring the triple's `bases` (0=A, 1=B, 2=C).

    The default gives F_MUB; a pair gives a two-copy fidelity.  Returns rows
    (x, y, z, F) in grid order.
    """
    triples = [mub_triple(x, y, z) for y in y_values for z in z_values]
    values = fidelities(([t.bases[i] for i in bases] for t in triples), mode, design,
                        estimator_source)
    return [(x, t.y, t.z, f) for t, f in zip(triples, values)]
