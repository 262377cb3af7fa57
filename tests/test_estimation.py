import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F3_SYMMETRIC
from mubest import estimation
from mubest.designs import StateDesign, default_design, load_design, moment_operator, save_design
from mubest.estimation import (
    _q_operators,
    _state_projectors,
    _top_eigenspaces,
    estimation_fidelity,
    fidelities,
    fidelity_scan,
    triple_fidelity,
)
from mubest.errors import ContractViolationError, DimensionMismatchError
from mubest.linalg import symmetric_dimension
from mubest.mub import (
    OrthonormalBasis,
    haar_random_unitary,
    mub_triple,
    transform_triple,
)
from reference import moment_matrix, product_effects, q_operator, top_eigenspace

HALF = math.pi / 2
SEEDS = st.integers(0, 2**32 - 1)
ANGLES = st.floats(0.0, 2 * math.pi)
COPIES = st.sampled_from([1, 2, 3])


def random_measurements(rng, N):
    return [OrthonormalBasis(haar_random_unitary(4, rng)) for _ in range(N)]


def q_stack(measurements, design=None):
    """The (d^N, d, d) Q over `design` (default: the Clifford orbit), as the library forms it."""
    design = default_design() if design is None else design
    return _q_operators(measurements, design, _state_projectors(design.states))


def test_q_operator_shape_and_hermiticity(rng):
    for N in (1, 2):
        qs = q_stack(random_measurements(rng, N))
        assert qs.shape == (4**N, 4, 4)
        for q in qs:
            assert np.allclose(q, q.conj().T)
            w = np.linalg.eigvalsh(q)
            assert w[0] >= -1e-10  # positive semidefinite
            # so its operator norm is its largest eigenvalue
            assert abs(np.linalg.norm(q, 2) - w[-1]) <= 1e-12 * w[-1]


def test_q_operator_resolution_of_identity(rng):
    # summing Q over a complete projective measurement gives
    # (N+1)! tr_{1..N}[P_{N+1}], a multiple of the identity
    d, N = 4, 1
    triple = mub_triple(HALF, HALF, HALF)
    total = q_stack([triple.basis_b]).sum(axis=0)
    D = symmetric_dimension(d, N + 1)
    expected = math.factorial(N + 1) * D / d
    assert np.allclose(total, expected * np.eye(d), atol=1e-10)


def test_q_operator_input_checks(rng):
    qubit = OrthonormalBasis(haar_random_unitary(2, rng))
    with pytest.raises(DimensionMismatchError):
        q_stack([qubit])
    with pytest.raises(ValueError):
        q_stack([])


def test_optimal_estimator_properties(rng):
    qs = q_stack(random_measurements(rng, 2))
    for q, rho in zip(qs, _top_eigenspaces(qs)):
        norm = np.linalg.eigvalsh(q)[-1]
        assert np.allclose(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        # achieves the operator norm
        assert abs(np.trace(q @ rho).real - norm) <= 1e-9 * norm


def test_optimal_estimator_degenerate_top_space():
    # a Q that is a multiple of the identity: the whole space is the top
    # eigenspace and the estimator is maximally mixed
    q = np.array([c * np.eye(4, dtype=complex) for c in (0.5, 1.0, 3.0)])
    densities = _top_eigenspaces(q)
    assert densities.shape == (3, 4, 4)
    assert np.allclose(densities, np.eye(4) / 4, atol=1e-12)
    # each estimator spans all 4 dimensions and attains its Q's norm
    assert np.allclose(np.einsum("oab,oba->o", densities, densities).real, 1 / 4, atol=1e-12)
    assert np.allclose(np.einsum("oab,oba->o", q, densities).real, [0.5, 1.0, 3.0], rtol=1e-12)


def test_single_copy_single_basis_fidelity():
    triple = mub_triple(HALF, HALF, HALF)
    report = estimation_fidelity([triple.basis_a])
    assert abs(report - 0.4) <= 1e-10


def test_two_copy_pair_fidelity():
    triple = mub_triple(HALF, HALF, HALF)
    ms = triple.bases
    for pair in [(0, 1), (0, 2), (1, 2)]:
        f = estimation_fidelity([ms[pair[0]], ms[pair[1]]])
        assert abs(f - 7.0 / 15.0) <= 1e-10


def test_three_copy_symmetric_point(symmetric_triple):
    assert abs(triple_fidelity(symmetric_triple) - F3_SYMMETRIC) <= 1e-10


def test_three_copy_sample_grid_points():
    # two entries of the published ideal table, x = pi/2
    assert abs(triple_fidelity(mub_triple(HALF, HALF, 0.0)) - 0.5103) <= 5e-5
    assert abs(triple_fidelity(mub_triple(HALF, 0.0, 0.0)) - 0.5000) <= 5e-5


def test_empirical_projector_of_exact_design(design960):
    # the design identity behind _q_operators: (D_4/K) sum_j (|psi_j><psi_j|)^{x4} = P_4,
    # that is, the sum restricted to the symmetric subspace is (K/D_4) I
    R, _ = moment_operator(design960, 4)
    D = symmetric_dimension(4, 4)
    assert R.shape == (D, D)
    assert np.max(np.abs(D / design960.size * R - np.eye(D))) <= 1e-8
    assert abs(np.trace(R).real - design960.size) <= 1e-6


def test_empirical_matches_ideal_for_clifford_design(design960, symmetric_triple):
    f_emp = triple_fidelity(symmetric_triple, mode="empirical", design=design960)
    assert abs(f_emp - F3_SYMMETRIC) <= 1e-8


def test_empirical_standard_estimator_not_larger():
    # the ideal-Q estimator scored against Q' can only do worse than Q's own
    from mubest.designs import optimize_design

    d = optimize_design(40, 4, 4, seed=9, max_iters=400)
    triple = mub_triple(HALF, HALF, HALF)
    matched = triple_fidelity(triple, mode="empirical", design=d)
    standard = triple_fidelity(triple, mode="ideal", design=d)
    assert standard <= matched + 1e-12


def test_empirical_mode_without_design_is_ideal(symmetric_triple):
    # no design means the Clifford orbit, whose Q is the ideal Q
    assert (triple_fidelity(symmetric_triple, mode="empirical")
            == triple_fidelity(symmetric_triple, mode="ideal"))
    with pytest.raises(ValueError):
        triple_fidelity(symmetric_triple, mode="nonsense")


def test_q_empirical_warns_on_weak_design(design960):
    weak = StateDesign(t=1, states=design960.states[:, :50])
    basis_b = mub_triple(HALF, HALF, HALF).basis_b
    with pytest.warns(UserWarning):
        estimation_fidelity([basis_b], mode="empirical", design=weak)


def test_incomplete_measurement_rejected():
    # a measurement is its basis, so an incomplete or overcomplete one can
    # only arrive as a non-square matrix, which the basis rejects by shape
    columns = mub_triple(HALF, HALF, HALF).basis_b.vectors
    for vectors in (columns[:, :3], np.hstack([columns, columns[:, :1]])):
        with pytest.raises(ContractViolationError, match=rf"\(4, {vectors.shape[1]}\)"):
            OrthonormalBasis(vectors)


def test_fidelity_scan_grid_order():
    ys = [0.0, HALF]
    zs = [0.0, HALF]
    rows = fidelity_scan(HALF, ys, zs)
    assert [row[:3] for row in rows] == [(HALF, y, z) for y in ys for z in zs]
    assert rows[3][3] == triple_fidelity(mub_triple(HALF, HALF, HALF))
    pair = fidelity_scan(HALF, ys, zs, bases=(1, 2))
    assert pair[3][3] == estimation_fidelity(mub_triple(HALF, HALF, HALF).bases[1:])


@settings(max_examples=12, deadline=None)
@given(seed=SEEDS, N=COPIES)
def test_q_operators_match_reference(seed, N):
    measurements = random_measurements(np.random.default_rng(seed), N)
    qs = q_stack(measurements)
    densities = _top_eigenspaces(qs)
    for o, effect in enumerate(product_effects(measurements)):
        q = q_operator(effect, N, 4)
        assert np.max(np.abs(qs[o] - q)) <= 1e-12
        assert abs(np.linalg.eigvalsh(qs[o])[-1] - np.linalg.eigvalsh(q)[-1]) <= 1e-12
        assert np.max(np.abs(densities[o] - top_eigenspace(q)[0])) <= 1e-10


@settings(max_examples=12, deadline=None)
@given(seed=SEEDS, N=COPIES, K=st.integers(10, 30))
def test_empirical_mode_matches_moment_operator(seed, N, K):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((4, K)) + 1j * rng.standard_normal((4, K))
    design = StateDesign(t=4, states=V / np.linalg.norm(V, axis=0))
    measurements = random_measurements(rng, N)
    M = moment_matrix(design, N + 1)
    D = symmetric_dimension(4, N + 1)
    Pp = (D / K * M).reshape(4**N, 4, 4**N, 4)
    qs = q_stack(measurements, design)
    matched = standard = 0.0
    for o, effect in enumerate(product_effects(measurements)):
        q = math.factorial(N + 1) * np.einsum("xayb,yx->ab", Pp, effect)
        assert np.max(np.abs(qs[o] - q)) <= 1e-12
        matched += np.linalg.eigvalsh(q)[-1]
        ideal = top_eigenspace(q_operator(effect, N, 4))[0]
        standard += np.trace(q @ ideal).real
    scale = math.factorial(N + 1) * D
    F = estimation_fidelity(measurements, mode="empirical", design=design)
    assert abs(F - matched / scale) <= 1e-12
    F_std = estimation_fidelity(measurements, mode="ideal", design=design)
    assert abs(F_std - standard / scale) <= 1e-12


@settings(max_examples=12, deadline=None)
@given(x=ANGLES, y=ANGLES, z=ANGLES, seed=SEEDS)
def test_fidelity_unitarily_invariant(x, y, z, seed):
    triple = mub_triple(x, y, z)
    moved = transform_triple(triple, haar_random_unitary(4, np.random.default_rng(seed)))
    assert abs(triple_fidelity(moved) - triple_fidelity(triple)) <= 1e-12


@pytest.mark.parametrize("params", [(HALF, HALF, HALF), (HALF, 0.0, 0.0)])
def test_support_dims_at_symmetric_points(params):
    # the estimators are the reference's top-eigenspace projectors; at (pi/2, 0, 0)
    # 16 outcomes have a 2-dimensional top eigenspace, which must be grouped
    measurements = mub_triple(*params).bases
    densities = _top_eigenspaces(q_stack(measurements))
    reference = [top_eigenspace(q_operator(e, 3, 4)) for e in product_effects(measurements)]
    degenerate = {(HALF, HALF, HALF): 0, (HALF, 0.0, 0.0): 16}[params]
    assert sum(support > 1 for _, support in reference) == degenerate
    for rho, (expected, support) in zip(densities, reference):
        assert np.max(np.abs(rho - expected)) <= 1e-10
        # a normalized projector of rank `support` has purity 1 / support
        assert abs(np.trace(rho @ rho).real - 1 / support) <= 1e-10


def haar_tuples(seed, N, count):
    """`count` Haar-transformed MUB triples' bases, cut to their first N, made lazily."""
    rng = np.random.default_rng(seed)
    base = mub_triple(HALF, 0.3, 1.1)
    for _ in range(count):
        yield transform_triple(base, haar_random_unitary(4, rng)).bases[:N]


@pytest.fixture(scope="module")
def partial_design(design960):
    # every seventh orbit state: Q' differs from Q, so the two passes differ
    return StateDesign(t=4, states=design960.states[:, ::7])


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("with_design", [True, False], ids=["design", "no_design"])
@pytest.mark.parametrize("mode", ["ideal", "empirical"])
def test_fidelities_same_bits_as_estimation_fidelity(partial_design, N, with_design, mode):
    design = partial_design if with_design else None
    items = list(haar_tuples(N, N, 101))
    expected = [estimation_fidelity(bases, mode, design) for bases in items]
    for count in (1, 8, 9, 101):
        got = fidelities(iter(items[:count]), mode, design)
        assert got == expected[:count]


def test_fidelities_memory_does_not_grow_with_items(partial_design):
    def peak(count):
        tracemalloc.start()
        try:
            fidelities(haar_tuples(0, 3, count), "ideal", partial_design)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm-up: first-call allocations inside numpy
    # 99 more tuples may add their 99 floats to the result, not their Q or weights
    assert peak(101) <= peak(2) + 16 * 1024


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("every", [1, 7])
def test_fidelities_and_outcome_tables_share_q(design960, N, every):
    # the fidelity is sum_o tr(Q_o rhohat_o) of each outcome's Q and density, to the bit,
    # over any design
    design = StateDesign(t=4, states=design960.states[:, ::every])
    denominator = math.factorial(N + 1) * symmetric_dimension(4, N + 1)
    for bases in haar_tuples(every + N, N, 16):
        q = q_stack(bases, design)
        scores = np.einsum("oab,oba->o", q, _top_eigenspaces(q)).real
        assert fidelities([bases], "empirical", design) == [float(scores.sum()) / denominator]


@pytest.mark.parametrize("N", [2, 3])
def test_fidelities_same_bits_however_the_orbit_is_named(N):
    # the Clifford orbit is an exact 4-design, so Q' over it is Q: implied,
    # named, copied or taken as the empirical design, it scores the same bits
    orbit = default_design()
    copy = StateDesign(t=4, states=orbit.states.copy())
    items = [mub_triple(HALF, y, z).bases[:N]
             for y in (HALF, 0.0) for z in np.linspace(0.0, math.pi, 9)]
    expected = fidelities(items, "ideal", None)
    for mode, design in (("ideal", orbit), ("ideal", copy), ("empirical", copy),
                         ("empirical", None)):
        assert fidelities(items, mode, design) == expected, (mode, design)


def test_fidelities_form_q_once_for_equal_states(monkeypatch, tmp_path):
    # a loaded copy of the orbit holds the orbit's states, so its Q' is Q:
    # ideal mode over it forms one Q per tuple, as over the orbit itself
    save_design(default_design(), tmp_path / "clifford.json")
    loaded = load_design(tmp_path / "clifford.json")
    part = StateDesign(t=4, states=loaded.states[:, :100])
    items = [mub_triple(HALF, y, HALF).bases for y in (HALF, 0.0, 1.0)]
    expected = fidelities(items, "ideal", None)
    calls = []
    q_operators = estimation._q_operators
    monkeypatch.setattr(estimation, "_q_operators",
                        lambda *args: calls.append(args[1]) or q_operators(*args))
    assert fidelities(items, "ideal", loaded) == expected
    assert calls == [loaded] * len(items)
    calls.clear()
    fidelities(items, "ideal", part)  # other states: Q over the orbit, Q' over the part
    assert len(calls) == 2 * len(items) and calls.count(part) == len(items)


@pytest.mark.parametrize("function", ["estimator_tables", "fidelities"])
def test_projectors_formed_once_per_state_set(function, monkeypatch, tmp_path, partial_design):
    # both functions set up their designs alike: each distinct set of states, the
    # scored design's and Q's, is projected once per call, whatever the design's name
    save_design(default_design(), tmp_path / "clifford.json")
    loaded = load_design(tmp_path / "clifford.json")
    bases = mub_triple(HALF, 0.3, 1.1).bases
    calls = []
    projectors = estimation._state_projectors
    monkeypatch.setattr(estimation, "_state_projectors",
                        lambda states: calls.append(states) or projectors(states))
    for mode, design, count in (("ideal", default_design(), 1), ("empirical", partial_design, 1),
                                ("ideal", partial_design, 2), ("ideal", loaded, 1)):
        calls.clear()
        if function == "fidelities":
            fidelities([bases, bases[:2]], mode, design)
        else:
            estimation.estimator_tables(bases, design, mode)
        assert len(calls) == count, (mode, design.size)


def test_fidelities_checks(design960):
    triple = mub_triple(HALF, HALF, HALF)
    with pytest.raises(ValueError, match="unknown mode"):
        fidelities([triple.bases], mode="nonsense")
    weak = StateDesign(t=1, states=design960.states[:, :50])
    with pytest.warns(UserWarning, match=r"t=1 < N\+1=4"):
        fidelities([triple.bases], mode="empirical", design=weak)
    # each tuple has its own N, so a call may mix three- and two-copy tuples
    assert fidelities([triple.bases, triple.bases[:2]]) == [
        estimation_fidelity(triple.bases), estimation_fidelity(triple.bases[:2])]
    # a single state: every outcome but one has zero weight, so its Q is zero
    basis = OrthonormalBasis(np.eye(4, dtype=complex))
    single = StateDesign(t=4, states=np.eye(4, 1, dtype=complex))
    with pytest.raises(ContractViolationError, match="numerically zero"):
        fidelities([(basis,)], mode="empirical", design=single)
    # Born probabilities of a state of norm 2 sum to 4
    double = StateDesign(t=4, states=2 * design960.states[:, :40])
    with pytest.raises(ContractViolationError, match="do not sum to 1"):
        fidelities([triple.bases], mode="empirical", design=double)
