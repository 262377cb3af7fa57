import math
from types import SimpleNamespace

import numpy as np
import pytest

from mubest.errors import ContractViolationError
from mubest.linalg import is_unitary
from mubest.mub import (
    MubTriple,
    OrthonormalBasis,
    born_probabilities,
    controlled_phase,
    haar_random_unitary,
    hadamard_b,
    hadamard_c,
    mub_triple,
    transform_triple,
    unbiasedness_report,
)

HALF = math.pi / 2


def test_hadamard_b_is_complex_hadamard():
    for x in [0.0, 0.3, HALF, 2.5]:
        M = hadamard_b(x)
        assert np.allclose(np.abs(M), 0.25**0.5 * np.ones((4, 4)))
        assert np.allclose(M.conj().T @ M, np.eye(4), atol=1e-12)


def test_hadamard_c_is_complex_hadamard():
    for y, z in [(0.0, 0.0), (HALF, HALF), (0.7, 2.1)]:
        M = hadamard_c(y, z)
        assert np.allclose(np.abs(M), 0.5 * np.ones((4, 4)))
        assert np.allclose(M.conj().T @ M, np.eye(4), atol=1e-12)


def test_hadamard_b_explicit_x_zero():
    M = hadamard_b(0.0)
    expected = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, 1j, -1, -1j],
            [1, -1, 1, -1],
            [1, -1j, -1, 1j],
        ]
    )
    assert np.allclose(M, expected, atol=1e-15)


def test_triple_unbiased_on_grid():
    for x in [0.0, HALF]:
        for y in [0.0, HALF]:
            for z in [0.0, math.pi / 8, HALF, math.pi]:
                triple = mub_triple(x, y, z)
                assert unbiasedness_report(triple) <= 1e-10


def test_triple_unbiased_random_params(rng):
    for _ in range(20):
        x, y, z = rng.uniform(0, math.pi, size=3)
        assert unbiasedness_report(mub_triple(x, y, z)) <= 1e-10


def test_triple_records_params():
    t = mub_triple(0.1, 0.2, 0.3)
    assert (t.x, t.y, t.z) == (0.1, 0.2, 0.3)
    assert len(t.bases) == 3
    assert np.array_equal(t.basis_a.vectors, np.eye(4))


def test_orthonormal_basis_rejects_bad_columns():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 0.5
    with pytest.raises(ContractViolationError):
        OrthonormalBasis(bad)


@pytest.mark.parametrize("deviation, unitary", [(5e-11, True), (5e-10, False)])
def test_orthonormal_basis_checks_unitarity(rng, deviation, unitary):
    # the basis checks its columns through linalg's unitarity test: the two
    # accept and reject the same matrices
    for u in (np.eye(4, dtype=complex), hadamard_b(0.3), haar_random_unitary(4, rng)):
        m = math.sqrt(1 + deviation) * u
        assert abs(np.max(np.abs(m.conj().T @ m - np.eye(4))) - deviation) <= 1e-15
        assert bool(is_unitary(m)) is unitary
        # orthonormal columns but not square: no unitary, whatever the gram matrix
        assert not is_unitary(m[:, :3])
        if unitary:
            assert OrthonormalBasis(m).vectors is m
        else:
            with pytest.raises(ContractViolationError, match="not unitary"):
                OrthonormalBasis(m)


def test_transposed_hadamard_fails_unbiasedness(monkeypatch):
    # the row/column transposition slip of the module docstring: the transpose
    # of hadamard_c is still unitary, but its columns are biased against B's
    monkeypatch.setattr("mubest.mub.hadamard_c", lambda y, z: hadamard_c(y, z).T)
    with pytest.raises(ContractViolationError, match=r"not mutually unbiased \(dev=7.50e-01\)"):
        mub_triple(0.3, 0.7, 1.1)


def test_records_are_read_only(symmetric_triple):
    for record, name in ((symmetric_triple.basis_b, "vectors"), (symmetric_triple, "x"),
                         (symmetric_triple, "basis_c")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_records_take_fields_in_order():
    eye = OrthonormalBasis(np.eye(4, dtype=complex))
    assert eye.dim == 4
    triple = MubTriple(0.1, 0.2, 0.3, eye, eye, eye)
    assert (triple.x, triple.y, triple.z) == (0.1, 0.2, 0.3)
    assert triple.bases == (eye, eye, eye)


def test_records_of_arrays_compare_and_hash_by_identity():
    # a basis holds an array, whose == is not a bool: equal values are distinct records
    for make in (lambda: OrthonormalBasis(np.eye(4)), lambda: mub_triple(1, 1, 1)):
        first, second = make(), make()
        assert first == first and first != second
        assert len({first, second, first}) == 2


def test_nan_angles_rejected():
    with pytest.raises(ContractViolationError):
        OrthonormalBasis(np.full((4, 4), np.nan))
    with pytest.raises(ContractViolationError):
        mub_triple(math.nan, 0.0, 0.0)
    bases = [b.vectors.copy() for b in mub_triple(HALF, HALF, HALF).bases]
    bases[2][0, 0] = math.nan
    triple = SimpleNamespace(bases=[SimpleNamespace(vectors=v) for v in bases])
    assert math.isnan(unbiasedness_report(triple))


def test_transform_preserves_unbiasedness(rng):
    triple = mub_triple(HALF, HALF, HALF)
    u = haar_random_unitary(4, rng)
    assert unbiasedness_report(transform_triple(triple, u)) <= 1e-10


def test_transform_requires_unitary():
    triple = mub_triple(HALF, HALF, HALF)
    with pytest.raises(ContractViolationError):
        transform_triple(triple, np.ones((4, 4)))


def test_measurement_completeness_and_rank(design960):
    # each basis is a complete measurement: the rows of its Born function sum
    # to 1 on the 960-state design, and are |<v_o|psi>|^2
    triple = mub_triple(0.4, 1.1, 2.0)
    states = design960.states
    for basis in triple.bases:
        p = born_probabilities(basis, states)
        assert p.shape == (design960.size, 4)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        for k in (0, 17, 959):
            overlaps = [abs(np.vdot(v, states[:, k])) ** 2 for v in basis.vectors.T]
            assert np.allclose(p[k], overlaps, atol=1e-12)
        # rank one: a basis vector gives its own outcome with certainty
        assert np.allclose(born_probabilities(basis, basis.vectors), np.eye(4), atol=1e-12)


def test_born_probabilities_reject_nan(symmetric_triple, design960):
    states = np.array(design960.states)
    states[2, 5] = np.nan
    # and states of norm 2, whose probabilities sum to 4
    for bad in (states, 2 * design960.states):
        with pytest.raises(ContractViolationError, match="do not sum to 1"):
            born_probabilities(symmetric_triple.basis_a, bad)


def test_controlled_phase():
    u = controlled_phase(HALF)
    assert np.allclose(u, np.diag([1, 1, 1, 1j]))
    assert np.allclose(controlled_phase(0.0), np.eye(4))


def test_haar_unitary_properties(rng):
    for dim in (2, 4):
        u = haar_random_unitary(dim, rng)
        assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


def test_haar_unitary_reproducible():
    a = haar_random_unitary(4, np.random.default_rng(7))
    b = haar_random_unitary(4, np.random.default_rng(7))
    assert np.array_equal(a, b)
