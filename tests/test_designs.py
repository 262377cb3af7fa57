import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from mubest.designs import (
    StateDesign,
    bloch_to_state,
    default_design,
    fiducial_bloch_second_qubit,
    fiducial_state,
    frame_potential,
    frame_potential_gradient,
    load_design,
    moment_operator,
    optimize_design,
    orbit,
    save_design,
)
from mubest.errors import DesignFormatError, InfeasibleDesignError
from mubest.linalg import symmetric_dimension
from reference import moment_matrix, symmetric_projector


def quartic_sum(r):
    return float(np.sum(np.asarray(r) ** 4))


def test_fiducial_bloch_vector():
    r = fiducial_bloch_second_qubit()
    c = math.sqrt(3.0 / 7.0)
    assert np.allclose(
        r, [-math.sqrt(0.5 - 0.5 * c), 0.0, math.sqrt(0.5 + 0.5 * c)]
    )
    assert abs(quartic_sum(r) - 5.0 / 7.0) <= 1e-12


def test_full_clifford_orbit_of_the_fiducial_is_a_4_design(clifford_group):
    # the quartic condition suffices for the 3840-state full-Clifford orbit
    design = orbit(clifford_group, fiducial_state())
    assert design.size == 3840
    assert abs(frame_potential(design, 4) - 1 / 35) <= 1e-13


def test_fiducial_pauli_fourth_moment_is_haar():
    # the Clifford orbit of psi is a 4-design iff sum_P <psi|P|psi>^4 over the 16
    # Hermitian Paulis is its Haar value 16/7 (Zhu, Kueng, Grassl and Gross,
    # arXiv:1609.08172); for a product state it is (1 + sum r1^4)(1 + sum r2^4),
    # and r1 = (1,1,1)/sqrt(3) turns it into the quartic condition sum r2^4 = 5/7
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    psi = fiducial_state()
    moment = sum(np.vdot(psi, np.kron(a, b) @ psi).real ** 4
                 for a in paulis for b in paulis)
    assert abs(moment - 16 / 7) <= 1e-15


def _bloch_angles(r):
    return [math.acos(r[2]), math.atan2(r[1], r[0])]


def _product_state(angles):
    """The product of the qubits at Bloch angles (theta1, phi1, theta2, phi2)."""
    q1, q2 = (bloch_to_state([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])
              for t, p in (angles[:2], angles[2:]))
    return np.kron(q1, q2)


@pytest.mark.parametrize("group, rank", [("restricted_group", 3), ("clifford_group", 1)])
def test_design_residual_jacobian_rank(request, group, rank):
    # The product fiducials whose orbit is a 4-design solve R/|G| - I/35 = 0, R the
    # moment operator of all |G| images (no dedup, so K stays |G| as the fiducial
    # moves).  The restricted group's Sym^4 commutant leaves three real conditions
    # on the four Bloch angles, the Clifford group's one: near the fiducial the
    # solutions form a curve and a 3-manifold.  Step and threshold are fixed in
    # advance: central differences are good to about h^2 and eps/h.
    group = request.getfixturevalue(group)
    h, threshold = 1e-5, 1e-6

    def residual(angles):
        states = group.elements @ _product_state(angles)
        R, _ = moment_operator(StateDesign(4, states.T), 4)
        return (R / len(group) - np.eye(35) / 35).view(float).ravel()

    angles = np.array(_bloch_angles(np.ones(3) / math.sqrt(3))
                      + _bloch_angles(fiducial_bloch_second_qubit()))
    assert np.allclose(_product_state(angles), fiducial_state(), rtol=0, atol=1e-15)
    assert np.max(np.abs(residual(angles))) <= 1e-13
    jacobian = np.stack([(residual(angles + h * e) - residual(angles - h * e)) / (2 * h)
                         for e in np.eye(4)], axis=1)
    s = np.linalg.svd(jacobian, compute_uv=False)
    assert int(np.sum(s > threshold * s[0])) == rank


def test_fiducial_state_is_product_unit_vector():
    psi = fiducial_state()
    assert psi.shape == (4,)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    # product state: the 2x2 amplitude matrix has rank 1
    s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    assert s[1] <= 1e-12


def test_bloch_to_state_poles_and_equator():
    assert np.allclose(bloch_to_state([0, 0, 1]), [1, 0])
    assert np.allclose(bloch_to_state([0, 0, -1]), [0, 1])
    plus = bloch_to_state([1, 0, 0])
    assert np.allclose(np.abs(plus), [1 / math.sqrt(2)] * 2)
    with pytest.raises(ValueError):
        bloch_to_state([0.5, 0, 0])


def test_orbit_length_restricted(orbit960):
    assert orbit960.size == 960
    assert orbit960.dim == 4
    norms = np.linalg.norm(orbit960.states, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_orbit_of_basis_state(restricted_group):
    # |00> has a large stabilizer; orbit is much shorter than the group
    e0 = np.array([1, 0, 0, 0], dtype=complex)
    d = orbit(restricted_group, e0)
    assert 0 < d.size < 960
    assert len(restricted_group) % d.size == 0  # orbit-stabilizer


# sha256 of default_design().states.tobytes(), recorded before the orbit was vectorised
DEFAULT_DESIGN_SHA256 = "3b34f14e083084bcb7dd870c6acb247c418b23cdd61442476d5fb3991a2d0397"


def test_default_design_golden():
    states = default_design().states
    assert states.shape == (4, 960)
    assert hashlib.sha256(states.tobytes()).hexdigest() == DEFAULT_DESIGN_SHA256


def test_default_design_is_the_orbit(orbit960):
    # the pinned copy is the built orbit: its bits, its layout (a GEMM over
    # another layout can give other bits), and the same record around it
    design = default_design()
    assert design.states.tobytes() == orbit960.states.tobytes()
    assert design.states.strides == orbit960.states.strides == (16, 64)
    assert not design.states.flags.writeable
    assert (design.t, design.provenance, design.metadata) == (
        orbit960.t, orbit960.provenance, orbit960.metadata)


@pytest.fixture
def uncached_default_design():
    default_design.cache_clear()
    yield default_design
    default_design.cache_clear()


def test_default_design_builds_no_group(monkeypatch, uncached_default_design):
    def refuse(*args, **kwargs):
        raise AssertionError("a group closure ran")

    monkeypatch.setattr("mubest.groups.generate_group", refuse)
    assert uncached_default_design().size == 960


@pytest.mark.parametrize("damage", ["truncated", "another_shape", "not_unit_norm"])
def test_default_design_rejects_a_damaged_copy(tmp_path, monkeypatch, uncached_default_design,
                                               damage):
    path = tmp_path / "default_design.npy"
    states = default_design().states
    if damage == "truncated":
        np.save(path, states)
        path.write_bytes(path.read_bytes()[:40_000])
    else:
        np.save(path, states[:, :40] if damage == "another_shape" else 2 * states)
    monkeypatch.setattr("mubest.designs._PINNED_ORBIT", str(path))
    uncached_default_design.cache_clear()
    with pytest.raises(DesignFormatError):
        uncached_default_design()


@pytest.mark.parametrize("which", ["fiducial", "basis"])
def test_orbit_keeps_first_occurrences(restricted_group, which):
    psi = fiducial_state() if which == "fiducial" else np.eye(4, dtype=complex)[0]
    seen = {}
    for u in restricted_group:
        v = u @ psi
        pivot = v[np.argmax(np.abs(v) > 1e-8)]
        v = v * (abs(pivot) / pivot)
        key = np.rint(np.stack([v.real, v.imag]) * 1e6).astype(np.int64).tobytes()
        seen.setdefault(key, v)
    expected = np.array(list(seen.values())).T
    assert np.array_equal(orbit(restricted_group, psi).states, expected)


def test_frame_potential_bound_random(rng):
    for _ in range(5):
        V = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
        V /= np.linalg.norm(V, axis=0)
        d = StateDesign(t=4, states=V)
        for t in range(1, 5):
            assert frame_potential(d, t) >= 1.0 / symmetric_dimension(4, t) - 1e-12


@pytest.mark.parametrize("function", [frame_potential, moment_operator])
@pytest.mark.parametrize("K, t, message", [
    (0, 4, "empty design"),
    (5, 0, "t must be >= 1"),
    (5, -1, "t must be >= 1"),
])
def test_frame_operator_rejects_bad_input(rng, function, K, t, message):
    V = rng.standard_normal((4, K)) + 1j * rng.standard_normal((4, K))
    design = StateDesign(t=4, states=V / np.linalg.norm(V, axis=0))
    with pytest.raises(ValueError, match=message):
        function(design, t)


def whole_gram_frame_potential(design, t):
    """The frame potential from the whole complex Gram matrix at once."""
    G = np.abs(design.states.conj().T @ design.states) ** 2
    return float((G**t).sum()) / design.size**2


@pytest.fixture(scope="module")
def design200():
    return optimize_design(K=200, d=4, t=4, seed=0, target=0.0287)


def test_frame_potential_matches_whole_gram(design960, design200, rng):
    designs = [design960, design200]
    for K in [*range(1, 201), 257, 961]:
        V = rng.standard_normal((4, K)) + 1j * rng.standard_normal((4, K))
        designs.append(StateDesign(t=4, states=V / np.linalg.norm(V, axis=0)))
    for design in designs:
        for t in range(1, 5):
            expected = whole_gram_frame_potential(design, t)
            assert abs(frame_potential(design, t) - expected) <= 1e-14 * expected


# sha256 of moment_operator's R bytes at t = 4, recorded when S was built
# column by column: the vectorised type-class amplitudes keep R's bits
MOMENT_OPERATOR_SHA256 = {
    960: "d428aa32fd17839542834e930e53b28981171a9741b77e8ec0244db13f08d1e1",
    200: "41df035199f649035c89a5962d7a7eb3db0db6858bc93fbef3fb018575d8a6da",
}


def test_moment_operator_golden(design960, design200):
    for design in (design960, design200):
        R, _ = moment_operator(design, 4)
        digest = hashlib.sha256(np.ascontiguousarray(R).tobytes()).hexdigest()
        assert digest == MOMENT_OPERATOR_SHA256[design.size]


def test_frame_potential_memory_is_bounded(design960):
    K = design960.size
    tracemalloc.start()
    try:
        frame_potential(design960, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the K x D_t amplitudes; the float K x K table alone is K^2 8
    assert peak < K * K * 8 / 4


def test_optimizer_iterations_at_k200(design200):
    assert design200.metadata["iterations"] == 35
    assert design200.metadata["reached_target"]
    assert design200.metadata["phi_t"] == frame_potential(design200, 4)


def test_moment_operator_memory_is_bounded(design960):
    K, D = design960.size, symmetric_dimension(4, 4)
    tracemalloc.start()
    try:
        moment_operator(design960, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the complex K x D_4 amplitude matrix is K D_4 16 bytes; a K x 4^4 lift would not fit
    assert peak < 4 * K * D * 16


def eigh_basis(d, t):
    """Orthonormal columns spanning the range of the reference symmetric projector."""
    w, v = np.linalg.eigh(symmetric_projector(d, t))
    return v[:, w > 0.5]


def test_symmetric_basis_spans_symmetric_subspace(design960, design200):
    # the type-class amplitudes give the restriction to the symmetric subspace:
    # its spectrum is that of the full moment matrix on any basis of P's range
    for design in (design960, design200):
        for t in range(1, 5):
            basis = eigh_basis(4, t)
            R, _ = moment_operator(design, t)
            M = moment_matrix(design, t)
            expected = np.linalg.eigvalsh(basis.conj().T @ M @ basis)
            assert R.shape == (symmetric_dimension(4, t),) * 2
            assert np.max(np.abs(np.linalg.eigvalsh(R) - expected)) <= 1e-12 * expected[-1]


def test_moment_ratio_matches_eigh_basis(design960, design200):
    basis = eigh_basis(4, 4)
    for design in (design960, design200):
        M = moment_matrix(design, 4)
        _, ratio = moment_operator(design, 4)
        ws = np.linalg.eigvalsh(basis.conj().T @ M @ basis)
        assert abs(ratio - ws[0] / ws[-1]) <= 1e-12


def test_clifford_design_saturates_through_t4(design960):
    for t in range(1, 5):
        bound = 1.0 / symmetric_dimension(4, t)
        assert abs(frame_potential(design960, t) - bound) <= 1e-10


def test_clifford_design_not_six_design(design960):
    # the orbit stops being a design at t = 6
    excess = frame_potential(design960, 6) - 1.0 / symmetric_dimension(4, 6)
    assert excess > 1e-6


def test_moment_operator_ratio(design960):
    R, ratio = moment_operator(design960, 4)
    assert abs(ratio - 1.0) <= 1e-8
    # the sum restricted to the symmetric subspace is (K/D) * identity
    D = symmetric_dimension(4, 4)
    assert np.max(np.abs(D / design960.size * R - np.eye(D))) <= 1e-8
    assert abs(np.trace(R).real - design960.size) <= 1e-6


def test_moment_operator_beyond_design_strength(design960):
    # t = 6 needs only the D_6 = 84 type classes, not the 4^6 lift
    R, ratio = moment_operator(design960, 6)
    K = design960.size
    assert R.shape == (symmetric_dimension(4, 6),) * 2
    assert abs(np.trace(R).real - K) <= 1e-9 * K
    assert abs(np.vdot(R, R).real / K**2 - frame_potential(design960, 6)) <= 1e-15
    assert ratio < 1 - 1e-6  # the orbit is no 6-design


def test_frame_potential_gradient_finite_difference(rng):
    K, d, t = 12, 3, 2
    V = rng.standard_normal((d, K)) + 1j * rng.standard_normal((d, K))
    V /= np.linalg.norm(V, axis=0)

    def phi(states):
        G = np.abs(states.conj().T @ states) ** 2
        return float((G**t).sum()) / K**2

    grad = frame_potential_gradient(V, t)
    h = 1e-6
    for _ in range(10):
        j = rng.integers(K)
        a = rng.integers(d)
        for delta in (h, 1j * h):
            Vp = V.copy()
            Vp[a, j] += delta
            Vm = V.copy()
            Vm[a, j] -= delta
            fd = (phi(Vp) - phi(Vm)) / (2 * h)
            # d phi = 2 Re(conj(grad) . dV): real steps probe 2 Re(grad),
            # imaginary steps probe 2 Im(grad)
            g = grad[a, j]
            analytic = 2 * g.real if delta == h else 2 * g.imag
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


@pytest.mark.parametrize("K", [35, 200, 960])
def test_frame_potential_gradient_same_bits_as_product(rng, K):
    V = rng.standard_normal((4, K)) + 1j * rng.standard_normal((4, K))
    V /= np.linalg.norm(V, axis=0)
    G = V.conj().T @ V
    for t in (1, 2, 4):
        W = (np.abs(G) ** (2 * (t - 1))) * G  # |G|^{2(t-1)} and W held at once
        expected = (2 * t / K**2) * (V @ W)
        assert np.array_equal(frame_potential_gradient(V, t), expected)


def test_frame_potential_gradient_memory_is_bounded(design960):
    K = design960.size
    tracemalloc.start()
    try:
        frame_potential_gradient(design960.states, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the complex Gram (K^2 16 bytes) and one float K x K weight table, 22.1 MB
    assert peak < 24e6


def test_optimize_small_qubit_design():
    # K=6 states in d=2 can reach the t=2 bound 1/3 (e.g. icosahedral-type sets)
    d = optimize_design(6, 2, 2, seed=3, max_iters=3000, target=1 / 3 + 1e-9)
    assert d.metadata["reached_target"]
    assert frame_potential(d, 2) <= 1 / 3 + 1e-9


def test_optimize_monotone_trace():
    d = optimize_design(10, 2, 2, seed=1, max_iters=200)
    trace = d.metadata["phi_trace"]
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert d.metadata["iterations"] <= 200


def test_optimize_infeasible():
    with pytest.raises(InfeasibleDesignError):
        optimize_design(10, 4, 4, seed=0)  # K < D_4 = 35


def test_optimize_seed_reproducible():
    a = optimize_design(8, 2, 2, seed=5, max_iters=50)
    b = optimize_design(8, 2, 2, seed=5, max_iters=50)
    assert np.array_equal(a.states, b.states)


def test_save_load_json_roundtrip(tmp_path):
    d = optimize_design(8, 2, 2, seed=2, max_iters=100)
    path = tmp_path / "design.json"
    save_design(d, path)
    loaded = load_design(path)
    assert loaded.size == 8 and loaded.dim == 2 and loaded.t == 2
    assert np.array_equal(loaded.states, d.states)  # %.17g round-trips exactly


def test_save_load_csv_roundtrip(tmp_path):
    d = optimize_design(8, 2, 2, seed=2, max_iters=100)
    path = tmp_path / "design.csv"
    save_design(d, path)
    loaded = load_design(path)
    assert loaded.size == 8
    assert np.array_equal(loaded.states, d.states)
    save_design(d, tmp_path / "design.json")
    from_json = load_design(tmp_path / "design.json")
    assert np.array_equal(loaded.states, from_json.states)
    assert (loaded.dim, loaded.t, loaded.provenance, loaded.metadata["phi_t"]) == (
        from_json.dim, from_json.t, from_json.provenance, from_json.metadata["phi_t"])


@pytest.mark.parametrize("suffix", ["json", "csv"])
def test_load_without_phi_t(tmp_path, suffix):
    path = tmp_path / f"design.{suffix}"
    save_design(optimize_design(8, 2, 2, seed=2, max_iters=50), path)
    if suffix == "json":
        data = json.loads(path.read_text())
        del data["phi_t"]
        path.write_text(json.dumps(data))
    else:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines if not ln.startswith("# phi_t=")))
    assert load_design(path).metadata["phi_t"] is None


@pytest.mark.parametrize("suffix", ["json", "csv"])
def test_load_deeply_nested_value(tmp_path, suffix):
    path = tmp_path / f"deep.{suffix}"
    if suffix == "json":
        path.write_text("[" * 100000)
        message = "JSON nested too deeply"
    else:
        save_design(optimize_design(8, 2, 2, seed=2, max_iters=50), path)
        path.write_text(path.read_text().replace("# dim=2", "# dim=" + "[" * 100000))
        message = "'dim' must be an integer >= 1"
    with pytest.raises(DesignFormatError, match=message):
        load_design(path)


def test_load_json_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 1, "dim": 2}))
    with pytest.raises(DesignFormatError):
        load_design(str(path))


def test_load_json_wrong_state_count(tmp_path):
    d = optimize_design(8, 2, 2, seed=2, max_iters=50)
    path = tmp_path / "design.json"
    save_design(d, path)
    data = json.loads(path.read_text())
    data["states"].pop()
    path.write_text(json.dumps(data))
    with pytest.raises(DesignFormatError):
        load_design(str(path))


def test_load_csv_bad_float(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# dim=2\n# t=2\n# K=1\nre0,im0,re1,im1\n1,0,oops,0\n")
    with pytest.raises(DesignFormatError) as exc:
        load_design(str(path))
    assert "5" in str(exc.value)  # reports the offending line


def test_validate_rejects_non_unit(tmp_path):
    V = np.eye(2, dtype=complex)
    V[0, 0] = 2.0
    with pytest.raises(DesignFormatError) as exc:
        StateDesign(t=2, states=V).validate()
    assert "0" in str(exc.value)


def test_state_design_fields():
    V = np.eye(2, dtype=complex)
    first, second = StateDesign(2, V), StateDesign(t=2, states=V)
    assert (first.dim, first.t, first.provenance) == (2, 2, "custom")
    assert first.states is V
    first.metadata["k"] = 1  # each design gets its own metadata dict
    assert second.metadata == {}
    named = StateDesign(1, V, "orbit", {"k": 2})
    assert (named.t, named.provenance, named.metadata) == (1, "orbit", {"k": 2})


def test_state_design_takes_no_dim():
    # the dimension is the states' row count, so it cannot disagree with them
    with pytest.raises(TypeError):
        StateDesign(dim=4, t=4, states=np.eye(4, dtype=complex))


@pytest.mark.parametrize("suffix", ["json", "csv"])
def test_qubit_design_file_keeps_its_dimension(tmp_path, suffix):
    V = np.array([[1, 0, 1, 1], [0, 1, 1, -1]], dtype=complex)
    design = StateDesign(t=2, states=V / np.linalg.norm(V, axis=0))
    assert design.dim == 2
    path = tmp_path / f"qubit.{suffix}"
    save_design(design, path)
    loaded = load_design(path)
    assert (loaded.dim, loaded.size) == (2, 4)
    assert np.array_equal(loaded.states, design.states)


def test_validate_rejects_nan():
    V = np.eye(2, dtype=complex)
    V[1, 1] = np.nan
    with pytest.raises(DesignFormatError) as exc:
        StateDesign(t=2, states=V).validate()
    assert "state 1" in str(exc.value)
