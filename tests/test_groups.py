import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mubest
from mubest import groups
from mubest.designs import fiducial_state, orbit
from mubest.errors import ContractViolationError, GroupSizeError
from mubest.groups import (
    UnitaryGroup,
    canonical_keys,
    canonicalize_phases,
    clifford_group_2q,
    generate_group,
    restricted_clifford_group_2q,
    save_group,
    standard_gates,
    strip_phases,
)
from mubest.linalg import is_unitary
from reference import stabilizer


def test_clifford_order(clifford_group):
    assert len(clifford_group) == 11520


def test_restricted_order(restricted_group):
    assert len(restricted_group) == 960


def test_pauli_orders(pauli_group):
    assert len(pauli_group) == 16
    assert len(set(canonical_keys(pauli_group.elements).tolist())) == 16
    assert pauli_group.generator_labels == ["pauli"]


def key_set(elements):
    return set(canonical_keys(elements).tolist())


def test_restricted_is_subgroup_of_clifford(clifford_group, restricted_group):
    assert key_set(restricted_group.elements) <= key_set(clifford_group.elements)


def test_pauli_inside_restricted(pauli_group, restricted_group):
    assert key_set(pauli_group.elements) <= key_set(restricted_group.elements)


# (1/|G|) sum_g |tr g|^{2t} for t = 1..4; the Haar values at d = 4 are
# 1, 2, 6, 24, which a unitary t-design matches up to t
@pytest.mark.parametrize("name, potentials", [
    ("clifford", [1, 2, 6, 29]),  # a 3-design, not a 4-design
    ("restricted", [1, 2, 9, 85]),  # only a 2-design
])
def test_unitary_frame_potentials(name, potentials, request):
    group = request.getfixturevalue(f"{name}_group")
    squared = np.abs(np.trace(group.elements, axis1=1, axis2=2)) ** 2
    frame = [np.mean(squared ** t) for t in range(1, 5)]
    assert np.max(np.abs(np.subtract(frame, potentials))) <= 1e-9


# (1/|G|) sum_g |h_t(g)|^2, with h_t(g) the character of g on Sym^t: it is 1
# exactly when Sym^t is irreducible, so that every orbit is a state t-design
@pytest.mark.parametrize("name, characters", [
    ("clifford", [1, 1, 1, 2]),  # every orbit a 3-design, not a 4-design
    ("restricted", [1, 1, 2, 4]),  # only a 2-design
])
def test_symmetric_power_characters(name, characters, request):
    group = request.getfixturevalue(f"{name}_group")
    # Newton's identities: t h_t = sum_{k=1..t} tr(g^k) h_{t-k}, with h_0 = 1
    traces = [np.trace(np.linalg.matrix_power(group.elements, k), axis1=1, axis2=2)
              for k in range(1, 5)]
    h = [np.ones(len(group), dtype=complex)]
    for t in range(1, 5):
        h.append(sum(traces[k - 1] * h[t - k] for k in range(1, t + 1)) / t)
    measured = [np.mean(np.abs(h[t]) ** 2) for t in range(1, 5)]
    assert np.max(np.abs(np.subtract(measured, characters))) <= 1e-9


def _coset_representatives(group, paulis):
    """The first element of each coset g P of the Pauli group P, in group order."""
    index = {k: i for i, k in enumerate(canonical_keys(group.elements).tolist())}
    covered = np.zeros(len(group), dtype=bool)
    reps = []
    for i, g in enumerate(group.elements):
        if not covered[i]:
            reps.append(g)
            coset = canonical_keys(strip_phases(g @ paulis.elements)).tolist()
            covered[[index[k] for k in coset]] = True  # KeyError unless P is inside
    return np.array(reps)


# the order of each element of G/P: S6 = Sp(4, 2) for the Clifford group,
# A5 = SL(2, 4) for the restricted group
@pytest.mark.parametrize("name, census", [
    ("clifford", {1: 1, 2: 75, 3: 80, 4: 180, 5: 144, 6: 240}),
    ("restricted", {1: 1, 2: 15, 3: 20, 5: 24}),
])
def test_element_orders_modulo_paulis(name, census, request, pauli_group):
    reps = _coset_representatives(request.getfixturevalue(f"{name}_group"), pauli_group)
    pauli_keys = set(canonical_keys(pauli_group.elements).tolist())
    orders = np.zeros(len(reps), dtype=int)
    power = reps
    for k in range(1, 7):
        inside = [key in pauli_keys for key in canonical_keys(strip_phases(power)).tolist()]
        orders[(orders == 0) & inside] = k
        power = power @ reps
    assert dict(zip(*np.unique(orders, return_counts=True))) == census


def test_closure_and_inverses(restricted_group, clifford_group, rng):
    # random products stay in the group, and the inverses of all elements are the group
    n = len(restricted_group)
    for _ in range(30):
        a, b = rng.integers(n, size=2)
        assert restricted_group.elements[a] @ restricted_group.elements[b] in restricted_group
    for group in (restricted_group, clifford_group):
        inverses = canonicalize_phases(group.elements.conj().swapaxes(1, 2))
        assert key_set(inverses) == key_set(group.elements)


def test_elements_unitary_and_distinct(restricted_group):
    for u in restricted_group:
        assert is_unitary(u)
    assert len(set(canonical_keys(restricted_group.elements).tolist())) == len(restricted_group)


def test_canonicalize_phase_invariance(rng):
    g = standard_gates()
    u = g["H1"] @ g["CNOT12"] @ g["P2"]
    phases = np.exp(2j * np.pi * rng.random(5))
    keys = canonical_keys(canonicalize_phases(np.concatenate([[u], phases[:, None, None] * u])))
    assert len(set(keys.tolist())) == 1


def test_canonicalize_pivot_positive_real():
    g = standard_gates()
    u = canonicalize_phases((1j * g["CNOT12"])[None])[0]
    flat = u.ravel()
    pivot = flat[np.argmax(np.abs(flat) > 1e-8)]
    assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_generate_group_size_guard():
    g = standard_gates()
    with pytest.raises(GroupSizeError):
        generate_group([g["H1"], g["H2"], g["P1"], g["P2"], g["CNOT12"]], max_size=100)


def test_generate_group_rejects_non_unitary_generator():
    g = standard_gates()
    with pytest.raises(ContractViolationError):
        generate_group([g["H1"], 1.01 * g["P2"]], max_size=100)


def test_generate_group_checks_every_product():
    # each generator passes the 1e-10 unitarity check, their products do not
    g = standard_gates()
    scale = 1 + 4e-11
    with pytest.raises(ContractViolationError):
        generate_group([scale * g["H1"], scale * g["P2"]], max_size=11520)


def test_closure_short_of_its_order_raises():
    # H1 alone generates {I, H1}
    with pytest.raises(ContractViolationError, match=r"order 2, not 11520"):
        groups._labelled_group(["H1"], 11520)


def test_strip_phases_matches_scalar_pivot(restricted_group, rng):
    # the stacked form equals the one-at-a-time u * (abs(pivot) / pivot) bit for bit
    stack = np.array(restricted_group.elements)
    stack = stack * np.exp(2j * np.pi * rng.random(len(stack)))[:, None, None]
    expected = []
    for u in stack:
        flat = u.ravel()
        pivot = flat[np.argmax(np.abs(flat) > 1e-8)]
        expected.append(u * (abs(pivot) / pivot))
    expected = np.array(expected)
    assert np.array_equal(strip_phases(stack).view(np.int64), expected.view(np.int64))


def test_generate_group_matches_nested_loop():
    # the one-product-at-a-time closure with the scalar pivot, as the reference
    def canonical(u):
        flat = u.ravel()
        pivot = flat[np.argmax(np.abs(flat) > 1e-8)]
        return u * (abs(pivot) / pivot)

    g = standard_gates()
    gens = [canonical(g["H2"] @ g["CNOT12"] @ g["P1"] @ g["H2"]),
            canonical(g["H1"] @ g["P2"] @ g["CNOT12"] @ g["H2"])]

    def key(u):
        return canonical_keys(u[None]).tolist()[0]

    identity = np.eye(4, dtype=complex)
    elements = {key(identity): identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for u in frontier:
            for h in gens:
                v = canonical(h @ u)
                k = key(v)
                if k not in elements:
                    elements[k] = v
                    fresh.append(v)
        frontier = fresh
    group = generate_group(gens, max_size=960)
    expected = np.array(list(elements.values()))
    assert np.array_equal(np.array(group.elements).view(np.int64), expected.view(np.int64))


def test_closure_rejects_a_digest_collision(monkeypatch):
    # every key has one digest: each product finds the identity's position, and
    # the key check must raise rather than merge the elements
    monkeypatch.setattr(groups, "_digest", lambda key: 0)
    with pytest.raises(ContractViolationError, match="digest"):
        restricted_clifford_group_2q()
    # only I x X takes X x I's digest: the collision finds the element that an
    # earlier product of the same block added, and that hit must be compared
    # there; max_size=2 stops a closure that missed it at the next level
    g = standard_gates()
    xi, ix = canonical_keys(np.array([g["X1"], g["X2"]])).tolist()
    monkeypatch.setattr(groups, "_digest", lambda key: hash(xi if key == ix else key))
    with pytest.raises(ContractViolationError, match="digest"):
        generate_group([g["X1"], g["X2"]], max_size=2)


def test_closure_order_does_not_depend_on_the_hash_seed(restricted_group):
    code = ("import hashlib\n"
            "from mubest.groups import restricted_clifford_group_2q\n"
            "print(hashlib.sha256(restricted_clifford_group_2q().elements.tobytes()).hexdigest())")
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(mubest.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout.strip())
    assert digests == {hashlib.sha256(restricted_group.elements.tobytes()).hexdigest()}


def test_generate_group_pauli_from_xz():
    g = standard_gates()
    group = generate_group([g["X"], g["Z"]], max_size=8)
    # projectively {I, X, Y, Z}
    assert len(group) == 4
    assert group.elements.shape == (4, 2, 2)


def test_closure_below_max_size_keeps_no_oversized_buffer(restricted_group):
    g = standard_gates()
    group = generate_group([g["H2"] @ g["CNOT12"] @ g["P1"] @ g["H2"],
                            g["H1"] @ g["P2"] @ g["CNOT12"] @ g["H2"]], max_size=11520)
    assert np.array_equal(group.elements.view(np.int64),
                          restricted_group.elements.view(np.int64))
    held = group.elements if group.elements.base is None else group.elements.base
    assert held.nbytes <= group.elements.nbytes


def test_stabilizer_identity_only_for_generic_state(restricted_group, rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    stab = stabilizer(restricted_group, v)
    assert len(stab) == 1


# sha256 of save_group's output, recorded before the closure was vectorised
# (the Pauli group's from the one-element-at-a-time constructor); they also pin
# the element order
GROUP_FILE_SHA256 = {
    "pauli": "9fa89c7f6682eb3ab2caec4c5739932f3df7f1dac5f97d12e9f2cf7ad213a505",
    "clifford": "ed2ae91b2a1cfcf670b02f2230b9a12a1f62b098e745a63dc530ea1728abd4ac",
    "restricted": "a90a516f8f0ce3ff0ddb0ba8aea4dfdc2c1e0a4bec20c0022550e45e1f573252",
}


@pytest.mark.parametrize("name", ["pauli", "clifford", "restricted"])
def test_group_file_golden(name, request, tmp_path):
    group = request.getfixturevalue(f"{name}_group")
    path = tmp_path / f"{name}.json"
    save_group(group, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GROUP_FILE_SHA256[name]


def test_save_group_matches_json_dump(restricted_group, tmp_path):
    path = tmp_path / "restricted.json"
    save_group(restricted_group, path)
    data = {
        "format_version": 1,
        "dim": 4,
        "order": 960,
        "generator_labels": restricted_group.generator_labels,
        "elements": [
            [[[z.real, z.imag] for z in row] for row in u] for u in restricted_group
        ],
    }
    assert path.read_text() == json.dumps(data)


def test_closure_memory_is_bounded():
    tracemalloc.start()
    try:
        group = clifford_group_2q()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(group) == 11520
    # stacking a whole level's products at once peaked at 24 MB, concatenating
    # a list of levels held a second copy of the elements, 3 MB, and a dict of
    # 128-byte keys peaked at 6.13 MB; with the digest index the peak is 4.76 MB,
    # the 2.95 MB of held elements, the index and one block's arrays, and the
    # ceiling is that plus 0.5 MB
    assert peak < 5.3e6


def test_canonical_keys_reject_values_off_the_int32_grid(restricted_group):
    # a state of norm 1e4 has entries of order 1e10 on the 1e-6 grid
    with pytest.raises(ContractViolationError, match="int32"):
        orbit(restricted_group, 1e4 * fiducial_state())
    with pytest.raises(ContractViolationError, match="int32"):
        canonical_keys(np.full((1, 4), np.nan + 0j))
    assert canonical_keys(np.eye(4, dtype=complex)[None]).dtype.itemsize == 128


@pytest.mark.parametrize("name", ["pauli", "restricted", "clifford"])
def test_elements_are_one_array(name, request):
    group = request.getfixturevalue(f"{name}_group")
    assert isinstance(group.elements, np.ndarray)
    assert group.elements.shape == (len(group), 4, 4)
    assert group.dim == 4


def test_group_from_an_element_array(restricted_group):
    # keys computed from an (n, d, d) array, not only from a list
    group = UnitaryGroup(restricted_group.elements)
    assert len(group) == 960
    assert all(u in group for u in restricted_group.elements[::97])
    assert len(UnitaryGroup(np.empty((0, 4, 4), dtype=complex))) == 0


def test_empty_group_has_no_members():
    assert np.eye(4) not in UnitaryGroup(np.empty((0, 4, 4), dtype=complex))


def test_non_member(restricted_group, clifford_group):
    # a diagonal phase gate off the Clifford lattice
    u = np.diag([1, 1, 1, np.exp(0.1j)])
    assert u not in restricted_group
    assert u not in clifford_group


def test_clifford_group_memory_held():
    # one element array, 2.95 MB, and no keys: 8.76 MB were held with int64
    # keys and a list of per-element views, 5.71 MB with an int32 key dict
    tracemalloc.start()
    try:
        group = clifford_group_2q()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(group) == 11520
    assert held < 3.0e6


def test_save_group_peak_is_small(clifford_group, tmp_path):
    tracemalloc.start()
    try:
        save_group(clifford_group, tmp_path / "clifford.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
