import functools
import hashlib
import itertools
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
from mubest.errors import ContractViolationError
from mubest.groups import (
    X,
    Z,
    UnitaryGroup,
    canonical_keys,
    canonicalize_phases,
    clifford_group_2q,
    generate_group,
    restricted_clifford_group_2q,
    save_group,
    standard_gates,
    strip_phases,
    tableaux,
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


def _symplectic_parts(group):
    """Each element's tableau with its sign bits masked: the labels of its images of X1, Z1, X2, Z2."""
    fields = tableaux(group.elements)
    assert np.all(fields >= 0)  # every element is Clifford
    return fields >> 1


def _anticommute(a, b):
    # a label's qubits are (x, z) bit pairs, so <a, b> pairs each x bit of a with
    # the z bit of b and each z bit with the x bit: swap a's pairs, AND, take parity
    swapped = ((a & 0b0101) << 1) | ((a & 0b1010) >> 1)
    return bin(swapped & b).count("1") % 2 == 1


def _anticommuting_sets(size):
    return [s for s in itertools.combinations(range(1, 16), size)
            if all(_anticommute(a, b) for a, b in itertools.combinations(s, 2))]


# |Sp(4, 2)| = 720 and |SL(2, 4)| = 60: the images of the Paulis up to sign; in
# each group the 16 elements that fix every Pauli up to sign are the Paulis
@pytest.mark.parametrize("name, parts", [("clifford", 720), ("restricted", 60)])
def test_symplectic_parts(name, parts, request, pauli_group):
    group = request.getfixturevalue(f"{name}_group")
    symplectic = _symplectic_parts(group)
    assert len(set(map(tuple, symplectic.tolist()))) == parts
    fixes_paulis = np.all(symplectic == tableaux(np.eye(4)[None]) >> 1, axis=1)
    assert key_set(group.elements[fixes_paulis]) == key_set(pauli_group.elements)


def test_six_maximal_anticommuting_sets():
    assert len(_anticommuting_sets(5)) == 6
    assert _anticommuting_sets(6) == []  # so each 5-set is maximal


# G / P acts on the six sets of five pairwise anticommuting Paulis: faithfully
# (its kernel is the Paulis), as all of S6 for the Clifford group, and as 60
# even permutations, transitive, for the restricted group: Sp(4, 2) = S6 and SL(2, 4) = A5
@pytest.mark.parametrize("name, permutations, odd", [("clifford", 720, 360), ("restricted", 60, 0)])
def test_action_on_the_six_anticommuting_sets(name, permutations, odd, request, pauli_group):
    group = request.getfixturevalue(f"{name}_group")
    symplectic = _symplectic_parts(group)
    # the image of a label is the XOR of the images of its bits, the labels of X1, Z1, X2, Z2
    bits = (tableaux(np.eye(4)[None]) >> 1)[0]
    images = np.zeros((len(group), 16), dtype=int)
    for label in range(16):
        for j, bit in enumerate(bits):
            if label & bit:
                images[:, label] ^= symplectic[:, j]
    sets = _anticommuting_sets(5)
    position = {s: i for i, s in enumerate(sets)}
    actions = [tuple(position[tuple(sorted(row[list(s)]))] for s in sets) for row in images]
    distinct = set(actions)
    assert len(distinct) == permutations

    def parity(perm):
        cycles, seen = 0, set()
        for i in range(len(perm)):
            if i not in seen:
                cycles += 1
                while i not in seen:
                    seen.add(i)
                    i = perm[i]
        return (len(perm) - cycles) % 2

    assert sum(map(parity, distinct)) == odd
    assert {perm[0] for perm in distinct} == set(range(6))  # transitive
    kernel = [perm == tuple(range(6)) for perm in actions]
    assert key_set(group.elements[kernel]) == key_set(pauli_group.elements)


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
    with pytest.raises(ContractViolationError, match="exceeded max_size=100"):
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


def test_non_clifford_generator_raises_before_any_product(monkeypatch):
    # a T gate maps X to (X + Y)/sqrt(2): its table fails, so no product is formed,
    # canonicalised or kept (max_size=1 would stop a closure at its first new element)
    g = standard_gates()
    t_gate = np.kron(np.diag([1, np.exp(1j * np.pi / 4)]), np.eye(2))
    canonicalised = []
    strip = groups.strip_phases
    monkeypatch.setattr(groups, "strip_phases",
                        lambda stack: canonicalised.append(len(stack)) or strip(stack))
    with pytest.raises(ContractViolationError, match="generator 'T1' is not Clifford"):
        generate_group([g["H1"], t_gate], max_size=1, generator_labels=["H1", "T1"])
    with pytest.raises(ContractViolationError, match="generator 1 is not Clifford"):
        generate_group([g["H1"], t_gate], max_size=1)
    assert canonicalised == [2, 2]  # the two generators, once per call


def test_generate_group_takes_one_to_three_qubits():
    # the six single-qubit X and Z of three qubits generate the 64 Paulis
    single = {"X": X, "Z": Z}
    gens = [functools.reduce(np.kron, [single[p] if q == i else np.eye(2) for q in range(3)])
            for i in range(3) for p in "XZ"]
    assert len(generate_group(gens, max_size=64)) == 64
    for dim in (3, 16):
        with pytest.raises(ContractViolationError, match=f"1 to 3 qubits, not dimension {dim}"):
            generate_group([np.eye(dim)], max_size=2)


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
    # a list of levels held a second copy of the elements, 3 MB, a dict of
    # 128-byte keys peaked at 6.13 MB and an index of their digests at 4.76 MB,
    # a set of tableau keys at 4.12 MB while every generator multiplied a whole
    # block; multiplying only the pairs with new keys, the peak is 3.95 MB, the
    # 2.95 MB of held elements, the index and one block's arrays, and the
    # ceiling is that plus 0.3 MB
    assert peak < 4.25e6


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
    # a diagonal phase gate off the Clifford lattice has no tableau
    u = np.diag([1, 1, 1, np.exp(0.1j)])
    assert u not in restricted_group
    assert u not in clifford_group
    # H1 has one and is a Clifford, not in the restricted group: there only the
    # comparison with the elements rejects it, at any global phase
    h1 = standard_gates()["H1"]
    for phase in (1, np.exp(0.7j)):
        assert phase * h1 not in restricted_group
        assert phase * h1 in clifford_group
    # a matrix that is no unitary of the elements' shape is no member either
    for u in (2 * np.eye(4), np.ones((4, 3)), np.eye(2), np.eye(8), np.ones(4)):
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
