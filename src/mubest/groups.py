"""Exact generation of the two-qubit Pauli, Clifford, and restricted Clifford groups.

Group elements are d x d unitaries stored modulo global phase: the first
entry of non-negligible modulus (row-major scan) is made positive real.  A
Clifford element is fixed, up to that phase, by how it conjugates the Paulis,
u P u^dag = +-P' (Dehaene and De Moor, PRA 68, 042318, 2003; Aaronson and
Gottesman, arXiv:quant-ph/0406196), so its tableau, the images of X_1, Z_1,
..., X_n, Z_n, is an exact key.  A Pauli's label is the kron-ordered code of
its qubits, 0 = I, 1 = X, 2 = Z, 3 = Y (x + 2z): the GF(2) vector (x_1, z_1,
..., x_n, z_n), first qubit high, so a product of Paulis has the XOR of their
labels.  A field is 2 * label + sign for (-1)^sign P_label, and a key is a
tableau's 2n fields side by side in one int: 20 bits for two qubits, 42 for
three, the most it holds.

The closure reads each generator's table, field -> field of g P g^dag, once
from the float generator, whose Pauli coefficients must round to exactly +-1
and zeros: a generator that is not Clifford raises before any product is
formed.  From then on no key needs a float: the key of g u is u's fields
through g's table.  The index is a set of int keys, filled in (frontier
element, generator) order, the order of the nested loop.  The elements are
written in place into one buffer, each breadth-first level an index range of
it; only the pairs with new keys are multiplied, each a d x d product that
`canonicalize_phases` checks and phase-fixes, as it does the generators.  A
`UnitaryGroup` holds its elements as one (n, d, d) array and nothing derived
from them: a candidate is a member only if it is a unitary of their shape
whose tableau exists and whose canonical form is one of them.

`canonical_keys` encodes phase-canonical vectors on a 1e-6 int32 grid for
`designs.orbit`: Clifford images of the fiducial live on a lattice with
spacing >= 2^-4, which the grid separates with huge margin while absorbing
float drift, and a value off the grid raises ContractViolationError.  Group
files are output only; they have json.dump's bytes, each distinct float of a
chunk of `_SAVE_CHUNK` elements formatted once by repr.
"""

import functools
import itertools
import json

import numpy as np

from .errors import ContractViolationError
from .linalg import UNITARY_TOL, check_unitary, is_unitary

KEY_GRID = 1e6
_KEY_MAX = np.iinfo(np.int32).max
MODULUS_FLOOR = 1e-8
_CLOSURE_CHUNK = 64  # frontier elements keyed at a time: a whole level peaks 6.65 MB, not 3.95
_TABLEAU_CHUNK = 1024  # unitaries keyed by `tableaux` at a time: about 5 MB of products
# group elements formatted per write; in the Clifford group command the
# formatting of a 128-element chunk reaches the closure's peak RSS but adds
# nothing to it, where 256 would add 0.3 MB
_SAVE_CHUNK = 128

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P = np.array([[1, 0], [0, 1j]])
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT12 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CNOT21 = SWAP @ CNOT12 @ SWAP


def standard_gates():
    """The named gate set, with single-qubit gates also embedded as G x I and I x G."""
    gates = {"X": X, "Y": Y, "Z": Z, "P": P, "H": H, "CNOT12": CNOT12, "CNOT21": CNOT21}
    for name, g in [("H", H), ("P", P), ("X", X), ("Y", Y), ("Z", Z)]:
        gates[name + "1"] = np.kron(g, I2)
        gates[name + "2"] = np.kron(I2, g)
    return gates


def strip_phases(stack):
    """Remove each element's global phase from a stack of vectors or matrices.

    The first entry (row-major) of modulus > MODULUS_FLOOR becomes positive
    real.  The modulus is np.hypot, not np.abs: on arrays np.abs differs from
    the scalar abs in the last ulp for some entries, hypot matches it.
    """
    flat = stack.reshape(len(stack), -1)
    pivots = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > MODULUS_FLOOR, axis=1)]
    phases = np.hypot(pivots.real, pivots.imag) / pivots
    return stack * phases.reshape((-1,) + (1,) * (stack.ndim - 1))


def canonicalize_phases(us):
    """Phase-canonical form of a stack of unitaries; raises unless each is unitary."""
    return strip_phases(check_unitary(us))


def canonical_keys(stack):
    """Fixed-precision encoding of each phase-canonical element, as one void array.

    Raises ContractViolationError if a value falls off the int32 grid.
    """
    scaled = np.rint(np.stack([stack.real, stack.imag], axis=1) * KEY_GRID)
    if not np.all(np.abs(scaled) <= _KEY_MAX):  # False for NaN too
        raise ContractViolationError(
            f"entries beyond the int32 key grid (|x| > {_KEY_MAX / KEY_GRID:g})")
    flat = scaled.astype(np.int32).reshape(len(scaled), np.prod(scaled.shape[1:]))
    return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()


def _paulis(dim):
    """The dim**2 Hermitian Paulis on n = log2(dim) qubits, 1 <= n <= 3, as (dim**2, dim, dim) by label."""
    if dim not in (2, 4, 8):
        raise ContractViolationError(f"tableau keys need 1 to 3 qubits, not dimension {dim}")
    codes = itertools.product([I2, X, Z, Y], repeat=dim.bit_length() - 1)  # first qubit high
    return np.array([functools.reduce(np.kron, code) for code in codes])


def _tableau_labels(dim):
    """The labels of X_1, Z_1, ..., X_n, Z_n: each a single bit of GF(2)^(2n)."""
    n = dim.bit_length() - 1
    return [code << 2 * (n - 1 - i) for i in range(n) for code in (1, 2)]


def _pauli_images(us, labels):
    """The field of u P u^dag for each u of a stack and each labelled Pauli P, as (len(us), len(labels)).

    The coefficients tr(P' u P u^dag) / d must round to one +-1 and zeros,
    within UNITARY_TOL; where they do not, the field is -1.
    """
    n, dim = len(us), us.shape[-1]
    paulis = _paulis(dim)
    # every u P in one GEMM, (n d, d) @ (d, L d), then each u's L products times u^dag at once
    products = us.reshape(-1, dim) @ paulis[labels].transpose(1, 0, 2).reshape(dim, -1)
    products = products.reshape(n, dim, len(labels), dim).transpose(0, 2, 1, 3).reshape(n, -1, dim)
    images = products @ us.conj().swapaxes(1, 2)
    # tr(P' M) pairs M[b, a] with P'[a, b] = conj(P')[b, a], P' being Hermitian
    coeffs = images.reshape(-1, dim * dim) @ paulis.conj().reshape(dim * dim, -1).T / dim
    rounded = np.rint(coeffs.real)
    label = np.argmax(np.abs(rounded), axis=1)
    exact = ((np.max(np.abs(coeffs - rounded), axis=1) <= UNITARY_TOL)
             & (np.abs(rounded).sum(axis=1) == 1))
    sign = rounded[np.arange(len(label)), label] < 0
    return np.where(exact, 2 * label + sign, -1).reshape(len(us), len(labels))


def tableaux(us):
    """Each unitary's tableau: the fields of its images of X_1, Z_1, ..., X_n, Z_n, as (len(us), 2n).

    A field is 2 * label + sign, for u P u^dag = (-1)^sign P_label.  The row
    of a u that is not Clifford is -1.  Raises unless d = 2^n, 1 <= n <= 3.
    """
    us = np.asarray(us, dtype=complex)
    labels = _tableau_labels(us.shape[-1])
    fields = np.empty((len(us), len(labels)), dtype=np.int64)
    for lo in range(0, len(us), _TABLEAU_CHUNK):
        fields[lo:lo + _TABLEAU_CHUNK] = _pauli_images(us[lo:lo + _TABLEAU_CHUNK], labels)
    fields[(fields < 0).any(axis=1)] = -1
    return fields


def _keys(fields):
    """One int per tableau, its 2n fields of 2n + 1 bits side by side; negative for a row of -1."""
    n_fields = fields.shape[1]
    return fields.astype(np.int64) @ (1 << (n_fields + 1) * np.arange(n_fields, dtype=np.int64))


class UnitaryGroup:
    """An immutable set of phase-canonical unitaries, held as one (n, d, d) array.

    A u of another shape, not unitary or not Clifford (no tableau) is no
    member; any other u is compared, phase-canonical, with the elements within
    UNITARY_TOL, O(n): distinct canonical Cliffords differ by far more.
    """

    def __init__(self, elements, generator_labels=()):
        self.elements = np.ascontiguousarray(elements)
        self.generator_labels = list(generator_labels)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, u):
        u = np.asarray(u)
        if u.shape != self.elements.shape[1:] or not is_unitary(u) or tableaux(u[None])[0, 0] < 0:
            return False
        gaps = np.abs(self.elements - strip_phases(u[None])).max(axis=(1, 2))
        return bool(np.any(gaps <= UNITARY_TOL))

    @property
    def dim(self):
        return self.elements.shape[-1]


def _generator_tables(gens, generator_labels):
    """(n_gens, 2 d**2) uint8: row g maps each field to the field of g P g^dag.

    Raises ContractViolationError, naming the generator, unless every
    generator maps every Pauli to +-1 times a Pauli.
    """
    dim = gens.shape[-1]
    images = _pauli_images(gens, np.arange(dim * dim))
    bad = np.flatnonzero((images < 0).any(axis=1))
    if bad.size:
        name = generator_labels[bad[0]] if generator_labels else int(bad[0])
        raise ContractViolationError(
            f"generator {name!r} is not Clifford: it maps a Pauli to no +-1 multiple of a Pauli")
    # the field 2 label + sign goes to the image of the label, its sign flipped by sign
    return np.stack([images, images ^ 1], axis=2).reshape(len(gens), -1).astype(np.uint8)


def generate_group(generators, max_size, generator_labels=()):
    """Breadth-first closure of Clifford generators on 1 to 3 qubits under left multiplication.

    The generators are checked for unitarity and read into their tables; one
    that is not Clifford raises ContractViolationError before any product is
    formed.  The elements are written in place into one buffer of max_size
    elements; each level is the index range of the elements the previous
    level found.  A level is keyed `_CLOSURE_CHUNK` frontier elements at a
    time, new keys taken in (frontier element u, generator g) order, and only
    the pairs with new keys are multiplied: each element is the d x d product
    g @ u, canonicalised.  A closure that ends below max_size returns a copy
    of its elements, not a view that pins the buffer.  Raises
    ContractViolationError if the closure would exceed max_size.
    """
    gens = canonicalize_phases(np.array(generators, dtype=complex))
    n_gens, dim = gens.shape[:2]
    tables = _generator_tables(gens, list(generator_labels))
    elements = np.empty((max(max_size, 1), dim, dim), dtype=complex)
    elements[0] = np.eye(dim)
    labels = _tableau_labels(dim)
    fields = np.empty((len(elements), len(labels)), dtype=np.uint8)
    fields[0] = 2 * np.array(labels)  # the identity's: each Pauli to itself, sign +
    index = set(_keys(fields[:1]).tolist())
    start, stop = 0, 1  # the frontier level is elements[start:stop]
    while start < stop:
        for lo in range(start, stop, _CLOSURE_CHUNK):
            hi = min(lo + _CLOSURE_CHUNK, stop)
            # (generator, element, field) to (element, generator, field)
            images = tables[:, fields[lo:hi]].transpose(1, 0, 2).reshape(-1, fields.shape[1])
            new = []  # the (element, generator) positions of the new keys
            for i, key in enumerate(_keys(images).tolist()):
                if key not in index:
                    if len(index) >= max_size:
                        raise ContractViolationError(f"group closure exceeded max_size={max_size}")
                    index.add(key)
                    new.append(i)
            if not new:
                continue
            new = np.array(new, dtype=np.intp)  # one conversion serves both indexings
            u, g = np.divmod(new, n_gens)
            first = len(index) - len(new)
            elements[first:len(index)] = canonicalize_phases(gens[g] @ elements[lo + u])
            fields[first:len(index)] = images[new]
        start, stop = stop, len(index)
    if stop < len(elements):
        elements = elements[:stop].copy()
    return UnitaryGroup(elements, generator_labels)


def _labelled_group(labels, order):
    """Closure of the generators that `labels` name; raises unless it has the given order.

    A label is gate names joined by '.', multiplied left to right.
    """
    gates = standard_gates()
    generators = [functools.reduce(np.matmul, [gates[name] for name in label.split(".")])
                  for label in labels]
    group = generate_group(generators, max_size=order, generator_labels=labels)
    if len(group) < order:  # past `order`, generate_group raises
        raise ContractViolationError(f"closure of {labels}: order {len(group)}, not {order}")
    return group


def clifford_group_2q():
    """The projective two-qubit Clifford group, order 11520."""
    return _labelled_group(["H1", "H2", "P1", "P2", "CNOT12", "CNOT21"], 11520)


def restricted_clifford_group_2q():
    """The order-960 restricted Clifford subgroup, generated by two composite gates."""
    return _labelled_group(["H2.CNOT12.P1.H2", "H1.P2.CNOT12.H2"], 960)


def pauli_group_2q():
    """The projective two-qubit Pauli group, {I,X,Y,Z} x {I,X,Y,Z}, order 16."""
    singles = [I2, X, Y, Z]
    products = np.array([np.kron(a, b) for a in singles for b in singles])
    return UnitaryGroup(canonicalize_phases(products), generator_labels=["pauli"])


def save_group(group, path):
    """Write a group as a JSON list of matrices of [re, im] pairs.

    The bytes are those of json.dump of the whole document.  Elements are
    written a chunk of `_SAVE_CHUNK` at a time: each distinct float of the
    chunk is formatted once and the chunk's elements fill a fixed template.
    """
    header = json.dumps(
        {
            "format_version": 1,
            "dim": group.dim,
            "order": len(group),
            "generator_labels": group.generator_labels,
        }
    )
    row = "[" + ", ".join(["[%s, %s]"] * group.dim) + "]"
    element = "[" + ", ".join([row] * group.dim) + "]"
    with open(path, "w") as fh:
        fh.write(header[:-1] + ', "elements": [')
        for start in range(0, len(group), _SAVE_CHUNK):
            chunk = group.elements[start:start + _SAVE_CHUNK]
            distinct, index = np.unique(chunk.view(np.uint64).ravel(), return_inverse=True)
            text = [repr(v) for v in distinct.view(float).tolist()]  # json's float format
            fields = tuple(map(text.__getitem__, index.tolist()))
            fh.write((", " if start else "") + ", ".join([element] * len(chunk)) % fields)
        fh.write("]}")
