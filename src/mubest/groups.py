"""Exact generation of the two-qubit Pauli, Clifford, and restricted Clifford groups.

Group elements are 4x4 unitaries stored modulo global phase in a canonical
form: the first entry of non-negligible modulus (row-major scan) is made
positive real, and entries rounded to a 1e-6 grid serve as the deduplication
key.  Clifford entries live on a lattice with spacing >= 2^-4, so the grid
separates distinct elements with huge margin while absorbing float drift.
The grid is int32: entries of unitaries and unit vectors have modulus <= 1,
so rint(x * 1e6) fits with room to spare, and a 4x4 key is 128 bytes.  A
value off the int32 grid raises ContractViolationError rather than wrapping.
A `UnitaryGroup` holds its elements as one (n, d, d) array and nothing
derived from them: membership keys the elements on each call.

Canonicalisation and keys work on stacks (`strip_phases`, `canonical_keys`);
a single matrix is a one-element stack.  The pivot's modulus is np.hypot of its
parts, which equals the scalar abs bit for bit, so stacked and one-at-a-time
canonical forms agree.  The closure writes its elements in place into one
buffer, each breadth-first level an index range of it.  It multiplies a block
of a level by every generator in one GEMM, (all generators' rows) @ (the
block's elements side by side), in place of a stack of 4 x 4 products.  It
keys the block in one pass and looks the keys up in an index of their
digests, one int per element; every hit is confirmed against the key of the
element it found, so two elements that share a digest raise rather than
merge.  New keys are taken in (frontier element, generator) order, the order
of the nested loop, whatever the hash seed.  Unitarity is checked on the
elements kept, not on every product: a duplicate has the key of a checked
element.  Group files are output only; they have json.dump's bytes, each
distinct float of a chunk of `_SAVE_CHUNK` elements formatted once by repr.
"""

import functools
import json

import numpy as np

from .errors import ContractViolationError
from .linalg import check_unitary

KEY_GRID = 1e6
_KEY_MAX = np.iinfo(np.int32).max
MODULUS_FLOOR = 1e-8
_CLOSURE_CHUNK = 64  # frontier elements multiplied by the generators at a time
_digest = hash  # the closure index's digest of a key's bytes; every hit is re-checked
# group elements formatted per write; the Clifford group command's peak RSS
# is reached in the closure, about 0.1 MB above the peak while a chunk is
# formatted (128 holds that 0.3 MB below 256)
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


class UnitaryGroup:
    """An immutable set of phase-canonical unitaries, held as one (n, d, d) array.

    Membership keys the elements on each call, O(n).
    """

    def __init__(self, elements, generator_labels=()):
        self.elements = np.ascontiguousarray(elements)
        self.generator_labels = list(generator_labels)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, u):
        key = canonical_keys(canonicalize_phases(np.asarray(u)[None])).tolist()[0]
        return key in canonical_keys(self.elements).tolist()

    @property
    def dim(self):
        return self.elements.shape[-1]


def generate_group(generators, max_size, generator_labels=()):
    """Breadth-first closure of the generators under left multiplication.

    The elements are written in place into one buffer of max_size elements;
    each level is the index range of the elements the previous level found.
    A level is multiplied by the generators `_CLOSURE_CHUNK` frontier elements
    at a time, in one 2-D product: the generators' rows stacked, (n_gens d, d),
    times the block's elements side by side, (d, block d).  Its (g, u) tiles
    are the products g @ u, each from the same d-term sums as a d x d
    product, so the elements keep their bits.  They are reordered to (frontier
    element u, generator g), canonicalised and keyed in one pass.  New keys
    are taken in that order, so the element order is that of the nested loop.

    The index maps `_digest` of each element's key to its position, so it
    holds no key bytes.  Every product found in it is compared with the key of
    the element its digest points to; a mismatch, two elements with one digest,
    raises ContractViolationError.  The generators and each new element are
    checked for unitarity; a product dropped as a duplicate has the key of a
    checked element.  A closure that ends below max_size returns a copy of
    its elements, not a view that pins the buffer.  Raises
    ContractViolationError if the closure would exceed max_size (a symptom of
    wrong generators or a broken canonicalization grid).
    """
    gens = canonicalize_phases(np.array(generators, dtype=complex))
    n_gens, dim = gens.shape[:2]
    rows = gens.reshape(n_gens * dim, dim)  # every generator's rows, stacked
    elements = np.empty((max(max_size, 1), dim, dim), dtype=complex)
    elements[0] = np.eye(dim)
    index = {_digest(canonical_keys(elements[:1]).tolist()[0]): 0}  # key digest -> position
    start, stop = 0, 1  # the frontier level is elements[start:stop]
    while start < stop:
        for lo in range(start, stop, _CLOSURE_CHUNK):
            block = elements[lo:min(lo + _CLOSURE_CHUNK, stop)]
            side = block.transpose(1, 0, 2).reshape(dim, -1)  # the block side by side
            products = (rows @ side).reshape(n_gens, dim, len(block), dim)
            # (generator, row, element, column) to (element, generator, row, column)
            products = strip_phases(products.transpose(2, 0, 1, 3).reshape(-1, dim, dim))
            keys = canonical_keys(products)
            at, new = [], []  # the positions that products found; the products added
            for i, d in enumerate(map(_digest, keys.tolist())):
                if d in index:
                    at.append(index[d])
                else:
                    if len(index) >= max_size:
                        raise ContractViolationError(f"group closure exceeded max_size={max_size}")
                    index[d] = len(index)
                    new.append(i)
            elements[len(index) - len(new):len(index)] = check_unitary(products[new])
            if not np.array_equal(canonical_keys(elements[at]).view(np.int32),
                                  np.delete(keys, new).view(np.int32)):
                raise ContractViolationError("two group elements share a key digest")
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
