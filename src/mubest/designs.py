"""Projective t-designs in dimension 4: Clifford orbits and numerical optimization.

A design is a finite set of unit vectors; quality is measured by the t-th
frame potential, whose lower bound 1/D_t is attained exactly for t-designs.
The Clifford-orbit construction starts from a product fiducial state.  A
full-Clifford orbit is a 4-design exactly when its fiducial's Pauli fourth
moment sum_P <psi|P|psi>^4 is 16/7 (Zhu, Kueng, Grassl and Gross,
arXiv:1609.08172): (1 + sum r1^4)(1 + sum r2^4) = 16/7 for Bloch vectors r1,
r2, which is sum r2^4 = 5/7 at r1 = (1,1,1)/sqrt(3).  The orbit has 11520
states for a generic fiducial, 3840 for `fiducial_state`.  In that r1 family
the 960-state restricted orbit is a 4-design only at alpha = 1, the fiducial
`fiducial_state` pins; numerically, the product fiducials of restricted
4-designs form a curve.  The module offers that one fiducial.

That orbit is a constant: `default_design` reads its states from
`default_design.npy`, the copy of `clifford_design(
restricted_clifford_group_2q()).states` that np.save wrote in their own
(Fortran) layout, and builds no group.  `design clifford` writes those states.
"""

import itertools
import json
import math
import os
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DesignFormatError, InfeasibleDesignError, ReadOnlyRecord
from .groups import canonical_keys, strip_phases
from .linalg import symmetric_dimension

_NONFINITE_SPELLINGS = ("inf", "-inf", "nan")  # str() of the non-finite floats
_PINNED_ORBIT = os.path.join(os.path.dirname(__file__), "default_design.npy")


class StateDesign(ReadOnlyRecord):
    """K unit vectors in dimension d, stored as columns of `states` (d x K); its fields are set once.

    `metadata` is a read-only view of a copy of the mapping given, so no
    caller of a cached design can change it under the others.
    """

    __slots__ = ("t", "states", "provenance", "metadata")

    def __init__(self, t, states, provenance="custom", metadata=None):
        self._set(t=t, states=states, provenance=provenance,
                  metadata=MappingProxyType(dict(metadata or {})))

    def __reduce__(self):  # a mappingproxy does not pickle: pass its dict
        return type(self), (self.t, self.states, self.provenance, dict(self.metadata))

    @property
    def dim(self):
        return self.states.shape[0]

    @property
    def size(self):
        return self.states.shape[1]

    def validate(self):
        norms = np.linalg.norm(self.states, axis=0)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-10))  # NaN fails too
        if bad.size:
            raise DesignFormatError(f"state {bad[0]} is not unit norm")
        return self


def bloch_to_state(r):
    """Unit Bloch vector -> qubit pure state with real non-negative |0> amplitude."""
    r = np.asarray(r, dtype=float)
    if abs(np.linalg.norm(r) - 1.0) > 1e-10:
        raise ValueError("Bloch vector must be unit norm for a pure state")
    theta = math.acos(np.clip(r[2], -1.0, 1.0))
    a0 = math.cos(theta / 2)
    a1 = math.sin(theta / 2)
    if a1 > 1e-15:
        a1 = a1 * np.exp(1j * math.atan2(r[1], r[0]))
    return np.array([a0, a1], dtype=complex)


def fiducial_bloch_second_qubit():
    """Second-qubit Bloch vector of the alpha=1 fiducial state (as printed, r1 < 0)."""
    c = math.sqrt(3.0 / 7.0)
    return np.array([-math.sqrt(0.5 - 0.5 * c), 0.0, math.sqrt(0.5 + 0.5 * c)])


def fiducial_state():
    """Product fiducial ququad whose restricted-Clifford orbit is a 4-design."""
    q1 = bloch_to_state(np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
    q2 = bloch_to_state(fiducial_bloch_second_qubit())
    return np.kron(q1, q2)


def orbit(group, psi, t=4):
    """Group orbit of |psi>, deduplicated modulo global phase, in group order."""
    psi = np.asarray(psi, dtype=complex)
    images = strip_phases(group.elements @ psi)
    first = {}
    for i, key in enumerate(canonical_keys(images).tolist()):
        first.setdefault(key, i)
    states = images[list(first.values())].T
    return StateDesign(
        t=t,
        states=states,
        provenance="clifford_orbit",
        metadata={"group_order": len(group), "orbit_length": states.shape[1]},
    )


def clifford_design(restricted_group):
    """The 960-state Clifford 4-design: restricted-Clifford orbit of the fiducial state."""
    return orbit(restricted_group, fiducial_state(), t=4)


@lru_cache(maxsize=None)
def default_design():
    """The Clifford-orbit 4-design, read once on first use; its states are read-only.

    They are `clifford_design(restricted_clifford_group_2q())`'s states, read
    from the pinned copy in the orbit's (16, 64)-strided layout, so products
    over them keep the built orbit's bits; no BLAS kernel runs a closure for
    them.  A truncated or foreign copy raises DesignFormatError.
    """
    try:
        states = np.load(_PINNED_ORBIT, allow_pickle=False)
    except (ValueError, EOFError) as exc:  # not a whole .npy file
        raise DesignFormatError(f"{_PINNED_ORBIT}: {exc}") from exc
    if states.shape != (4, 960) or states.dtype != np.complex128:
        raise DesignFormatError(f"{_PINNED_ORBIT}: expected (4, 960) complex128 states,"
                                f" got {states.shape} {states.dtype}")
    states.flags.writeable = False
    return StateDesign(t=4, states=states, provenance="clifford_orbit",
                       metadata={"group_order": 960, "orbit_length": 960}).validate()


def frame_potential(design, t):
    """Phi_t = (1/K^2) sum_{j,k} |<psi_j|psi_k>|^{2t}, without the K x K table.

    |<psi_j|psi_k>|^{2t} = |<psi_j^{x t}|psi_k^{x t}>|^2, so Phi_t is the
    squared Frobenius norm of the frame operator R = sum_j
    |psi_j^{x t}><psi_j^{x t}| over K^2 (Benedetto & Fickus 2003).  R lives
    on the symmetric subspace, where it is the D_t x D_t matrix of
    `_frame_operator`.
    """
    R = _frame_operator(design.states, t)
    return float(np.vdot(R, R).real) / design.size**2


def frame_potential_gradient(states, t):
    """Conjugate (Wirtinger) gradient of Phi_t with respect to each <psi_j|.

    Columns of the result give (2t/K^2) sum_k |<psi_j|psi_k>|^{2(t-1)}
    <psi_k|psi_j> |psi_k>.
    """
    K = states.shape[1]
    G = states.conj().T @ states
    W = np.abs(G)
    W **= 2 * (t - 1)
    G *= W
    return (2 * t / K**2) * (states @ G)


def _frame_operator(states, t):
    """R = S^T S^* for the K x D_t type-class amplitudes S of the columns of `states`.

    The symmetric subspace has one orthonormal basis vector |alpha> per type
    class alpha (occupation numbers of the d levels), and
    <alpha|psi^{x t}> = sqrt(t!/alpha!) prod_i psi_i^{alpha_i}: column alpha
    of S is the product of the t columns of states.T that alpha's word names.
    """
    d, K = states.shape
    if K == 0:
        raise ValueError("frame operator of an empty design")
    if t < 1:
        raise ValueError("t must be >= 1")
    words = list(itertools.combinations_with_replacement(range(d), t))
    weights = [math.sqrt(math.factorial(t) / math.prod(math.factorial(w.count(i)) for i in set(w)))
               for w in words]
    words = np.array(words)  # (D_t, t) level indices
    A = states.T
    # C order whatever the layout of states, so R's bits do not depend on it
    S = np.empty((K, len(words)), dtype=complex)
    np.take(A, words[:, 0], axis=1, out=S)
    for i in range(1, t):
        S *= A[:, words[:, i]]
    S *= weights
    return S.T @ S.conj()


def moment_operator(design, t):
    """Sum_j (|psi_j><psi_j|)^{x t} on the symmetric subspace, and its eigenvalue ratio.

    Returns (R, ratio) where R is the D_t x D_t restriction of
    `_frame_operator`, formed without psi^{x t}, and ratio =
    smallest/largest eigenvalue of R; an exact t-design gives R = (K/D_t) I
    and ratio 1.
    """
    R = _frame_operator(design.states, t)
    ws = np.linalg.eigvalsh(R)
    return R, float(ws[0] / ws[-1])


def optimize_design(K, d, t, seed, max_iters=100000, target=None):
    """Minimize Phi_t over K unit vectors by projected gradient descent.

    States start Haar-random from the seeded generator.  Each step moves
    against the conjugate gradient, renormalizes, and backtracks (halving the
    step, 1 at first) until Phi_t decreases; an accepted step grows the step length.
    Stops at max_iters, at `target`, or when no decrease is possible.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if target is not None and not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    # bad arguments first: they are validation errors however small K is
    Dt = symmetric_dimension(d, t)
    if K < Dt:
        raise InfeasibleDesignError(
            f"K={K} < D_t={Dt}: the frame-potential bound is unreachable"
        )
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((d, K)) + 1j * rng.standard_normal((d, K))
    V /= np.linalg.norm(V, axis=0)

    def phi(states):
        return frame_potential(StateDesign(t=t, states=states), t)

    f = phi(V)
    eta = 1.0
    iters = 0
    trace = [f]
    goal = -np.inf if target is None else target
    while iters < max_iters and f > goal:
        iters += 1
        grad = frame_potential_gradient(V, t)
        while True:
            Vn = V - eta * grad
            Vn /= np.linalg.norm(Vn, axis=0)
            fn = phi(Vn)
            if fn < f or eta < 1e-18:
                break
            eta *= 0.5
        if fn >= f:
            break  # stalled: no descent direction at float precision
        V, f = Vn, fn
        trace.append(f)
        eta *= 1.3
    return StateDesign(
        t=t,
        states=V,
        provenance="numerical",
        metadata={
            "phi_t": f,
            "iterations": iters,
            "seed": seed,
            "target": target,
            "phi_trace": trace,
            "reached_target": bool(target is not None and f <= target),
        },
    )


# ---------------------------------------------------------------------------
# design files: one schema, two renderings.  A file is a header (the six
# fields of _header), free-form metadata and one row of 2*dim floats
# (re0, im0, re1, im1, ...) per state.  JSON holds them as an object with a
# 'metadata' object and a 'states' list; CSV as '# key=value' lines, a column
# line and one comma-separated row per state.  Each reader only parses its
# rendering; load_design checks the result.

def _header(design, phi_t):
    return {
        "format_version": 1,
        "dim": design.dim,
        "t": design.t,
        "K": design.size,
        "provenance": design.provenance,
        "phi_t": phi_t,
    }


def save_design(design, path, phi_t=None):
    """Write a design as JSON, or as CSV if path ends in .csv.

    phi_t is the design's frame potential at design.t, recorded in the
    header; it is computed here unless the caller already has it.  Each
    state is a row of 2*dim '%.17g' strings: the CSV fills a template of
    '%s' fields in one formatting pass, the JSON is json.dump(..., indent=1).
    """
    path = str(path)
    if phi_t is None:
        phi_t = frame_potential(design, design.t)
    header = _header(design, phi_t)
    width = 2 * design.dim  # (re, im) per amplitude
    pairs = np.ascontiguousarray(design.states.T).view(float).ravel().tolist()
    fields = tuple(f"{x:.17g}" for x in pairs)
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".csv"):
            fh.writelines(f"# {k}={v}\n" for k, v in header.items())
            fh.write(",".join(f"re{i},im{i}" for i in range(design.dim)) + "\n")
            fh.write((",".join(["%s"] * width) + "\n") * design.size % fields)
            return
        metadata = {k: v for k, v in design.metadata.items()
                    if isinstance(v, (int, float, str, bool, type(None)))}
        rows = [fields[i:i + width] for i in range(0, len(fields), width)]
        json.dump(dict(header, metadata=metadata, states=rows), fh, indent=1)


def load_design(path):
    """Read a design file written by save_design and check it against the schema."""
    path = str(path)

    def fail(message):
        raise DesignFormatError(f"{path}: {message}")

    try:
        header, metadata, rows = (_read_csv if path.endswith(".csv") else _read_json)(path)
    except UnicodeDecodeError as exc:
        fail(f"not UTF-8 text: {exc.reason}")

    for key in ("format_version", "dim", "t", "K"):
        if key not in header:
            fail(f"missing header field '{key}'")
    version = header["format_version"]
    if type(version) is not int or version != 1:
        fail(f"unsupported format_version {version!r}")
    for key in ("dim", "t", "K"):
        if type(header[key]) is not int or header[key] < 1:
            fail(f"'{key}' must be an integer >= 1, got {header[key]!r}")
    dim, t, K = header["dim"], header["t"], header["K"]
    phi_t = header.get("phi_t")
    if "phi_t" in header and (isinstance(phi_t, bool) or not isinstance(phi_t, (int, float))):
        fail(f"'phi_t' must be a number, got {phi_t!r}")
    if isinstance(phi_t, float) and not math.isfinite(phi_t):
        fail(f"'phi_t' must be a finite number, got {phi_t!r}")
    provenance = header.get("provenance", "file")
    if not isinstance(provenance, str):
        fail(f"'provenance' must be a string, got {provenance!r}")
    if len(rows) != K:
        fail(f"expected K={K} states, found {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != 2 * dim:
            fail(f"state {i}: expected {2 * dim} floats, got {len(row)}")
    table = np.array(rows)
    design = StateDesign(
        t=t,
        states=(table[:, 0::2] + 1j * table[:, 1::2]).T,
        provenance=provenance,
        metadata=dict(metadata, phi_t=phi_t),
    )
    try:
        return design.validate()
    except DesignFormatError as exc:
        fail(exc)


def _read_json(path):
    """(header, metadata, rows) of a JSON design file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DesignFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
        except UnicodeDecodeError:
            raise
        except ValueError as exc:  # an integer beyond Python's int-string digit cap
            raise DesignFormatError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise DesignFormatError(f"{path}: JSON nested too deeply") from exc
    if not (isinstance(data, dict) and isinstance(data.get("states"), list)
            and isinstance(data.get("metadata", {}), dict)):
        raise DesignFormatError(
            f"{path}: not a design object (a JSON object with a 'states' list"
            " and an optional 'metadata' object)")
    rows = [_json_row(path, i, record) for i, record in enumerate(data.pop("states"))]
    return data, data.pop("metadata", {}), rows


def _json_row(path, i, record):
    """State i of a JSON design file as a list of floats."""
    try:
        if isinstance(record, list) and not any(isinstance(x, bool) for x in record):
            return [float(x) for x in record]
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        pass
    raise DesignFormatError(f"{path}: state {i} is not a list of floats")


def _read_csv(path):
    """(header, metadata, rows) of a CSV design file; it has no metadata.

    A header value is the JSON literal it spells (4 is an int, 0.05 a
    float), a float if it is one of the spellings inf, -inf and nan that
    save_design writes for a non-finite float, or else its text.
    """
    header = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                k, _, v = line[1:].strip().partition("=")
                try:
                    header[k.strip()] = json.loads(v)
                except (ValueError, RecursionError):
                    v = v.strip()
                    header[k.strip()] = float(v) if v in _NONFINITE_SPELLINGS else v
            elif line.startswith("re0"):
                continue
            else:
                try:
                    rows.append([float(x) for x in line.split(",")])
                except ValueError as exc:
                    raise DesignFormatError(f"{path}:{lineno}: bad float") from exc
    return header, {}, rows
