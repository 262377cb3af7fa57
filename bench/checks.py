"""Output checks: every value is read back from the files a command wrote.

Reference values come from the oracle, the paper's closed forms, the
published curve table, or a property the method must have; no check compares
against a stored copy of earlier output.  Tolerances follow the files'
precision: CSV cells carry 12 significant digits, JSON floats are exact.
"""

import json
import math
import sys

import numpy as np

import oracle as orc
from workloads import SUBSET_TRIALS

CSV_TOL = 1e-10  # 12 significant digits on values of order 1, with margin
SAMPLING_SIGMAS = 5.0  # P(|N(0,1)| > 5) ~ 6e-7 per check
BLOCK_STD_RATIO = (0.15, 2.5)  # reported block std / predicted block std
SPOT_CHECKS = 200  # sampled products in a group's closure check


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(what, got, want, tol):
    require(
        got is not None and abs(got - want) <= tol,
        f"{what}: got {got!r}, expected {want!r} within {tol:g}",
    )


def read_json(path):
    require(path.is_file(), f"missing output {path.name}")
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """(column names, rows of float-or-None/str cells); '#' comment lines skipped."""
    require(path.is_file(), f"missing output {path.name}")
    columns, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if columns is None:
                columns = line.split(",")
            elif line:
                rows.append([_cell(c) for c in line.split(",")])
    require(columns is not None, f"{path.name}: no column header")
    return columns, rows


def _cell(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def check_manifest(outdir, first_output, seed=None):
    man = read_json(outdir / (first_output + ".manifest.json"))
    if seed is not None:
        require(man.get("seed") == seed, f"manifest seed {man.get('seed')} != {seed}")
    for p in man.get("output_paths", []):
        require((outdir / p).is_file(), f"manifest lists missing output {p}")


class Context:
    """Oracle plus the program's 960-state design, certified on first use."""

    def __init__(self, src_dir):
        self.oracle = orc.Oracle()
        self.src_dir = str(src_dir)
        self._design = None
        self._models = {}

    def design960(self):
        if self._design is None:
            if self.src_dir not in sys.path:
                sys.path.insert(0, self.src_dir)
            from mubest import clifford_design, restricted_clifford_group_2q

            states = clifford_design(restricted_clifford_group_2q()).states
            check_exact_design(states, 960, "default design")
            self._design = states
        return self._design

    def sampling_model(self, x, y, z):
        key = (x, y, z)
        if key not in self._models:
            self._models[key] = self.oracle.sampling_model(x, y, z, self.design960())
        return self._models[key]


# --------------------------------------------------------------------------
# simulation outputs

def check_sim_report(ctx, outdir, name, params, seed, m_block, blocks, counts):
    """A `simulate --out name` report, its blocks CSV and manifest."""
    x, y, z = params
    rep = read_json(outdir / name)
    require(rep["seed"] == seed and rep["m_block"] == m_block and rep["blocks"] == blocks,
            f"{name}: config {rep['seed'], rep['m_block'], rep['blocks']}"
            f" != {seed, m_block, blocks}")
    for got, want in zip(rep["triple_params"], params):
        close(f"{name}: triple parameter", got, want, 1e-12)
    per_block = np.array(rep["per_block_fidelities"])
    require(per_block.shape == (blocks,), f"{name}: {per_block.size} block values")
    close(f"{name}: mean of blocks", rep["mean_fidelity"], per_block.mean(), 1e-14)
    if blocks > 1:
        close(f"{name}: block std", rep["std"], per_block.std(ddof=1), 1e-14)

    f_table, expected, sigma1 = ctx.sampling_model(x, y, z)
    exact = ctx.oracle.triple_fidelity(x, y, z)
    close(f"{name}: design average of the oracle estimators", expected, exact, 1e-10)
    sigma_block = sigma1 / math.sqrt(m_block)
    close(f"{name}: simulated F", rep["mean_fidelity"], exact,
          SAMPLING_SIGMAS * sigma_block / math.sqrt(blocks))
    if blocks > 1:
        ratio = rep["std"] / sigma_block
        lo, hi = BLOCK_STD_RATIO
        require(lo <= ratio <= hi,
                f"{name}: block std {rep['std']:.3g} is {ratio:.2f}x the predicted"
                f" {sigma_block:.3g}")

    columns, rows = read_csv(outdir / (name + ".blocks.csv"))
    require(columns == ["block", "fidelity"] and len(rows) == blocks,
            f"{name}.blocks.csv: {len(rows)} rows of {columns}")
    for b, (idx, f) in enumerate(rows):
        require(idx == b, f"{name}.blocks.csv: block index {idx} at row {b}")
        close(f"{name}.blocks.csv: block {b}", f, per_block[b], CSV_TOL)

    if counts:
        c = np.asarray(rep["counts"])
        require(c.shape == (f_table.shape[0], blocks, 64), f"{name}: counts shape {c.shape}")
        require(c.min() >= 0, f"{name}: negative count")
        sums = c.sum(axis=2)
        for s, b in np.argwhere(sums != m_block)[:1]:
            raise CheckFailed(f"{name}: counts of state {s}, block {b} sum to"
                              f" {sums[s, b]}, not M={m_block}")
        recomputed = np.einsum("kbo,ko->b", c.astype(float), f_table) / (c.shape[0] * m_block)
        for b in range(blocks):
            close(f"{name}: block {b} F recomputed from counts", per_block[b],
                  recomputed[b], 1e-12)
    check_manifest(outdir, name, seed)


def check_subsets(ctx, outdir, name, params, sizes, m_block, blocks):
    """`subsets --out name`: means agree with the full run, std falls with size."""
    columns, rows = read_csv(outdir / name)
    require(columns == ["K", "mean", "std"], f"{name}: columns {columns}")
    require([r[0] for r in rows] == list(sizes), f"{name}: sizes {[r[0] for r in rows]}")
    exact = ctx.oracle.triple_fidelity(*params)
    _, _, sigma1 = ctx.sampling_model(*params)
    run_sigma = sigma1 / math.sqrt(m_block * blocks)
    for size, mean, std in rows:
        require(std is not None and std > 0, f"{name}: K={size} std {std}")
        close(f"{name}: K={size} subset mean", mean, exact,
              SAMPLING_SIGMAS * (std / math.sqrt(SUBSET_TRIALS) + run_sigma))
    stds = [r[2] for r in rows]
    require(all(a > b for a, b in zip(stds, stds[1:])),
            f"{name}: std does not fall with subset size: {stds}")
    check_manifest(outdir, name)


# --------------------------------------------------------------------------
# exact-theory outputs

def _canonical_keys(mats):
    """Phase-canonical 1e-6 grid keys: first entry above 1e-8 made positive real."""
    flat = mats.reshape(len(mats), -1)
    idx = np.argmax(np.abs(flat) > 1e-8, axis=1)
    pivot = flat[np.arange(len(flat)), idx]
    canon = flat * (np.abs(pivot) / pivot)[:, None]
    grid = np.rint(np.stack([canon.real, canon.imag], axis=1) * 1e6).astype(np.int64)
    return [row.tobytes() for row in grid]


def load_group(path):
    data = read_json(path)
    arr = np.asarray(data["elements"], dtype=float)
    return data, arr[..., 0] + 1j * arr[..., 1]


def check_group(ctx, outdir, name, order, seed, supergroup=None):
    """Order, unitarity, distinctness mod phase, closure on sampled products."""
    data, mats = load_group(outdir / name)
    require(data["order"] == order and len(mats) == order,
            f"{name}: order {data['order']} with {len(mats)} elements, expected {order}")
    dev = np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(4)).max()
    require(dev <= 1e-9, f"{name}: unitarity deviation {dev:.2e}")
    keys = _canonical_keys(mats)
    key_set = set(keys)
    require(len(key_set) == order, f"{name}: {order - len(key_set)} duplicate elements")
    rng = np.random.default_rng(seed)
    a, b = rng.integers(order, size=(2, SPOT_CHECKS))
    missing = [k for k in _canonical_keys(mats[a] @ mats[b]) if k not in key_set]
    require(not missing, f"{name}: {len(missing)} of {SPOT_CHECKS} sampled products"
                         " fall outside the group")
    if supergroup is not None:
        _, big = load_group(outdir / supergroup)
        big_keys = set(_canonical_keys(big))
        require(key_set <= big_keys, f"{name}: not a subgroup of {supergroup}")
    check_manifest(outdir, name)


def load_design_states(path):
    data = read_json(path)
    rows = np.array([[float(v) for v in rec] for rec in data["states"]])
    require(data["K"] == len(rows), f"{path.name}: K={data['K']} with {len(rows)} states")
    return data, (rows[:, 0::2] + 1j * rows[:, 1::2]).T


def check_exact_design(states, K, what):
    require(states.shape == (orc.D, K), f"{what}: shape {states.shape}, expected {(orc.D, K)}")
    norms = np.abs(np.linalg.norm(states, axis=0) - 1).max()
    require(norms <= 1e-10, f"{what}: unit-norm deviation {norms:.2e}")
    for t in range(1, 5):
        close(f"{what}: frame potential t={t}", orc.frame_potential(states, t),
              1 / orc.sym_dim(t), 1e-10)


def check_design_file(ctx, outdir, name, K, phi4_max=None):
    """Exact 4-design (phi_t = 1/D_t, t = 1..4) or phi_4 at most phi4_max."""
    data, states = load_design_states(outdir / name)
    if phi4_max is None:
        check_exact_design(states, K, name)
    else:
        require(states.shape == (orc.D, K), f"{name}: shape {states.shape}")
        phi4 = orc.frame_potential(states, 4)
        require(phi4 <= phi4_max, f"{name}: phi_4 {phi4:.6g} > {phi4_max}")
    close(f"{name}: recorded phi_t", data["phi_t"], orc.frame_potential(states, data["t"]),
          1e-12)
    check_manifest(outdir, name)


def _curve_rows(name, rows, x, y_values):
    expected = [(y, z) for y in y_values for z in orc.Z_GRID]
    require(len(rows) == len(expected), f"{name}: {len(rows)} rows, expected {len(expected)}")
    for row, (y, z) in zip(rows, expected):
        for got, want in zip(row[:3], (x, y, z)):
            close(f"{name}: grid point", got, want, CSV_TOL)
    return expected


def check_curves(ctx, outdir, name, y_values, design_file=None):
    """Three-copy curves at x = pi/2: oracle, published table, empirical gap."""
    columns, rows = read_csv(outdir / name)
    require(columns == ["x", "y", "z", "F"], f"{name}: columns {columns}")
    x = math.pi / 2
    points = _curve_rows(name, rows, x, y_values)
    states = None
    if design_file is not None:
        _, states = load_design_states(outdir / design_file)
    for row, (y, z) in zip(rows, points):
        ideal = ctx.oracle.triple_fidelity(x, y, z)
        if states is None:
            close(f"{name}: F at y={y:.4f} z={z:.4f}", row[3], ideal, CSV_TOL)
            close(f"{name}: published F at y={y:.4f} z={z:.4f}", row[3],
                  orc.PUBLISHED[y][orc.Z_GRID.index(z)], orc.PUBLISHED_TOL)
        else:
            close(f"{name}: empirical F at y={y:.4f} z={z:.4f}", row[3],
                  ctx.oracle.triple_fidelity(x, y, z, states), 1e-9)
            close(f"{name}: empirical vs ideal F at y={y:.4f} z={z:.4f}", row[3], ideal,
                  1.5e-3)
    check_manifest(outdir, name)


def check_two_copy(ctx, outdir, name, y_values):
    """Two-copy AB curves: the oracle's F (the closed form 7/15, see oracle.self_test)."""
    columns, rows = read_csv(outdir / name)
    require(columns == ["x", "y", "z", "F"], f"{name}: columns {columns}")
    x = math.pi / 2
    _curve_rows(name, rows, x, y_values)
    bases = orc.triple_bases(x, 0.0, 0.0)[:2]
    f2 = ctx.oracle.fidelity(bases)
    for row in rows:
        close(f"{name}: F at y={row[1]:.4f} z={row[2]:.4f}", row[3], f2, CSV_TOL)
    check_manifest(outdir, name)


def check_phase_scan(ctx, outdir, name, phis):
    """Every exact row of the controlled-phase scan equals the untransformed F."""
    columns, rows = read_csv(outdir / name)
    require(columns == ["phi", "exact_F", "simulated_F", "std"], f"{name}: columns {columns}")
    require(len(rows) == len(phis), f"{name}: {len(rows)} rows, expected {len(phis)}")
    f3 = ctx.oracle.triple_fidelity(math.pi / 2, math.pi / 2, math.pi / 2)
    for (phi, exact, sim, std), want in zip(rows, phis):
        close(f"{name}: phase", phi, want, CSV_TOL)
        close(f"{name}: exact F at phi={want:.4f}", exact, f3, CSV_TOL)
        require(sim is None and std is None, f"{name}: simulated cells in an exact scan")
    check_manifest(outdir, name)


def check_haar_scan(ctx, outdir, name):
    """Haar-scan summary: every statistic equals the untransformed F."""
    columns, rows = read_csv(outdir / name)
    require(columns == ["kind", "maximal", "minimal", "average", "std", "max_deviation"],
            f"{name}: columns {columns}")
    require(len(rows) == 1 and rows[0][0] == "exact", f"{name}: rows {rows}")
    f3 = ctx.oracle.triple_fidelity(math.pi / 2, math.pi / 2, math.pi / 2)
    _, fmax, fmin, favg, std, dev = rows[0]
    for what, v in (("maximal", fmax), ("minimal", fmin), ("average", favg)):
        close(f"{name}: {what} F", v, f3, CSV_TOL)
    close(f"{name}: std over unitaries", std, 0.0, CSV_TOL)
    close(f"{name}: max deviation", dev, 0.0, CSV_TOL)
    check_manifest(outdir, name)
