"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `[PASS]`/`[FAIL]` line with the measured numbers
(visible with `pytest -s`, or in the captured output on failure) and then
asserts.  Criteria with stated runtime budgets time themselves.
"""

import math
import time

import numpy as np
import pytest

from conftest import F3_SYMMETRIC, IDEAL_ROW_Y_HALF, IDEAL_ROW_Y_ZERO, Z_GRID
from reference import product_effects, q_operator, stabilizer
from mubest.designs import (
    default_design,
    frame_potential,
    frame_potential_gradient,
    moment_operator,
    optimize_design,
    orbit,
    fiducial_state,
)
from mubest.estimation import (
    _q_operators,
    _state_projectors,
    estimation_fidelity,
    fidelity_scan,
    triple_fidelity,
)
from mubest.groups import (
    clifford_group_2q,
    pauli_group_2q,
    restricted_clifford_group_2q,
)
from mubest.linalg import symmetric_dimension
from mubest.mub import OrthonormalBasis, haar_random_unitary, mub_triple
from mubest.simulate import (
    SimConfig,
    equivalence_scan_phase,
    equivalence_scan_random,
    random_subset_analysis,
    simulate_protocol,
)

HALF = math.pi / 2


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def full_run(symmetric_triple, design960):
    cfg = SimConfig(seed=0, m_block=10000, blocks=10)
    return simulate_protocol(symmetric_triple, design960, cfg)


def test_criterion_01_group_orders():
    t0 = time.perf_counter()
    orders = (
        len(clifford_group_2q()),
        len(restricted_clifford_group_2q()),
        len(pauli_group_2q()),
    )
    elapsed = time.perf_counter() - t0
    ok = orders == (11520, 960, 16) and elapsed < 60
    report(
        "criterion 1 (group orders)",
        ok,
        f"clifford={orders[0]} restricted={orders[1]} pauli={orders[2]} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_02_orbit_structure(restricted_group, clifford_group):
    t0 = time.perf_counter()
    psi = fiducial_state()
    n_restricted = orbit(restricted_group, psi).size
    n_full = orbit(clifford_group, psi).size
    n_stab = len(stabilizer(clifford_group, psi))
    elapsed = time.perf_counter() - t0
    ok = (n_restricted, n_full, n_stab) == (960, 3840, 3) and elapsed < 120
    report(
        "criterion 2 (orbit structure)",
        ok,
        f"restricted_orbit={n_restricted} full_orbit={n_full} "
        f"stabilizer={n_stab} time={elapsed:.1f}s",
    )


def test_criterion_03_design_certification(design960):
    devs = [
        abs(frame_potential(design960, t) - 1.0 / symmetric_dimension(4, t))
        for t in range(1, 5)
    ]
    _, ratio = moment_operator(design960, 4)
    ok = max(devs) <= 1e-10 and abs(ratio - 1.0) <= 1e-8
    report(
        "criterion 3 (4-design certification)",
        ok,
        f"max|phi_t - 1/D_t|={max(devs):.2e} (t=1..4) ratio_dev={abs(ratio-1):.2e}",
    )


def test_criterion_04_closed_form_fidelities(symmetric_triple):
    f3 = triple_fidelity(symmetric_triple)
    ms = symmetric_triple.bases
    f2 = [
        estimation_fidelity([ms[i], ms[j]])
        for i, j in [(0, 1), (0, 2), (1, 2)]
    ]
    f1 = estimation_fidelity([ms[0]])
    dev3 = abs(f3 - F3_SYMMETRIC)
    dev2 = max(abs(f - 7.0 / 15.0) for f in f2)
    dev1 = abs(f1 - 0.4)
    ok = dev3 <= 1e-10 and dev2 <= 1e-10 and dev1 <= 1e-10
    report(
        "criterion 4 (closed-form fidelities)",
        ok,
        f"F3={f3:.10f} (dev {dev3:.1e}) F2_dev={dev2:.1e} F1_dev={dev1:.1e}",
    )


def test_criterion_05_fidelity_curves():
    rows_half = [f for *_, f in fidelity_scan(HALF, [HALF], Z_GRID)]
    rows_zero = [f for *_, f in fidelity_scan(HALF, [0.0], Z_GRID)]
    dev = max(
        max(abs(a - b) for a, b in zip(rows_half, IDEAL_ROW_Y_HALF)),
        max(abs(a - b) for a, b in zip(rows_zero, IDEAL_ROW_Y_ZERO)),
    )
    values = rows_half + rows_zero
    gap = max(values) - min(values)
    ok = dev <= 5e-5 and abs(gap - 0.0206) <= 2e-4
    report(
        "criterion 5 (fidelity curves)",
        ok,
        f"max_table_dev={dev:.2e} gap={gap:.6f}",
    )


def test_criterion_06_unitary_invariance(symmetric_triple, design960):
    exact_s, _ = equivalence_scan_random(
        100, symmetric_triple, design960, unitary_seed=1
    )
    phase_rows = equivalence_scan_phase(
        list(np.linspace(0, 2 * math.pi, 9)), symmetric_triple, design960
    )
    phase_spread = max(r[1] for r in phase_rows) - min(r[1] for r in phase_rows)
    maximal, minimal, _, _, max_deviation = exact_s
    spread = maximal - minimal
    ok = spread <= 1e-10 and max_deviation <= 1e-10 and phase_spread <= 1e-10
    report(
        "criterion 6 (unitary invariance)",
        ok,
        f"haar_spread={spread:.2e} haar_max_dev={max_deviation:.2e} "
        f"phase_spread={phase_spread:.2e}",
    )


def test_criterion_07_numerical_design():
    t0 = time.perf_counter()
    target = 0.0287
    design = None
    for seed in range(5):
        cand = optimize_design(200, 4, 4, seed=seed, max_iters=10**7, target=target)
        if cand.metadata["reached_target"]:
            design = cand
            break
    reached = design is not None
    detail = f"reached_target={reached}"
    ok = reached
    if reached:
        ideal = [f for *_, f in fidelity_scan(HALF, [HALF, 0.0], Z_GRID)]
        empirical = [
            f
            for *_, f in fidelity_scan(
                HALF, [HALF, 0.0], Z_GRID, mode="empirical", design=design
            )
        ]
        dev = max(abs(a - b) for a, b in zip(ideal, empirical))
        ok = dev <= 1.5e-3 and dev < 0.1 * 0.0205
        detail += (
            f" seed={design.metadata['seed']} phi4={design.metadata['phi_t']:.6f}"
            f" curve_dev={dev:.2e}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 1800
    report("criterion 7 (numerical design)", ok, detail + f" time={elapsed:.0f}s")


def test_criterion_08_simulation_statistics(symmetric_triple, design960, full_run):
    sigma = 6e-5
    mean_dev = abs(full_run.mean_fidelity - 0.52057)
    within_3sigma = mean_dev <= 3 * sigma
    # the quoted sigma is a per-block standard deviation; the seed-to-seed
    # scatter of the mean should track block_std / sqrt(blocks)
    block_ok = sigma / 2 <= full_run.std <= sigma * 2
    means = [full_run.mean_fidelity]
    for seed in range(1, 30):
        cfg = SimConfig(seed=seed, m_block=10000, blocks=10)
        means.append(
            simulate_protocol(symmetric_triple, design960, cfg).mean_fidelity
        )
    seed_std = float(np.std(means, ddof=1))
    predicted = full_run.std / math.sqrt(full_run.config.blocks)
    seed_ok = predicted / 2 <= seed_std <= predicted * 2
    ok = within_3sigma and block_ok and seed_ok
    report(
        "criterion 8 (simulation statistics)",
        ok,
        f"mean={full_run.mean_fidelity:.6f} (dev {mean_dev:.1e}) "
        f"block_std={full_run.std:.2e} seed_std={seed_std:.2e} "
        f"predicted={predicted:.2e}",
    )


def test_criterion_09_subset_analysis(full_run):
    results = random_subset_analysis(full_run, [240, 480, 720], trials=300, seed=1)
    stds = [results[k][1] for k in (240, 480, 720)]
    ratio = stds[0] / stds[2]
    ok = stds[0] > stds[1] > stds[2] > 0 and 1.5 <= ratio <= 3.5
    report(
        "criterion 9 (subset analysis)",
        ok,
        f"std240={stds[0]:.2e} std480={stds[1]:.2e} std720={stds[2]:.2e} "
        f"ratio={ratio:.2f}",
    )


def test_criterion_10_oracle_equivalence(rng):
    # the production Q (a sum over the Clifford-orbit design) against the
    # permutation-sum reference, for every outcome of random product measurements
    d = 4
    design = default_design()
    projectors = _state_projectors(design.states)
    worst_q = 0.0
    for i in range(20):
        N = 1 + (i % 2)
        measurements = [OrthonormalBasis(haar_random_unitary(d, rng)) for _ in range(N)]
        q_stack = _q_operators(measurements, design, projectors)
        for q_lib, effect in zip(q_stack, product_effects(measurements)):
            q_ref = q_operator(effect, N, d)
            worst_q = max(worst_q, float(np.max(np.abs(q_lib - q_ref))))

    K, t = 15, 4
    V = rng.standard_normal((d, K)) + 1j * rng.standard_normal((d, K))
    V /= np.linalg.norm(V, axis=0)

    def phi(states):
        G = np.abs(states.conj().T @ states) ** 2
        return float((G**t).sum()) / K**2

    grad = frame_potential_gradient(V, t)
    h = 1e-6
    worst_g = 0.0
    for _ in range(20):
        j, a = rng.integers(K), rng.integers(d)
        for delta in (h, 1j * h):
            Vp, Vm = V.copy(), V.copy()
            Vp[a, j] += delta
            Vm[a, j] -= delta
            fd = (phi(Vp) - phi(Vm)) / (2 * h)
            analytic = 2 * (grad[a, j].real if delta == h else grad[a, j].imag)
            worst_g = max(worst_g, abs(fd - analytic) / max(1e-12, abs(analytic)))
    ok = worst_q <= 1e-10 and worst_g <= 1e-5
    report(
        "criterion 10 (oracle equivalence)",
        ok,
        f"max_Q_dev={worst_q:.2e} max_grad_rel_dev={worst_g:.2e}",
    )
