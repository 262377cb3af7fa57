import hashlib
import io
import itertools
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

import reference
from conftest import F3_SYMMETRIC
from mubest.designs import StateDesign, default_design, load_design, optimize_design, save_design
from mubest.estimation import estimation_fidelity, fidelities, triple_fidelity
from mubest.mub import (
    born_probabilities,
    controlled_phase,
    haar_random_unitary,
    mub_triple,
    transform_triple,
)
from mubest.simulate import (
    SimConfig,
    SimReport,
    _param_key,
    equivalence_scan_phase,
    equivalence_scan_random,
    estimator_tables,
    predicted_subset_std,
    random_subset_analysis,
    reprocess_two_copy,
    run_health,
    save_report,
    simulate_protocol,
)

HALF = math.pi / 2

SMALL = SimConfig(seed=11, m_block=400, blocks=3)

# sha256 of the counts' int64 bytes and the mean fidelity of small runs: the
# sampled streams must never change for an existing seed.  The mean is checked to
# 1e-12, the tolerance within which fidelities must stay, because scoring
# arithmetic may sum in another order.  These runs pin stream version 2, which
# also depends on numpy keeping Generator.multinomial's stream.
GOLDEN_RUNS = [
    (
        (HALF, HALF, HALF),
        SMALL,
        "af7fd24fbd2d0cac8857f34a0fb53a217b7734df71ae8f483ddfa7ef7802a5fc",
        0.5206869983810062,
    ),
]

# the same for stream version 1, which `reference_counts` states: the counts of
# runs made before version 2; the last one has ten blocks and a seed of three
# 32-bit words
V1_GOLDEN_RUNS = [
    (
        (HALF, HALF, HALF),
        SimConfig(seed=11, m_block=400, blocks=3),
        "14cd5debbdcb2ec38953fd41f5816aea3281dba889db3b3ce0ebefcebcbba750",
        0.5207395658426618,
    ),
    (
        (HALF, HALF / 2, HALF),
        SimConfig(seed=2**64 + 13, m_block=200, blocks=10),
        "c04777567b4d58fd289c546eee2b7749553b2e66b5afcfaf9bc5de3a32b1ea05",
        0.517797336603819,
    ),
]


def predicted_std_of_mean(triple, design, cfg):
    """Standard deviation of a run's mean fidelity that the exact Born
    probabilities predict: one block's variance is sum_k var_k(f) / (K^2 M).

    A std estimated from a few blocks is itself noisy (at B = 2 it can read
    ~1e-6), so sampling checks use this instead."""
    probs = [np.abs(b.vectors.conj().T @ design.states).T ** 2 for b in triple.bases]
    joint = np.einsum("ka,kb,kc->kabc", *probs).reshape(design.size, 64)
    f = estimator_tables(triple.bases, design)
    var = ((joint * f**2).sum(axis=1) - (joint * f).sum(axis=1) ** 2).sum()
    return math.sqrt(var / (design.size**2 * cfg.m_block * cfg.blocks))


@pytest.fixture(scope="module")
def haar_triple(symmetric_triple):
    u = haar_random_unitary(4, np.random.default_rng(7))
    return transform_triple(symmetric_triple, u)


SCAN = SimConfig(seed=0, m_block=500, blocks=2)


@pytest.fixture(scope="module")
def haar_report(haar_triple, design960):
    return simulate_protocol(haar_triple, design960, SCAN, keep_counts=True)


@pytest.fixture(scope="module")
def small_report(symmetric_triple, design960):
    return simulate_protocol(symmetric_triple, design960, SMALL, keep_counts=True)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=0, m_block=0)
    with pytest.raises(ValueError):
        SimConfig(seed=0, blocks=0)
    with pytest.raises(ValueError, match="blocks must be >= 2 for a std"):
        SimConfig(seed=0, blocks=1)
    with pytest.raises(TypeError):  # one sampler is left, so nothing to choose
        SimConfig(seed=0, sampler="counts")
    # the sampler splits int64 counts: M stops at the largest int64
    assert SimConfig(0, 2**63 - 1, 2).m_block == 2**63 - 1
    for m_block in (2**63, np.uint64(2**63)):
        with pytest.raises(ValueError, match=re.escape("from 1 to 2**63 - 1")):
            SimConfig(seed=0, m_block=m_block)


# a float or bool M would pick the count table's dtype; a float B fails late, in np.empty
@pytest.mark.parametrize("sizes", [dict(m_block=1.5), dict(m_block=True), dict(blocks=2.5)])
def test_config_rejects_non_integer_sizes(sizes):
    with pytest.raises(ValueError, match="an integer"):
        SimConfig(seed=0, **sizes)


def test_config_is_a_value():
    cfg = SimConfig(seed=1)
    assert cfg == SimConfig(seed=1) and hash(cfg) == hash(SimConfig(seed=1))
    assert cfg != SimConfig(seed=2) and cfg != SimConfig(seed=1, blocks=3)
    assert SimConfig(1, 100, 2) == SimConfig(seed=1, m_block=100, blocks=2)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    for name in ("seed", "m_block", "blocks"):
        assert f"{name}=" in repr(cfg)
        with pytest.raises(AttributeError):
            setattr(cfg, name, getattr(cfg, name))


def test_report_takes_fields_in_order(small_report):
    fields = ("config", "triple", "design", "mode", "measurements", "f_table", "counts")
    values = [getattr(small_report, name) for name in fields]
    rebuilt = SimReport(*values)
    assert all(getattr(rebuilt, name) is value for name, value in zip(fields, values))
    # the statistics are rebuilt from the counts, bit for bit
    for name in ("mean_fidelity", "std"):
        assert getattr(rebuilt, name) == getattr(small_report, name)
    for name in ("per_block_fidelities", "per_state_fidelity"):
        assert np.array_equal(getattr(rebuilt, name), getattr(small_report, name))


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, 2.0, "3", None, True])
def test_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="non-negative integer"):
        SimConfig(seed=seed)


@pytest.mark.parametrize("params, cfg, counts_sha256, mean", GOLDEN_RUNS)
def test_golden_counts(design960, params, cfg, counts_sha256, mean):
    report = simulate_protocol(mub_triple(*params), design960, cfg, keep_counts=True)
    # the table is held in the narrowest unsigned dtype that holds M
    assert hashlib.sha256(report.counts.astype(np.int64).tobytes()).hexdigest() == counts_sha256
    assert abs(report.mean_fidelity - mean) <= 1e-12


def reference_counts(triple, design, cfg):
    """Stream version 1, the per-shot sampler of earlier versions, written
    plainly: one numpy-constructed substream per (role, state, block) and
    searchsorted on the cumulative Born probabilities."""
    cdfs = [np.cumsum(born_probabilities(b, design.states), axis=1) for b in triple.bases]
    keys = [_param_key(role, triple) for role in range(3)]
    counts = np.zeros((design.size, cfg.blocks, 64), dtype=np.int64)
    for state in range(design.size):
        for block in range(cfg.blocks):
            joint = np.zeros(cfg.m_block, dtype=np.int64)
            for role in range(3):
                ss = np.random.SeedSequence(cfg.seed, spawn_key=(role, keys[role], state, block))
                u = np.random.Generator(np.random.PCG64(ss)).random(cfg.m_block)
                joint = 4 * joint + np.searchsorted(cdfs[role][state, :3], u)
            counts[state, block] = np.bincount(joint, minlength=64)
    return counts


@pytest.mark.parametrize("params, cfg, counts_sha256, mean", V1_GOLDEN_RUNS)
def test_v1_golden_counts(design960, params, cfg, counts_sha256, mean):
    triple = mub_triple(*params)
    counts = reference_counts(triple, design960, cfg)
    assert hashlib.sha256(counts.tobytes()).hexdigest() == counts_sha256
    report = SimReport(cfg, triple, design960, "ideal", triple.bases,
                       estimator_tables(triple.bases, design960), counts)
    assert abs(report.mean_fidelity - mean) <= 1e-12


def reference_multinomial_counts(triple, design, cfg):
    """The counts sampler's contract written plainly: per role, one generator
    keyed (2, role, param_key) and one multinomial call over all states and
    blocks, each cell counted so far splitting over the role's outcomes."""
    n = np.full((design.size, cfg.blocks), cfg.m_block)
    for role, basis in enumerate(triple.bases):
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(2, role, _param_key(role, triple)))
        p = born_probabilities(basis, design.states)
        n = np.random.default_rng(seq).multinomial(
            n, p.reshape((design.size,) + (1,) * (n.ndim - 1) + (4,))
        )
    return n.reshape(design.size, cfg.blocks, 64)


def test_multinomial_counts_match_reference(haar_triple, design960):
    # 960 states span 15 chunks, so chunking must not change the streams
    cfg = SimConfig(seed=2**40 + 3, m_block=500, blocks=3)
    report = simulate_protocol(haar_triple, design960, cfg, keep_counts=True)
    assert np.array_equal(
        report.counts, reference_multinomial_counts(haar_triple, design960, cfg)
    )


@pytest.fixture(scope="module")
def full_report(symmetric_triple, design960):
    return simulate_protocol(symmetric_triple, design960, SimConfig(seed=5), keep_counts=True)


def test_counts_goodness_of_fit(full_report, symmetric_triple, design960):
    # pooled over blocks, each state's counts follow Multinomial(M B, p_A x p_B x p_C)
    cfg = full_report.config
    probs = [born_probabilities(b, design960.states) for b in symmetric_triple.bases]
    expected = cfg.m_block * cfg.blocks * np.einsum("ka,kb,kc->kabc", *probs).reshape(-1, 64)
    assert expected.min() > 1  # every cell is populated, so all take part
    observed = full_report.counts.sum(axis=1)
    chi2 = ((observed - expected) ** 2 / expected).sum()
    dof = expected.size - design960.size
    assert abs(chi2 - dof) / math.sqrt(2 * dof) <= 5


def test_full_run_mean_within_predicted_sigma(full_report, symmetric_triple, design960):
    sigma = predicted_std_of_mean(symmetric_triple, design960, full_report.config)
    assert abs(full_report.mean_fidelity - F3_SYMMETRIC) <= 5 * sigma


def test_run_health_matches_prediction(full_report, symmetric_triple, design960):
    health = run_health(full_report)
    sigma = predicted_std_of_mean(symmetric_triple, design960, full_report.config)
    assert health["exact_fidelity"] == pytest.approx(F3_SYMMETRIC, abs=1e-12)
    assert health["predicted_std_of_mean"] == pytest.approx(sigma, rel=1e-9)
    assert health["z"] == pytest.approx(
        (full_report.mean_fidelity - health["exact_fidelity"]) / sigma, rel=1e-6
    )
    assert abs(health["z"]) <= 5


def test_run_health_exact_is_the_design_fidelity(symmetric_triple, haar_triple, design960):
    # the sampler's Born probabilities and the Q pass give one F: the run's
    # table averaged over its own design, whichever Q its estimators came from
    designs = (design960, optimize_design(200, 4, 4, seed=0, target=0.0287),
               StateDesign(t=4, states=design960.states[:, ::7]))
    triples = (symmetric_triple, mub_triple(HALF, 0.0, math.pi / 4), haar_triple)
    cfg = SimConfig(seed=0, m_block=10, blocks=2)
    for design, triple, mode in itertools.product(designs, triples, ("ideal", "empirical")):
        run = simulate_protocol(triple, design, cfg, mode, keep_counts=True)
        for report in (run, reprocess_two_copy(run, (0, 2))):
            expected = fidelities([report.measurements], report.mode, report.design)[0]
            assert run_health(report)["exact_fidelity"] == pytest.approx(expected, abs=1e-12)


def test_standard_estimator_fidelity_of_a_one_state_design():
    # |0> never gives A's outcomes 1..3, so 48 of the 64 Q' are zero: standard
    # estimators score them 0, as run_health does (matched ones raise, see
    # test_fidelities_checks)
    triple = mub_triple(HALF, HALF, HALF)
    single = StateDesign(t=4, states=np.eye(4, 1, dtype=complex))
    run = simulate_protocol(triple, single, SimConfig(seed=0, m_block=10, blocks=2), "ideal")
    exact = run_health(run)["exact_fidelity"]
    assert exact == pytest.approx(0.6443375672974068, abs=1e-12)
    assert fidelities([triple.bases], "ideal", single)[0] == pytest.approx(
        exact, abs=1e-12)


def test_counts_shape_and_totals(small_report, design960):
    counts = small_report.counts
    assert counts.shape == (design960.size, SMALL.blocks, 64)
    assert np.all(counts.sum(axis=2) == SMALL.m_block)
    assert len(small_report.measurements) == 3
    assert all(m is b for m, b in zip(small_report.measurements, small_report.triple.bases))


def test_seed_reproducibility(symmetric_triple, design960, small_report):
    again = simulate_protocol(symmetric_triple, design960, SMALL, keep_counts=True)
    assert np.array_equal(again.counts, small_report.counts)
    assert again.mean_fidelity == small_report.mean_fidelity


def test_different_seed_differs(symmetric_triple, design960, small_report):
    other = simulate_protocol(
        symmetric_triple, design960, SimConfig(seed=12, m_block=400, blocks=3),
        keep_counts=True,
    )
    assert not np.array_equal(other.counts, small_report.counts)


def test_mean_consistent_with_exact(small_report, design960):
    exact = run_health(small_report)["exact_fidelity"]
    n = design960.size * SMALL.m_block * SMALL.blocks
    # binomial-scale tolerance, generous factor
    assert abs(small_report.mean_fidelity - exact) <= 8 / math.sqrt(n)


def test_std_of_mean_property(small_report):
    assert small_report.std_of_mean == pytest.approx(
        small_report.std / math.sqrt(SMALL.blocks)
    )
    assert small_report.per_block_fidelities.shape == (SMALL.blocks,)
    assert small_report.mean_fidelity == pytest.approx(
        float(small_report.per_block_fidelities.mean())
    )


def test_shared_ab_streams_across_z(design960):
    # triples differing only in z reuse the A and B outcome streams, so the
    # marginal counts over the C outcome agree exactly
    c1, c2 = (
        simulate_protocol(mub_triple(HALF, HALF, z), design960, SMALL, keep_counts=True)
        .counts.reshape(-1, SMALL.blocks, 4, 4, 4)
        for z in (HALF, HALF / 2)
    )
    assert np.array_equal(c1.sum(axis=4), c2.sum(axis=4))
    assert not np.array_equal(c1, c2)


def test_signed_zero_angles_share_streams(design960):
    # -0.0 and 0.0 are the same angle: same streams, same counts
    design = StateDesign(t=4, states=design960.states[:, :40])
    cfg = SimConfig(seed=11, m_block=50, blocks=2)
    plus, minus = (
        simulate_protocol(mub_triple(zero, HALF, zero), design, cfg, keep_counts=True).counts
        for zero in (0.0, -0.0)
    )
    assert np.array_equal(plus, minus)


def test_estimator_tables_follow_bases(symmetric_triple, haar_triple, design960):
    # same (x, y, z), different bases: the tables must differ
    plain = estimator_tables(symmetric_triple.bases, design960)
    moved = estimator_tables(haar_triple.bases, design960)
    assert plain.shape == moved.shape == (design960.size, 64)
    assert not np.allclose(plain, moved)


@pytest.mark.parametrize("mode", ["ideal", "empirical"])
def test_tables_depend_on_the_states_not_the_orbits_name(mode, tmp_path):
    # the orbit, an in-memory copy and its JSON and CSV round trips hold the same
    # states, so they give the same table, and a run over each the same scores
    orbit = default_design()
    copies = [StateDesign(t=orbit.t, states=orbit.states.copy())]
    for suffix in ("json", "csv"):
        save_design(orbit, tmp_path / f"clifford.{suffix}")
        copies.append(load_design(tmp_path / f"clifford.{suffix}"))
    triple = mub_triple(HALF, 0.3, 1.1)
    cfg = SimConfig(seed=37, m_block=20, blocks=2)
    table = estimator_tables(triple.bases, orbit, mode)
    run = simulate_protocol(triple, orbit, cfg, mode)
    for design in copies:
        assert np.array_equal(design.states, orbit.states)
        assert estimator_tables(triple.bases, design, mode).tobytes() == table.tobytes()
        other = simulate_protocol(triple, design, cfg, mode)
        assert other.per_block_fidelities.tobytes() == run.per_block_fidelities.tobytes()
        assert other.per_state_fidelity.tobytes() == run.per_state_fidelity.tobytes()


def test_unknown_mode_raises_before_sampling(monkeypatch, symmetric_triple, design960):
    def no_draws(*args):
        raise AssertionError("counts drawn for an unknown mode")

    monkeypatch.setattr("mubest.simulate._multinomial_counts", no_draws)
    with pytest.raises(ValueError, match="unknown mode"):
        simulate_protocol(symmetric_triple, design960, SMALL, mode="nonsense")
    with pytest.raises(ValueError, match="unknown mode"):
        estimator_tables(symmetric_triple.bases, design960, mode="nonsense")


def test_to_dict_roundtrippable(small_report, tmp_path):
    import json

    save_report(small_report, tmp_path / "run.json")
    back = json.loads((tmp_path / "run.json").read_text())
    assert np.array_equal(back["counts"], small_report.counts)
    assert back["mean_fidelity"] == small_report.mean_fidelity
    assert len(back["per_block_fidelities"]) == SMALL.blocks


def test_scored_report_does_not_copy_counts(rng, symmetric_triple, design960):
    # the paper's table: K = 960 states, B = 10 blocks, M = 10^4
    cfg = SimConfig(seed=0)
    counts = rng.multinomial(cfg.m_block, np.full(64, 1 / 64), size=(960, cfg.blocks))
    f_table = rng.random((960, 64))
    measurements = symmetric_triple.bases
    tracemalloc.start()
    try:
        report = SimReport(cfg, symmetric_triple, design960, "ideal", measurements,
                           f_table, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < counts.nbytes / 4  # a float copy of the table is counts.nbytes
    # and the scores are those of the float table, bit for bit
    expected = np.einsum("kbo,ko->b", counts.astype(float), f_table) / (960 * cfg.m_block)
    assert np.array_equal(report.per_block_fidelities, expected)


def test_reprocess_two_copy(small_report, design960):
    rep2 = reprocess_two_copy(small_report, (0, 1))
    assert rep2.counts.shape == (design960.size, SMALL.blocks, 16)
    assert np.all(rep2.counts.sum(axis=2) == SMALL.m_block)
    n = design960.size * SMALL.m_block * SMALL.blocks
    assert abs(rep2.mean_fidelity - 7.0 / 15.0) <= 8 / math.sqrt(n)
    with pytest.raises(ValueError):
        reprocess_two_copy(small_report, (1, 0))
    with pytest.raises(ValueError):
        reprocess_two_copy(rep2, (0, 1))  # a two-copy run has no third count axis
    # a run scored without keeping its table has nothing to marginalize
    design = StateDesign(t=4, states=design960.states[:, :6])
    scored_only = simulate_protocol(small_report.triple, design, SMALL)
    assert scored_only.counts is None
    with pytest.raises(ValueError, match="kept no count table"):
        reprocess_two_copy(scored_only, (0, 1))


def test_reprocess_pairs_marginalize_consistently(small_report):
    # marginalized totals per state-block agree with the parent run
    for pair in [(0, 1), (0, 2), (1, 2)]:
        rep2 = reprocess_two_copy(small_report, pair)
        assert np.array_equal(
            rep2.counts.sum(axis=2), small_report.counts.sum(axis=2)
        )


def test_two_copy_health(small_report):
    # a two-copy report is judged against the two-copy exact F of its pair
    for pair in [(0, 1), (0, 2), (1, 2)]:
        health = run_health(reprocess_two_copy(small_report, pair))
        assert health["exact_fidelity"] == pytest.approx(7 / 15, abs=1e-12), pair
        assert abs(health["z"]) <= 5, pair


@pytest.fixture(scope="module")
def empirical_report(symmetric_triple):
    design = optimize_design(40, 4, 4, seed=1, max_iters=400)
    return simulate_protocol(symmetric_triple, design,
                             SimConfig(seed=1, m_block=2000, blocks=4), mode="empirical",
                             keep_counts=True)


def test_empirical_health_uses_run_mode(empirical_report, symmetric_triple):
    # the exact F of an empirical run is the empirical F of its own design
    health = run_health(empirical_report)
    expected = triple_fidelity(symmetric_triple, "empirical", empirical_report.design)
    assert health["exact_fidelity"] == pytest.approx(expected, abs=1e-12)
    assert abs(expected - F3_SYMMETRIC) > 1e-4  # so the ideal value would not pass
    assert abs(health["z"]) <= 5


def test_empirical_two_copy_uses_run_mode(empirical_report):
    rep2 = reprocess_two_copy(empirical_report, (0, 1))
    expected = estimation_fidelity(empirical_report.measurements[:2], "empirical",
                                   empirical_report.design)
    assert run_health(rep2)["exact_fidelity"] == pytest.approx(expected, abs=1e-12)


@pytest.fixture(scope="module")
def design40():
    # `design optimize --K 40 --seed 0 --iters 5`, the design CI scores: not a 4-design
    return optimize_design(40, 4, 4, seed=0, max_iters=5)


@pytest.mark.parametrize("mode", ["ideal", "empirical"])
def test_phase_scan_exact_is_the_limit_of_its_runs(design40, symmetric_triple, mode):
    # the exact cell scores the design the scan is given, in its mode: the bits of
    # `fidelities` of the row's bases, and its sampled run's exact F within 1e-12
    rows = equivalence_scan_phase([0.0, HALF], symmetric_triple, design40, SMALL, mode=mode)
    for phi, exact, sim, std in rows:
        triple = transform_triple(symmetric_triple, controlled_phase(phi))
        assert exact == fidelities([triple.bases], mode, design40)[0]
        health = run_health(simulate_protocol(triple, design40, SMALL, mode=mode))
        assert abs(health["exact_fidelity"] - exact) <= 1e-12
        assert abs(exact - F3_SYMMETRIC) > 1e-4  # so the orbit's value would not pass


@pytest.mark.parametrize("mode", ["ideal", "empirical"])
def test_random_scan_exact_scores_its_design(design40, symmetric_triple, mode):
    # deviations are taken from the base triple's F over the same design and mode,
    # and over a design that is not a 4-design F moves with the unitary
    exact_s, _ = equivalence_scan_random(4, symmetric_triple, design40, mode=mode,
                                         unitary_seed=2)
    rng = np.random.default_rng(2)
    triples = [transform_triple(symmetric_triple, haar_random_unitary(4, rng))
               for _ in range(4)]
    reference = fidelities([symmetric_triple.bases], mode, design40)[0]
    values = np.array(fidelities([t.bases for t in triples], mode, design40))
    assert exact_s == (values.max(), values.min(), values.mean(), values.std(ddof=1),
                       np.abs(values - reference).max())
    assert exact_s[3] > 1e-4


def test_equivalence_scan_phase_exact_invariance(symmetric_triple, design960):
    rows = equivalence_scan_phase(
        [0.0, HALF, math.pi], symmetric_triple, design960
    )
    for phi, exact, sim, std in rows:
        assert abs(exact - F3_SYMMETRIC) <= 1e-10
        assert sim is None and std is None


def test_equivalence_scan_simulated_invariance(symmetric_triple, haar_report, design960):
    # every transformed triple is scored with its own estimators: simulated F
    # stays within sampling error of the exact F of the untransformed triple
    rows = equivalence_scan_phase([0.0, HALF, math.pi], symmetric_triple, design960, SCAN)
    for phi, exact, sim, std in rows:
        triple = transform_triple(symmetric_triple, controlled_phase(phi))
        assert abs(exact - F3_SYMMETRIC) <= 1e-10
        assert abs(sim - exact) <= 5 * predicted_std_of_mean(triple, design960, SCAN), phi
    sigma = predicted_std_of_mean(haar_report.triple, design960, SCAN)
    assert abs(haar_report.mean_fidelity - F3_SYMMETRIC) <= 5 * sigma


def test_reprocess_two_copy_transformed(haar_report, design960):
    rep2 = reprocess_two_copy(haar_report, (0, 1))
    assert rep2.triple is haar_report.triple
    n = design960.size * SCAN.m_block * SCAN.blocks
    assert abs(rep2.mean_fidelity - 7.0 / 15.0) <= 8 / math.sqrt(n)


def test_equivalence_scan_random_exact_invariance(symmetric_triple, design960):
    exact_s, sim_s = equivalence_scan_random(
        5, symmetric_triple, design960, unitary_seed=4
    )
    _, _, _, std, max_deviation = exact_s
    assert max_deviation <= 1e-10
    assert std <= 1e-10
    assert sim_s is None
    with pytest.raises(ValueError):
        equivalence_scan_random(0, symmetric_triple, design960)


def test_equivalence_scan_random_memory_does_not_grow(symmetric_triple, design960):
    # the transformed triples are generated as the Q pass reads them, not stored
    def peak(n_unitaries):
        tracemalloc.start()
        try:
            equivalence_scan_random(n_unitaries, symmetric_triple, design960)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(9)  # warm-up: first-call allocations inside numpy
    assert peak(101) <= peak(9) + 16 * 1024


def test_equivalence_scan_random_needs_two_unitaries(symmetric_triple, design960):
    # one unitary gives no std: a zero would claim perfect precision
    for cfg in (None, SMALL):
        with pytest.raises(ValueError, match="n_unitaries must be >= 2 for a std"):
            equivalence_scan_random(1, symmetric_triple, design960, cfg)


def test_random_subset_analysis(small_report, design960):
    K = design960.size
    results = random_subset_analysis(
        small_report, [K // 4, K // 2, K], trials=40, seed=2
    )
    stds = [results[s][1] for s in sorted(results)]
    for size, (_, _, predicted) in results.items():
        assert predicted == predicted_subset_std(small_report.per_state_fidelity, size)
    assert results[K][1] == 0.0
    assert results[K][0] == pytest.approx(
        float(small_report.per_state_fidelity.mean())
    )
    assert stds[0] > stds[1] > stds[2]
    with pytest.raises(ValueError):
        random_subset_analysis(small_report, [0])
    with pytest.raises(ValueError, match="subset sizes repeat"):
        random_subset_analysis(small_report, [K // 4, K // 4])


# the count dtype's boundaries: uint8 holds M = 255, uint16 holds 256 and
# 65535, uint32 holds 65536
@pytest.mark.parametrize("m_block", [255, 256, 65535, 65536])
def test_count_dtype_boundaries(design960, symmetric_triple, m_block):
    design = StateDesign(t=4, states=design960.states[:, :6])
    cfg = SimConfig(seed=3, m_block=m_block, blocks=2)
    report = simulate_protocol(symmetric_triple, design, cfg, keep_counts=True)
    assert report.counts.dtype == np.min_scalar_type(m_block)
    assert np.all(report.counts.sum(axis=2, dtype=np.int64) == m_block)
    for pair in [(0, 1), (0, 2), (1, 2)]:
        counts2 = reprocess_two_copy(report, pair).counts
        assert counts2.dtype == report.counts.dtype, pair
        assert np.all(counts2.sum(axis=2, dtype=np.int64) == m_block), pair
    # the whole kept table, in its dtype, scores the bits of the sampler's chunks
    rebuilt = SimReport(cfg, report.triple, design, report.mode, report.measurements,
                        report.f_table, report.counts)
    for name in ("per_block_fidelities", "per_state_fidelity"):
        assert getattr(rebuilt, name).tobytes() == getattr(report, name).tobytes(), name
    assert (rebuilt.mean_fidelity, rebuilt.std) == (report.mean_fidelity, report.std)


def test_per_state_sum_does_not_wrap(symmetric_triple, design960):
    # every shot in one cell: a uint16 sum over two blocks of M = 65535 would wrap
    cfg = SimConfig(seed=0, m_block=65535, blocks=2)
    counts = np.zeros((design960.size, cfg.blocks, 64), dtype=np.uint16)
    counts[:, :, 5] = cfg.m_block
    f_table = estimator_tables(symmetric_triple.bases, design960)
    report = SimReport(cfg, symmetric_triple, design960, "ideal",
                       symmetric_triple.bases, f_table, counts)
    assert np.array_equal(report.per_state_fidelity, f_table[:, 5] * (2.0 * cfg.m_block)
                          / (cfg.m_block * cfg.blocks))


@pytest.fixture(scope="module")
def sweep_report(symmetric_triple, design960):
    # one point of the simulated z curve: K = 960, M = 100, B = 10
    return simulate_protocol(symmetric_triple, design960,
                             SimConfig(seed=0, m_block=100, blocks=10), keep_counts=True)


def traced_peak(fn):
    """tracemalloc's peak while fn runs, after one untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_health_memory_is_o_of_k(sweep_report):
    # the joint weights, or f times them, would be one (K, 64) float table
    assert traced_peak(lambda: run_health(sweep_report)) < 960 * 64 * 8


def test_per_state_fidelity_memory_is_one_chunk(sweep_report):
    # the report is built from its fields and read: scoring the whole table
    # holds O(K B) floats, where a float copy of the counts summed over blocks
    # would alone be one (K, 64) table
    fields = [getattr(sweep_report, name) for name in
              ("config", "triple", "design", "mode", "measurements", "f_table", "counts")]
    assert traced_peak(lambda: SimReport(*fields).per_state_fidelity) < 960 * 64 * 8


def test_per_state_fidelity_bits(sweep_report, small_report, symmetric_triple, design960):
    # scored a chunk of states at a time, with the bits of the whole-table
    # scores summed over blocks; 100 states end in a part chunk
    part = simulate_protocol(symmetric_triple, StateDesign(t=4, states=design960.states[:, :100]),
                             SMALL, keep_counts=True)
    for report in (sweep_report, small_report, reprocess_two_copy(small_report, (1, 2)), part):
        cfg = report.config
        expected = (np.einsum("kbo,ko->kb", report.counts, report.f_table).sum(axis=1)
                    / (cfg.m_block * cfg.blocks))
        assert np.array_equal(report.per_state_fidelity, expected)


def test_run_health_matches_reference(sweep_report, empirical_report):
    for report in (sweep_report, reprocess_two_copy(sweep_report, (0, 2)), empirical_report):
        health, expected = run_health(report), reference.run_health(report)
        assert health.keys() == expected.keys()
        for key in health:
            assert health[key] == pytest.approx(expected[key], rel=0, abs=1e-12), key


def test_paper_size_table_memory(symmetric_triple, design960):
    # K = 960, B = 10, M = 10^4: the table is uint16, and the run's traced
    # peak stays below what the int64 table alone used to take
    simulate_protocol(symmetric_triple, design960, SimConfig(seed=0, m_block=10, blocks=2))
    tracemalloc.start()
    try:
        report = simulate_protocol(symmetric_triple, design960, SimConfig(seed=0),
                                   keep_counts=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.counts.nbytes == 960 * 10 * 64 * 2
    assert peak < 960 * 10 * 64 * 8


# uint8 and uint16 counts, a 100-state design that ends in a part chunk, and
# empirical mode over it
@pytest.mark.parametrize("n_states, m_block, mode", [
    (960, 100, "ideal"), (100, 10_000, "ideal"), (100, 300, "empirical")])
def test_kept_table_does_not_change_the_run(tmp_path, symmetric_triple, design960, n_states,
                                            m_block, mode):
    design = StateDesign(t=4, states=design960.states[:, :n_states])
    cfg = SimConfig(seed=4, m_block=m_block, blocks=3)
    kept = simulate_protocol(symmetric_triple, design, cfg, mode, keep_counts=True)
    scored = simulate_protocol(symmetric_triple, design, cfg, mode)
    streamed = simulate_protocol(symmetric_triple, design, cfg, mode, counts_text=io.StringIO())
    assert kept.counts.dtype == np.min_scalar_type(m_block)
    assert scored.counts is None and streamed.counts is None
    # the sampler's chunk scores, and the scores of the whole kept table, bit for bit
    rebuilt = SimReport(cfg, kept.triple, design, mode, kept.measurements, kept.f_table,
                        kept.counts)
    for report in (scored, rebuilt, streamed):
        assert np.array_equal(report.per_block_fidelities, kept.per_block_fidelities)
        assert np.array_equal(report.per_state_fidelity, kept.per_state_fidelity)
        assert (report.mean_fidelity, report.std) == (kept.mean_fidelity, kept.std)
        assert run_health(report) == run_health(kept)
    # the counts written as they were drawn, and the kept table's, in one file's bytes
    save_report(kept, tmp_path / "kept.json")
    save_report(streamed, tmp_path / "streamed.json")
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "kept.json").read_bytes()


def test_counts_are_kept_one_way(symmetric_triple, design960):
    with pytest.raises(ValueError, match="pass one"):
        simulate_protocol(symmetric_triple, design960, SMALL, keep_counts=True,
                          counts_text=io.StringIO())


def test_run_without_table_holds_no_table(monkeypatch, symmetric_triple, design960):
    # one point of the simulated z curve: K = 960, M = 100, B = 10, whose uint8
    # table is 614,400 bytes.  The estimator table is built beforehand: its Q
    # pass has its own peak, which does not depend on the counts
    cfg = SimConfig(seed=0, m_block=100, blocks=10)
    f_table = estimator_tables(symmetric_triple.bases, design960)
    monkeypatch.setattr("mubest.simulate.estimator_tables", lambda *args: f_table)
    table_bytes = design960.size * cfg.blocks * 64
    peak = traced_peak(lambda: simulate_protocol(symmetric_triple, design960, cfg))
    assert peak < table_bytes


def test_predicted_subset_std_is_exact():
    # the finite-population correction gives the exact std of a subset mean:
    # check it against the mean over every subset of a small population
    values = np.array([0.1, 0.4, 0.35, 0.9, 0.2, 0.55, 0.7])
    for n in range(1, values.size + 1):
        means = [values[list(c)].mean() for c in itertools.combinations(range(values.size), n)]
        assert predicted_subset_std(values, n) == pytest.approx(np.std(means), abs=1e-15), n
    assert predicted_subset_std(values, values.size) == 0.0
