"""Tests of the benchmark itself: the oracle, and that every output check
rejects a corrupted output.

    python3 -m pytest bench/tests -q

The workloads' commands run for real (at small M for the sampling ones), the
checks must pass on the untouched outputs, and each corruption below must be
caught by the check named in its `match`.
"""

import json
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracle as orc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3
EXACT = workloads.exact(SEED, n_unitaries=10)
SAMPLE = workloads.sample(SEED, m_block=200, blocks=4)
SWEEP_POINT = workloads.sweep(SEED, m_block=50, blocks=4)[3]


# --------------------------------------------------------------------------
# oracle

def test_oracle_closed_forms():
    assert orc.self_test(orc.Oracle()) <= 1e-12


def test_oracle_published_table():
    o = orc.Oracle()
    for y, row in orc.PUBLISHED.items():
        for z, want in zip(orc.Z_GRID, row):
            assert abs(o.triple_fidelity(math.pi / 2, y, z) - want) <= orc.PUBLISHED_TOL


def test_rank1_q_matches_explicit_partial_trace():
    o = orc.Oracle()
    bases = orc.triple_bases(0.3, 1.1, 2.0)
    for n in (1, 2, 3):
        P = o.projector(n + 1)
        vecs = orc.product_vectors(bases[:n])
        fast = orc.q_rank1(vecs, P, n)
        slow = np.array([orc.q_operator(np.outer(v, v.conj()), P, n) for v in vecs[:8]])
        assert np.abs(fast[:8] - slow).max() <= 1e-12


def test_symmetric_projector():
    for t in (2, 3, 4):
        P = orc.symmetric_projector(t)
        assert np.abs(P @ P - P).max() <= 1e-12
        assert round(np.trace(P)) == orc.sym_dim(t)


def test_exact_design_moment_gives_ideal_fidelity(ctx):
    states = ctx.design960()
    want = ctx.oracle.triple_fidelity(0.3, 1.1, 2.0)
    assert abs(ctx.oracle.triple_fidelity(0.3, 1.1, 2.0, states) - want) <= 1e-10


# --------------------------------------------------------------------------
# real outputs, checked untouched and after corruption

@pytest.fixture(scope="module")
def ctx():
    return checks.Context(run.SRC)


def _produce(ops, outdir):
    child = run.Child(deadline=time.perf_counter() + 600)
    for op in ops:
        rec = child.run(["-m", "mubest.cli", *op.argv], outdir)
        assert rec["rc"] == 0, (outdir / "stderr.log").read_text()
    return outdir


@pytest.fixture(scope="module")
def exact_out(tmp_path_factory):
    return _produce(EXACT, tmp_path_factory.mktemp("exact"))


@pytest.fixture(scope="module")
def sample_out(tmp_path_factory):
    return _produce(SAMPLE, tmp_path_factory.mktemp("sample"))


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    return _produce([SWEEP_POINT], tmp_path_factory.mktemp("sweep"))


@pytest.fixture
def scratch(tmp_path):
    def copy(src):
        dst = tmp_path / "out"
        shutil.copytree(src, dst)
        return dst
    return copy


def _edit_json(path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def _edit_csv(path, row, col, value):
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[body[row]].split(",")
    cells[col] = value
    lines[body[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _csv_value(path, row, col):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return float(lines[1 + row].split(",")[col])


def test_untouched_outputs_pass(ctx, exact_out, sample_out, sweep_out):
    for op in EXACT:
        op.run_check(ctx, exact_out)
    for op in SAMPLE:
        op.run_check(ctx, sample_out)
    SWEEP_POINT.run_check(ctx, sweep_out)


def _coset(data):
    # right-multiply every element by a non-Clifford unitary: order, unitarity
    # and distinctness survive, closure does not
    t = np.diag([1, 1, 1, np.exp(1j * math.pi / 4)])
    mats = np.array(data["elements"])
    mats = (mats[..., 0] + 1j * mats[..., 1]) @ t
    data["elements"] = np.stack([mats.real, mats.imag], axis=-1).tolist()


def _drop_element(data):
    data["elements"].pop()


def _duplicate_element(data):
    data["elements"][5] = data["elements"][6]


def _non_unitary(data):
    data["elements"][7] = (np.array(data["elements"][7]) * 1.01).tolist()


@pytest.mark.parametrize("corrupt, match", [
    (_drop_element, "order"),
    (_duplicate_element, "duplicate"),
    (_non_unitary, "unitarity"),
    (_coset, "sampled products"),
])
def test_group_check_rejects(ctx, exact_out, scratch, corrupt, match):
    out = scratch(exact_out)
    _edit_json(out / "clifford_group.json", corrupt)
    with pytest.raises(checks.CheckFailed, match=match):
        EXACT[0].run_check(ctx, out)


def test_restricted_group_must_sit_in_clifford(ctx, exact_out, scratch):
    out = scratch(exact_out)
    # a valid group of order 960 that is not inside the Clifford group:
    # conjugate the restricted group by a non-Clifford unitary
    u = np.diag([1, 1, 1, np.exp(0.3j)])

    def conjugate(data):
        mats = np.array(data["elements"])
        mats = u @ (mats[..., 0] + 1j * mats[..., 1]) @ u.conj().T
        data["elements"] = np.stack([mats.real, mats.imag], axis=-1).tolist()

    _edit_json(out / "restricted_group.json", conjugate)
    with pytest.raises(checks.CheckFailed, match="subgroup"):
        EXACT[1].run_check(ctx, out)


def _perturb_state(data):
    vals = [float(v) for v in data["states"][0]]
    vals[0] = vals[0] * math.cos(0.05)
    vals[2] = math.sin(0.05) + vals[2]
    norm = math.sqrt(sum(v * v for v in vals))
    data["states"][0] = [repr(v / norm) for v in vals]


def test_design_check_rejects_non_design(ctx, exact_out, scratch):
    out = scratch(exact_out)
    _edit_json(out / "clifford.json", _perturb_state)
    with pytest.raises(checks.CheckFailed, match="frame potential"):
        EXACT[2].run_check(ctx, out)


def test_design_check_rejects_wrong_recorded_phi(ctx, exact_out, scratch):
    out = scratch(exact_out)
    _edit_json(out / "clifford.json", lambda d: d.update(phi_t=d["phi_t"] * (1 + 1e-9)))
    with pytest.raises(checks.CheckFailed, match="recorded phi_t"):
        EXACT[2].run_check(ctx, out)


def test_numerical_design_check_rejects_random_states(ctx, exact_out, scratch):
    out = scratch(exact_out)
    rng = np.random.default_rng(0)

    def randomize(data):
        v = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        data["states"] = [[repr(float(x)) for z in row for x in (z.real, z.imag)] for row in v]
        data["phi_t"] = orc.frame_potential(v.T, 4)

    _edit_json(out / "num200.json", randomize)
    with pytest.raises(checks.CheckFailed, match="phi_4"):
        EXACT[3].run_check(ctx, out)


@pytest.mark.parametrize("index, name, shift, match", [
    (4, "curves.csv", 1e-4, "F at y"),
    (5, "curves_emp.csv", 1e-6, "empirical F"),
    (6, "pair.csv", 1e-6, "F at y"),
])
def test_curve_checks_reject_shifted_value(ctx, exact_out, scratch, index, name, shift,
                                           match):
    out = scratch(exact_out)
    value = _csv_value(out / name, 4, 3)
    _edit_csv(out / name, 4, 3, f"{value + shift:.12g}")
    with pytest.raises(checks.CheckFailed, match=match):
        EXACT[index].run_check(ctx, out)


def test_phase_check_rejects_faulty_simulated_value(ctx, exact_out, scratch):
    out = scratch(exact_out)
    _edit_csv(out / "phase.csv", 4, 1, "0.425710")
    with pytest.raises(checks.CheckFailed, match="exact F at phi"):
        EXACT[7].run_check(ctx, out)


@pytest.mark.parametrize("col, value, match", [
    (2, "0.229", "minimal"),
    (5, "0.001", "max deviation"),
])
def test_haar_check_rejects(ctx, exact_out, scratch, col, value, match):
    out = scratch(exact_out)
    _edit_csv(out / "haar.csv", 0, col, value)
    with pytest.raises(checks.CheckFailed, match=match):
        EXACT[8].run_check(ctx, out)


def test_missing_manifest_is_rejected(ctx, exact_out, scratch):
    out = scratch(exact_out)
    (out / "haar.csv.manifest.json").unlink()
    with pytest.raises(checks.CheckFailed, match="missing output"):
        EXACT[8].run_check(ctx, out)


def test_counts_row_must_sum_to_m(ctx, sample_out, scratch):
    out = scratch(sample_out)

    def add_one(data):
        data["counts"][17][2][5] += 1

    _edit_json(out / "run.json", add_one)
    with pytest.raises(checks.CheckFailed, match="sum to"):
        SAMPLE[0].run_check(ctx, out)


def test_counts_must_reproduce_reported_f(ctx, sample_out, scratch):
    out = scratch(sample_out)

    def move_one(data):
        row = data["counts"][17][2]
        src = next(i for i, c in enumerate(row) if c > 0)
        row[src] -= 1
        row[(src + 1) % 64] += 1

    _edit_json(out / "run.json", move_one)
    with pytest.raises(checks.CheckFailed, match="recomputed from counts"):
        SAMPLE[0].run_check(ctx, out)


def _rewrite_blocks(out, name, per_block):
    def edit(data):
        data["per_block_fidelities"] = list(per_block)
        data["mean_fidelity"] = float(np.mean(per_block))
        data["std"] = float(np.std(per_block, ddof=1))
    _edit_json(out / name, edit)
    for b, f in enumerate(per_block):
        _edit_csv(out / (name + ".blocks.csv"), b, 1, f"{f:.12g}")


def test_simulated_f_must_match_oracle(ctx, sweep_out, scratch):
    out = scratch(sweep_out)
    name = "sweep_z3.json"
    per_block = np.array(json.loads((out / name).read_text())["per_block_fidelities"])
    _rewrite_blocks(out, name, per_block + 0.01)
    with pytest.raises(checks.CheckFailed, match="simulated F"):
        SWEEP_POINT.run_check(ctx, out)


def test_block_std_must_match_prediction(ctx, sweep_out, scratch):
    out = scratch(sweep_out)
    name = "sweep_z3.json"
    per_block = np.array(json.loads((out / name).read_text())["per_block_fidelities"])
    _rewrite_blocks(out, name, per_block.mean() + 10 * (per_block - per_block.mean()))
    with pytest.raises(checks.CheckFailed, match="predicted"):
        SWEEP_POINT.run_check(ctx, out)


def test_blocks_csv_must_match_report(ctx, sweep_out, scratch):
    out = scratch(sweep_out)
    value = _csv_value(out / "sweep_z3.json.blocks.csv", 1, 1)
    _edit_csv(out / "sweep_z3.json.blocks.csv", 1, 1, f"{value + 1e-8:.12g}")
    with pytest.raises(checks.CheckFailed, match="blocks.csv: block 1"):
        SWEEP_POINT.run_check(ctx, out)


def test_subset_std_must_fall_with_size(ctx, sample_out, scratch):
    out = scratch(sample_out)
    _edit_csv(out / "subsets.csv", 2, 2, f"{2 * _csv_value(out / 'subsets.csv', 1, 2):.12g}")
    with pytest.raises(checks.CheckFailed, match="does not fall"):
        SAMPLE[1].run_check(ctx, out)


def test_subset_mean_must_match_full_run(ctx, sample_out, scratch):
    out = scratch(sample_out)
    _edit_csv(out / "subsets.csv", 1, 1, f"{_csv_value(out / 'subsets.csv', 1, 1) + 0.01:.12g}")
    with pytest.raises(checks.CheckFailed, match="subset mean"):
        SAMPLE[1].run_check(ctx, out)


def test_verify_reports_every_op_of_an_empty_round(tmp_path, capsys):
    import verify

    assert verify.main(["sweep", str(SEED), str(tmp_path)]) == 0
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert [i for i, _, _ in failures] == list(range(9))
    assert all("missing output" in msg for _, _, msg in failures)


def test_failed_command_makes_run_incorrect(tmp_path):
    ops = workloads.sweep(SEED)
    records = [{"plain": {"rc": 3 if i == 0 else 0}} for i in range(len(ops))]
    attempted, failed, bad_checks, _ = run.check_round(
        "sweep", SEED, ops, tmp_path, records, False, time.perf_counter() + 120)
    assert (attempted, failed) == (9, 9)
    assert len(bad_checks) == 9
    assert "missing output sweep_z0.json" in bad_checks[0]


def test_seconds_beyond_time_limit_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "exact", "--seed", "0", "--seconds", "100"])
    assert exc.value.code == 2
    assert "--seconds must be" in capsys.readouterr().err
