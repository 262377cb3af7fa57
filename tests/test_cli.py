import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubest
from mubest import groups
from mubest.cli import (
    DEFAULT_Z_GRID,
    EXIT_IO,
    EXIT_OK,
    EXIT_TARGET,
    EXIT_VALIDATION,
    build_parser,
    main,
    manifest_digest,
    parse_angle,
    parse_angle_list,
    run_parameters,
)
from mubest.designs import (
    StateDesign,
    default_design,
    frame_potential,
    load_design,
    optimize_design,
    save_design,
)
from mubest.errors import DesignFormatError
from mubest.estimation import fidelity_scan
from mubest.mub import mub_triple
from mubest.simulate import (
    SimConfig,
    SimReport,
    check_subset_request,
    equivalence_scan_phase,
    run_health,
    save_report,
    simulate_protocol,
)


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("MUBEST_OUTDIR", str(tmp_path))
    return tmp_path


@pytest.fixture(scope="module")
def small_design_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("designs") / "small.json"
    save_design(optimize_design(40, 4, 4, seed=1, max_iters=400), path)
    return str(path)


def test_parse_angle_tokens():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("3pi/8") == pytest.approx(3 * math.pi / 8)
    assert parse_angle("-pi") == pytest.approx(-math.pi)
    assert parse_angle("0.5") == 0.5
    assert parse_angle("π/4") == pytest.approx(math.pi / 4)
    assert parse_angle(" 2pi ") == pytest.approx(2 * math.pi)


def test_parse_angle_list_forms():
    grid = parse_angle_list("0:pi:5")
    assert len(grid) == 5
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(math.pi)
    pair = parse_angle_list("pi/2,0")
    assert pair == pytest.approx([math.pi / 2, 0.0])
    default = parse_angle_list(DEFAULT_Z_GRID)
    assert len(default) == 9
    assert default[1] == pytest.approx(math.pi / 8)


@pytest.mark.parametrize("token, message", [
    ("1pi/0", "zero denominator"),
    ("nan", "not finite"),
    ("-inf", "not finite"),
    ("1e400", "not finite"),
])
def test_parse_angle_rejects(token, message):
    with pytest.raises(ValueError, match=message):
        parse_angle(token)


@pytest.mark.parametrize("text, message", [
    ("0:pi:0", "count 0 < 1"),
    ("0:pi:-3", "count -3 < 1"),
    ("0:pi", "not start:stop:count"),
    ("0:pi:3:4", "not start:stop:count"),
    ("0:nan:3", "not finite"),
])
def test_parse_angle_list_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_angle_list(text)


_MAX = sys.float_info.max


@pytest.mark.parametrize("text, expected", [
    # finite endpoints whose span overflows a float
    ("-1e308:1e308:1", [-1e308]),
    ("-1e308:1e308:2", [-1e308, 1e308]),
    ("-1e308:1e308:3", [-1e308, 0.0, 1e308]),
])
def test_grids_spanning_more_than_a_float(text, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_angle_list(text) == expected


def test_overflowing_grid_scores(outdir, capsys):
    # the grid's points are finite, so the curve is scored with no numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["fidelity", "--y-list", "pi/2", "--z-list=-1e308:1e308:3",
                     "--out", "out.csv"])
    assert code == EXIT_OK
    # stdout prints the angles as the CSV does: short lines that name the same points
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(len(line) < 80 for line in lines)
    assert "z=-1e+308 " in lines[0] and "z=1e+308 " in lines[2]
    rows = [line for line in (outdir / "out.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "x,y,z,F" and [row.split(",")[2] for row in rows[1:]] == [
        "-1e+308", "0", "1e+308"]


# tokens near the parser's grammar: pi fractions, float literals, and strings of
# the characters either is made of
_ANGLE_TOKENS = (
    st.builds(lambda num, den: f"{num}pi" + (f"/{den}" if den else ""),
              st.sampled_from(["", "+", "-", "."]) | st.floats().map(repr)
              | st.integers(-10**400, 10**400).map(str),
              st.sampled_from(["", "0", "0.0", "."]) | st.integers(0, 10**400).map(str)
              | st.floats(0, allow_infinity=False).map(repr))
    | st.floats().map(repr)
    | st.text("0123456789.+-einfapπ/ ", max_size=12)
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_GRIDS = st.builds(lambda start, stop, count: f"{start!r}:{stop!r}:{count}",
                   _FINITE, _FINITE, st.integers(-2, 40))


def _parsed(parse, text):
    """parse(text) under RuntimeWarnings made errors, or None if it raised ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return parse(text)
        except ValueError:
            return None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(token=_ANGLE_TOKENS)
def test_parse_angle_is_finite_or_rejects(token):
    value = _parsed(parse_angle, token)
    assert value is None or (type(value) is float and math.isfinite(value))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=_GRIDS | st.lists(_ANGLE_TOKENS, min_size=1, max_size=4).map(",".join))
def test_parse_angle_list_is_finite_or_rejects(text):
    values = _parsed(parse_angle_list, text)
    assert values is None or all(math.isfinite(v) for v in values)
    if values is not None and ":" in text:
        assert len(values) == int(text.rsplit(":", 1)[1])


# endpoints near the float range's edges, where np.linspace's span or its
# partial sums overflow, and subnormal ones, which scaling by 4 does not keep
_ENDPOINTS = _FINITE | st.sampled_from([_MAX, -_MAX, _MAX / 2, -_MAX / 2, 1e308, -1e308,
                                        5e-324, -5e-324, 0.0, -0.0])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(start=_ENDPOINTS, stop=_ENDPOINTS, count=st.integers(1, 50))
def test_grids_are_finite_and_keep_linspace_bits(start, stop, count):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = parse_angle_list(f"{start!r}:{stop!r}:{count}")
    assert len(grid) == count and all(math.isfinite(v) for v in grid)
    assert grid[0] == start and (count == 1 or grid[-1] == stop)
    try:
        with np.errstate(all="raise"):
            expected = np.linspace(start, stop, count)
    except FloatingPointError:
        return
    assert np.array(grid).tobytes() == expected.tobytes()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
def test_pi_fractions_round_trip(num, den):
    assert parse_angle(f"{num}pi/{den}") == num * math.pi / den
    assert parse_angle(f"{num}π/{den}") == num * math.pi / den


@pytest.fixture(scope="module")
def rejected_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("rejected")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(token=_ANGLE_TOKENS, grid=_GRIDS)
def test_main_exits_validation_on_rejected_angles(rejected_dir, token, grid):
    # every token the parsers reject is an exit 4, before anything is written
    out = str(rejected_dir / "out.csv")
    if _parsed(parse_angle, token) is None:
        assert main(["fidelity", f"--x={token}", "--out", out]) == EXIT_VALIDATION
    if _parsed(parse_angle_list, grid) is None:
        assert main(["fidelity", f"--z-list={grid}", "--out", out]) == EXIT_VALIDATION
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["fidelity", "--x", "1pi/0"],
    ["fidelity", "--x", "nan"],
    ["fidelity", "--z-list", "0:pi:0"],
    ["fidelity", "--z-list", "0:pi"],
    ["equivalence", "--exact", "--phi-grid", "0:pi:0"],
    # an empty grid is a bad grid, not a request for the Haar scan
    ["equivalence", "--exact", "--phi-grid", "", "--n-unitaries", "3"],
])
def test_bad_angles_exit_validation(outdir, capsys, argv):
    assert main(argv + ["--out", "out.csv"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not (outdir / "out.csv").exists()


def test_groups_command(outdir, capsys):
    code = main(["groups", "--which", "pauli", "--out", "pauli.json"])
    assert code == EXIT_OK
    assert "order=16" in capsys.readouterr().out
    assert (outdir / "pauli.json").exists()
    assert (outdir / "pauli.json.manifest.json").exists()


def test_groups_command_short_closure_exits_validation(outdir, capsys, monkeypatch):
    # without the two CNOTs the Clifford generators close on the 576 local Cliffords
    gates = groups.standard_gates()
    monkeypatch.setattr(groups, "standard_gates",
                        lambda: dict(gates, CNOT12=np.eye(4), CNOT21=np.eye(4)))
    assert main(["groups", "--which", "clifford", "--out", "clifford.json"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.endswith("order 576, not 11520\n")
    assert not (outdir / "clifford.json").exists()


def test_groups_command_long_closure_exits_validation(outdir, capsys, monkeypatch):
    # a T gate in place of the phase gate generates no finite group
    gates = groups.standard_gates()
    t_gate = np.kron(np.diag([1, np.exp(1j * math.pi / 4)]), np.eye(2))
    monkeypatch.setattr(groups, "standard_gates", lambda: dict(gates, P1=t_gate))
    assert main(["groups", "--which", "restricted", "--out", "g.json"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: group closure exceeded max_size=960\n"
    assert not (outdir / "g.json").exists()


def test_design_optimize_command(outdir, capsys):
    code = main(
        ["design", "optimize", "--K", "40", "--seed", "1", "--iters", "300",
         "--out", "d.json"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "K=40" in out and "phi4=" in out
    assert (outdir / "d.json").exists()
    manifest = json.loads((outdir / "d.json.manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["manifest_hash"]
    design = load_design(outdir / "d.json")
    phi4 = frame_potential(design, 4)
    assert manifest["health"]["phi4"] == pytest.approx(phi4, rel=1e-12)
    assert f"phi4={manifest['health']['phi4']:.10f}" in out
    assert f"symmetric_ratio={manifest['health']['symmetric_ratio']:.6f}" in out
    # no --target: the optimizer ran all 300 iterations or stalled before
    assert 1 <= manifest["health"]["iterations"] <= 300
    assert manifest["health"]["reached_target"] is False


def test_design_optimize_target_miss(outdir, capsys):
    code = main(
        ["design", "optimize", "--K", "40", "--seed", "1", "--iters", "3",
         "--target", "1e-9"]
    )
    assert code == EXIT_TARGET
    assert "target" in capsys.readouterr().err


def test_design_optimize_exit_is_the_optimizers_verdict(outdir, capsys):
    # a target equal to the Phi that 5 iterations reach is reached; the next float
    # below it is not, and the design is written all the same
    argv = ["design", "optimize", "--K", "40", "--iters", "5", "--out", "d.json"]
    assert main(argv) == EXIT_OK
    phi4 = json.loads((outdir / "d.json.manifest.json").read_text())["health"]["phi4"]
    for target, code, reached in ((phi4, EXIT_OK, True),
                                  (float(np.nextafter(phi4, 0)), EXIT_TARGET, False)):
        (outdir / "d.json").unlink()
        capsys.readouterr()
        assert main(argv + ["--target", repr(target)]) == code
        health = json.loads((outdir / "d.json.manifest.json").read_text())["health"]
        assert health["phi4"] == phi4 and health["reached_target"] is reached
        assert ("did not reach target" in capsys.readouterr().err) is not reached
        assert (outdir / "d.json").exists()


@pytest.mark.parametrize("option, value", [("--target", "nan"), ("--target", "inf")])
def test_design_optimize_bad_step_or_target(tmp_path, option, value):
    # a separate process with a timeout, should a bad value loop forever
    env = dict(os.environ, MUBEST_OUTDIR=str(tmp_path),
               PYTHONPATH=str(Path(mubest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mubest.cli", "design", "optimize", "--K", "40",
         "--iters", "20", option, value, "--out", "d.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert f"{option[2:]} must be finite" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_design_infeasible(outdir, capsys):
    code = main(["design", "optimize", "--K", "10"])
    assert code == EXIT_TARGET
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--K", "0"], "K must be >= 1, got 0"),
    (["--K", "-5"], "K must be >= 1, got -5"),
    # a bad argument is a validation error even where K misses the bound too
    (["--K", "10", "--iters", "0"], "max_iters must be >= 1"),
])
def test_design_optimize_bad_K(outdir, capsys, argv, message):
    # no state count below 1 is a design at all: a validation error, not a missed bound
    assert main(["design", "optimize", *argv, "--out", "d.json"]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


# sha256 of the design files, recorded when phi_t became the squared norm of
# the D_t x D_t frame operator
DESIGN_FILE_SHA256 = {
    "clifford": "3a468e5515a0839b066e1db3c73e5c1fb7ceb78f32cb62e3bd1504be4ef074d9",
    "optimize": "6f577f26635d6dd2b1411ace066db985dc542790f914a3fbaf3cb163c0781f3d",
}

# sha256 of the complex128 bytes of the states load_design reads from the
# design files, and their phi_t headers, both recorded when the frame
# potential summed the whole K x K table
DESIGN_STATES_SHA256 = {
    "clifford": "3b34f14e083084bcb7dd870c6acb247c418b23cdd61442476d5fb3991a2d0397",
    "optimize": "f4194d6366c09913ab82f1994050592e2828cdff0d5b0c6a7238f02f82b894f1",
}
DESIGN_PHI_T = {"clifford": 0.02857142857142768, "optimize": 0.02869643018854319}

DESIGN_COMMANDS = [
    (["design", "clifford"], "K=960 phi4=0.0285714286 symmetric_ratio=1.000000\n"),
    (["design", "optimize", "--K", "200", "--seed", "0", "--target", "0.0287"],
     "K=200 phi4=0.0286964302 symmetric_ratio=0.782122\n"),
]


def states_sha256(design):
    return hashlib.sha256(np.ascontiguousarray(design.states).tobytes()).hexdigest()


@pytest.mark.parametrize("argv, stdout", DESIGN_COMMANDS)
def test_design_file_golden(outdir, capsys, argv, stdout):
    assert main(argv + ["--out", "d.json"]) == EXIT_OK
    assert capsys.readouterr().out == stdout
    digest = hashlib.sha256((outdir / "d.json").read_bytes()).hexdigest()
    assert digest == DESIGN_FILE_SHA256[argv[1]]


@pytest.mark.parametrize("argv", [argv for argv, _ in DESIGN_COMMANDS])
def test_design_file_states_golden(outdir, argv):
    assert main(argv + ["--out", "d.json"]) == EXIT_OK
    design = load_design(outdir / "d.json")
    assert states_sha256(design) == DESIGN_STATES_SHA256[argv[1]]
    phi_t = DESIGN_PHI_T[argv[1]]
    assert abs(design.metadata["phi_t"] - phi_t) <= 1e-15 * phi_t


def test_design_evaluates_frame_potential_once(outdir, monkeypatch):
    calls = []

    def counted(design, t):
        calls.append(t)
        return frame_potential(design, t)

    monkeypatch.setattr("mubest.cli.frame_potential", counted)
    monkeypatch.setattr("mubest.designs.frame_potential", counted)
    assert main(["design", "clifford", "--out", "d.json"]) == EXIT_OK
    assert calls == [4]
    assert load_design(outdir / "d.json").metadata["phi_t"] == frame_potential(
        default_design(), 4)


def test_fidelity_command_csv(outdir, capsys):
    code = main(
        ["fidelity", "--x", "pi/2", "--y-list", "pi/2", "--z-list", "pi/2",
         "--out", "scan.csv"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "F=0.520573" in out
    lines = (outdir / "scan.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest=")
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "x,y,z,F"
    row = lines[-1].split(",")
    assert float(row[3]) == pytest.approx((46 + 5 * math.sqrt(3)) / 105, abs=1e-9)


def test_fidelity_two_copy(outdir, capsys):
    code = main(
        ["fidelity", "--copies", "2", "--pair", "BC", "--y-list", "pi/2",
         "--z-list", "pi/2"]
    )
    assert code == EXIT_OK
    assert "F=0.46666" in capsys.readouterr().out


def test_fidelity_threads_rejected(outdir, capsys):
    # --threads was accepted and ignored; it is no longer an option
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--y-list", "pi/2", "--z-list", "0", "--threads", "4"])
    assert exc.value.code == EXIT_IO
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


def test_fidelity_missing_design_file(outdir, capsys):
    # both modes read --design: it names the states scored
    for mode in ("empirical", "ideal"):
        code = main(
            ["fidelity", "--mode", mode, "--design", "no_such_file.json",
             "--y-list", "pi/2", "--z-list", "pi/2", "--out", "out.csv"]
        )
        assert code == EXIT_IO
        assert "No such file or directory" in capsys.readouterr().err
        assert not (outdir / "out.csv").exists()


def test_fidelity_estimator_source_is_gone(outdir, capsys):
    # the standard estimators are --mode ideal with a --design, so the option
    # that asked for them is rejected, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--estimator-source", "ideal"])
    assert exc.value.code == EXIT_IO
    assert "unrecognized arguments: --estimator-source ideal" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--K", "--seed", "--iters", "--step", "--target"])
def test_design_clifford_takes_only_out(outdir, capsys, option):
    # the optimizer's options belong to `design optimize`: `design clifford` rejects them
    with pytest.raises(SystemExit) as exc:
        main(["design", "clifford", option, "1", "--out", "d.json"])
    assert exc.value.code == EXIT_IO
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
    assert not (outdir / "d.json").exists()


def _spy(monkeypatch, name, function):
    """Replace the CLI's `name` by `function`, recording each value it returns."""
    returned = []

    def spy(*args, **kwargs):
        returned.append(function(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(f"mubest.cli.{name}", spy)
    return returned


@pytest.mark.parametrize("mode", [["--mode", "ideal"], []])
def test_fidelity_standard_estimators_are_the_library_scan(outdir, monkeypatch,
                                                           small_design_file, mode):
    # --design D with --mode ideal, the default, scores the Clifford Q's
    # estimators over D's states: the rows fidelity_scan(..., mode="ideal", design=D)
    returned = _spy(monkeypatch, "fidelity_scan", fidelity_scan)
    assert main(["fidelity", *mode, "--design", small_design_file, "--y-list", "pi/2,0",
                 "--z-list", "0,pi/4", "--out", "standard.csv"]) == EXIT_OK
    expected = fidelity_scan(math.pi / 2, [math.pi / 2, 0.0], [0.0, math.pi / 4],
                             mode="ideal", design=load_design(small_design_file))
    assert np.array(returned[0]).tobytes() == np.array(expected).tobytes()
    rows = [ln for ln in (outdir / "standard.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert rows == [",".join(f"{v:.12g}" for v in row) for row in expected]


def test_relative_design_follows_outdir(tmp_path, monkeypatch, capsys):
    # --design resolves like --out: a bare name in MUBEST_OUTDIR, a path with
    # a directory part as given, here from the working directory
    out, cwd = tmp_path / "out", tmp_path / "cwd"
    out.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("MUBEST_OUTDIR", str(out))
    assert main(["design", "optimize", "--K", "40", "--iters", "5",
                 "--out", "d40.json"]) == EXIT_OK
    assert (out / "d40.json").exists() and not (cwd / "d40.json").exists()
    fidelity = ["fidelity", "--mode", "empirical", "--y-list", "pi/2", "--z-list", "pi/2"]
    capsys.readouterr()
    assert main(fidelity + ["--design", "d40.json"]) == EXIT_OK
    from_outdir = capsys.readouterr().out
    assert main(fidelity + ["--design", "./d40.json"]) == EXIT_IO
    assert "No such file or directory" in capsys.readouterr().err
    (cwd / "d40.json").write_bytes((out / "d40.json").read_bytes())
    assert main(fidelity + ["--design", "./d40.json"]) == EXIT_OK
    assert capsys.readouterr().out == from_outdir


def test_simulate_command(outdir, capsys, small_design_file):
    code = main(
        ["simulate", "--design", small_design_file, "--seed", "3", "--M", "200",
         "--blocks", "2", "--out", "run.json"]
    )
    assert code == EXIT_OK
    assert "F = " in capsys.readouterr().out
    report = json.loads((outdir / "run.json").read_text())
    assert report["seed"] == 3
    assert len(report["per_block_fidelities"]) == 2
    assert (outdir / "run.json.blocks.csv").exists()
    assert (outdir / "run.json.manifest.json").exists()


@pytest.fixture(scope="module")
def design100_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("designs") / "k100.json"
    save_design(optimize_design(100, 4, 4, seed=1, max_iters=400), path)
    return str(path)


@pytest.mark.parametrize("design, M, blocks, counts", [
    pytest.param("small_design_file", 30, 3, True, id="True"),
    pytest.param("small_design_file", 30, 3, False, id="False"),
    # counts in the millions: far above any table sized for small counts
    pytest.param("small_design_file", 5_000_000, 2, True, id="large-M"),
    # the edges of the count table's uint8, uint16 and uint32 dtypes
    *(pytest.param("small_design_file", M, 2, True, id=f"counts-M{M}")
      for M in (255, 256, 65535, 65536)),
    # K = 100 states end the writer's runs of states with a partial one
    pytest.param("design100_file", 30, 2, True, id="K-not-multiple-of-64"),
    # at B = 3 the writer's runs are 10 states, so the kept table's runs
    # straddle the sampler's 32-state chunks, from which --counts writes its runs
    pytest.param("design100_file", 30, 3, True, id="runs-straddle-chunks"),
])
def test_simulate_report_bytes(outdir, request, design, M, blocks, counts):
    path = request.getfixturevalue(design)
    argv = ["simulate", "--design", path, "--seed", "5", "--M", str(M),
            "--blocks", str(blocks), "--out", "run.json"]
    assert main(argv + (["--counts"] if counts else [])) == EXIT_OK
    half = math.pi / 2
    report = simulate_protocol(mub_triple(half, half, half), load_design(path),
                               SimConfig(seed=5, m_block=M, blocks=blocks), keep_counts=True)
    assert report.counts.dtype == np.min_scalar_type(M)
    # the report's layout, spelled out here rather than taken from src/
    expected = {
        "seed": 5, "m_block": M, "blocks": blocks, "share_ab_outcomes": True,
        "sampler": "counts", "triple_params": [half, half, half],
        "mean_fidelity": report.mean_fidelity,
        "per_block_fidelities": report.per_block_fidelities.tolist(), "std": report.std,
    }
    if counts:
        expected["counts"] = report.counts.tolist()
    expected = json.dumps(expected, indent=1)
    assert (outdir / "run.json").read_text() == expected


def test_save_report_memory_is_bounded(tmp_path, rng):
    # a quarter of the paper's table (K = 960, B = 10, M = 10^4): under
    # tracemalloc every formatted count is a traced allocation
    counts = rng.multinomial(10_000, np.full(64, 1 / 64), size=(240, 10))
    half = math.pi / 2
    triple = mub_triple(half, half, half)
    report = SimReport(SimConfig(seed=0), triple, None, "ideal", triple.bases,
                       rng.random((240, 64)), counts)
    tracemalloc.start()
    try:
        save_report(report, tmp_path / "run.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < counts.nbytes / 2
    assert np.array_equal(json.loads((tmp_path / "run.json").read_text())["counts"], counts)


def test_streamed_counts_memory_is_bounded(outdir):
    # the paper's run (K = 960, M = 10^4, B = 10): --counts --out writes the
    # counts as they are drawn, so it peaks where the same run without --counts
    # does, not 1.23 MB higher with a (K, B, 64) uint16 table
    argv = ["simulate", "--M", "10000", "--blocks", "10", "--out", "run.json"]
    assert main(argv) == EXIT_OK  # builds the cached default design outside the trace
    peaks = []
    for extra in ([], ["--counts"]):
        tracemalloc.start()
        try:
            assert main(argv + extra) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 100_000
    assert len(json.loads((outdir / "run.json").read_text())["counts"]) == 960


def test_counts_without_out_keep_nothing(outdir, monkeypatch, small_design_file):
    # nothing reads the counts of a report that is not written: no table, no spill
    def refuse(*args, **kwargs):
        raise AssertionError("a spill file was opened")

    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    returned = _spy(monkeypatch, "simulate_protocol", simulate_protocol)
    assert main(["simulate", "--design", small_design_file, "--M", "10", "--blocks", "2",
                 "--counts"]) == EXIT_OK
    (report,) = returned
    assert report.counts is None and report.counts_text is None
    assert list(outdir.iterdir()) == []


def test_counts_into_missing_directory_fail_before_drawing(outdir, monkeypatch, capsys,
                                                           small_design_file):
    # the spill opens in --out's directory before the draws, so a missing one
    # exits 2 having sampled nothing and written nothing
    returned = _spy(monkeypatch, "simulate_protocol", simulate_protocol)
    out = outdir / "no_such_dir" / "run.json"
    assert main(["simulate", "--design", small_design_file, "--M", "10", "--blocks", "2",
                 "--counts", "--out", str(out)]) == EXIT_IO
    assert "No such file or directory" in capsys.readouterr().err
    assert returned == []
    assert list(outdir.iterdir()) == []


def test_simulate_manifest_describes_run(outdir, small_design_file):
    argv = ["simulate", "--design", small_design_file, "--seed", "4", "--M", "50",
            "--blocks", "3", "--out", "run.json"]
    assert main(argv) == EXIT_OK
    manifest = json.loads((outdir / "run.json.manifest.json").read_text())
    assert "sampler" not in manifest["parameters"]
    assert manifest["numpy_version"] == np.__version__
    half = math.pi / 2
    design = load_design(small_design_file)
    report = simulate_protocol(mub_triple(half, half, half), design,
                               SimConfig(seed=4, m_block=50, blocks=3))
    assert manifest["health"] == run_health(report)


@pytest.mark.parametrize("argv", [
    ["subsets", "--sizes", "10", "--trials", "2"],
    ["equivalence", "--phi-grid", "0:pi:2"],
    ["equivalence", "--n-unitaries", "2"],
])
def test_sampler_recorded_for_sampled_commands(outdir, small_design_file, argv):
    assert main(argv + ["--design", small_design_file, "--M", "10", "--blocks", "2",
                        "--out", "out.csv"]) == EXIT_OK
    manifest = json.loads((outdir / "out.csv.manifest.json").read_text())
    # numpy does not promise to keep multinomial's stream across releases
    assert manifest["numpy_version"] == np.__version__
    assert manifest["stream_version"] == 2


@pytest.mark.parametrize("command", ["simulate", "subsets", "equivalence"])
@pytest.mark.parametrize("sampler", ["counts", "draws"])
def test_sampler_option_is_gone(outdir, capsys, command, sampler):
    # one sampler is left, so the option that chose one is rejected, not ignored
    with pytest.raises(SystemExit) as exc:
        main([command, "--M", "10", "--blocks", "2", "--sampler", sampler])
    assert exc.value.code == EXIT_IO
    assert f"unrecognized arguments: --sampler {sampler}" in capsys.readouterr().err


def test_exact_equivalence_records_no_sampler(outdir, small_design_file):
    # an exact scan draws nothing, so it claims no stream
    assert main(["equivalence", "--design", small_design_file, "--exact",
                 "--phi-grid", "0:pi:2", "--out", "eq.csv"]) == EXIT_OK
    manifest = json.loads((outdir / "eq.csv.manifest.json").read_text())
    assert manifest["stream_version"] is None


@pytest.fixture(scope="module")
def nan_design_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("designs") / "nan.json"
    save_design(optimize_design(40, 4, 4, seed=1, max_iters=50), path)
    data = json.loads(path.read_text())
    data["states"][7][3] = "nan"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def three_state_design(tmp_path_factory):
    """Three basis states of C^4: a design file each accepted run samples in milliseconds."""
    path = tmp_path_factory.mktemp("three") / "three.json"
    save_design(StateDesign(t=4, states=np.eye(4, 3, dtype=complex)), path)
    return str(path)


_SIZE_TOKENS = st.integers(-2, 5).map(str) | st.text("0123456789+-_ .e", max_size=4)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(tokens=st.lists(_SIZE_TOKENS, min_size=1, max_size=4))
def test_subset_sizes_exit_ok_or_validation(boundary_dir, three_state_design, tokens):
    # int and check_subset_request reject a size list only with ValueError, which exits 4
    text = ",".join(tokens)
    try:
        check_subset_request([int(s) for s in text.split(",")], 2, 3)
        expected = EXIT_OK
    except ValueError:
        expected = EXIT_VALIDATION
    assert main(["subsets", "--design", three_state_design, f"--sizes={text}", "--trials", "2",
                 "--M", "2", "--blocks", "2", "--out", str(boundary_dir / "s.csv")]) == expected


_SMALL = st.integers(-1, 4)


@st.composite
def _integer_options(draw):
    """argv of a command with its integer options drawn: --M past 2**64, since M sizes
    no array, and the options that size arrays within a few units."""
    command = draw(st.sampled_from(["simulate", "subsets", "equivalence", "optimize"]))
    if command == "optimize":
        return ["design", "optimize", "--K", str(draw(st.integers(-1, 6))),
                "--iters", str(draw(_SMALL))]
    m_block = draw(st.integers(-1, 2**65) | st.sampled_from([2**63 - 1, 2**63]))
    argv = [command, "--M", str(m_block), "--blocks", str(draw(_SMALL))]
    if command == "subsets":
        argv += ["--sizes", "2", "--trials", str(draw(_SMALL))]
    if command == "equivalence":
        argv += ["--n-unitaries", str(draw(_SMALL))]
    return argv


@settings(max_examples=60, derandomize=True, deadline=None)
@given(argv=_integer_options())
def test_integer_options_exit_ok_target_or_validation(boundary_dir, three_state_design, argv):
    design = [] if argv[0] == "design" else ["--design", three_state_design]
    out = str(boundary_dir / "int.out")
    assert main(argv + design + ["--out", out]) in (EXIT_OK, EXIT_TARGET, EXIT_VALIDATION)


@pytest.mark.parametrize("argv", [
    ["fidelity", "--mode", "empirical"],
    ["simulate", "--M", "10", "--blocks", "2"],
])
def test_nan_design_exits_io(outdir, capsys, nan_design_file, argv):
    assert main(argv + ["--design", nan_design_file]) == EXIT_IO
    assert "not unit norm" in capsys.readouterr().err


@pytest.mark.parametrize("argv, suffix", [
    pytest.param(["fidelity"], "json", id="fidelity-json"),
    pytest.param(["simulate", "--M", "10", "--blocks", "2"], "csv", id="simulate-csv"),
])
def test_design_file_not_utf8_exits_io(outdir, capsys, argv, suffix):
    path = outdir / f"bad.{suffix}"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(argv + ["--design", str(path)]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")


def test_refused_allocation_exits_validation(outdir, capsys, monkeypatch):
    # numpy raises MemoryError for an array the machine will not give, such as
    # the scores of an enormous --blocks; the layer call stands in for it here
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 768. GiB for an array with shape "
                          "(960, 100000000) and data type float64")

    monkeypatch.setattr("mubest.cli.simulate_protocol", refuse)
    assert main(["simulate", "--blocks", "100000000", "--out", "r.json"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("error: Unable to allocate 768. GiB for an array with "
                                       "shape (960, 100000000) and data type float64\n")
    assert not (outdir / "r.json").exists()


_INT_DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap


def _both_renderings(cases):
    """Each "both" case as a .json case in place and a .csv case appended, its
    '# field=' line spelling the value as the JSON literal; None deletes the field."""
    return ([("json" if suffix == "both" else suffix, *case) for suffix, *case in cases]
            + [("csv", field, None if value is None else json.dumps(value), message)
               for suffix, field, value, message in cases if suffix == "both"])


@pytest.mark.parametrize("suffix, field, value, message", _both_renderings([
    ("both", "t", "4", "'t' must be an integer >= 1, got '4'"),
    ("both", "dim", 4.0, "'dim' must be an integer >= 1, got 4.0"),
    ("both", "t", True, "'t' must be an integer >= 1, got True"),
    ("both", "K", "40", "'K' must be an integer >= 1, got '40'"),
    ("both", "K", 0, "'K' must be an integer >= 1, got 0"),
    ("json", "state", "abc", "state 3 is not a list of floats"),
    ("json", "state", None, "state 3 is not a list of floats"),
    ("json", None, 5, "not a design object"),
    ("json", "states", 5, "not a design object"),
    ("json", "metadata", [1], "not a design object"),
    ("both", "phi_t", "abc", "'phi_t' must be a number, got 'abc'"),
    ("both", "provenance", [1], "'provenance' must be a string, got [1]"),
    ("both", "format_version", True, "unsupported format_version True"),
    ("both", "format_version", 1.0, "unsupported format_version 1.0"),
    ("both", "format_version", 7, "unsupported format_version 7"),
    ("both", "format_version", None, "missing header field 'format_version'"),
    ("both", "dim", None, "missing header field 'dim'"),
    ("csv", "state", "abc", "bad float"),
    # a CSV header value that spells no JSON literal is text
    ("csv", "dim", "04", "'dim' must be an integer >= 1, got '04'"),
    ("csv", "phi_t", "abc", "'phi_t' must be a number, got 'abc'"),
    # a non-finite phi_t: NaN and +-Infinity, which Python's json reads, in both
    # renderings, and in CSV also the spellings save_design writes for them
    ("both", "phi_t", math.nan, "'phi_t' must be a finite number, got nan"),
    ("both", "phi_t", math.inf, "'phi_t' must be a finite number, got inf"),
    ("both", "phi_t", -math.inf, "'phi_t' must be a finite number, got -inf"),
    ("csv", "phi_t", "nan", "'phi_t' must be a finite number, got nan"),
    ("csv", "phi_t", "inf", "'phi_t' must be a finite number, got inf"),
    ("csv", "phi_t", "-inf", "'phi_t' must be a finite number, got -inf"),
    # an integer literal beyond float range, and one beyond the digit cap of
    # Python's int parsing (4300 by default; without a cap it is beyond float range)
    ("json", "state", "<401 digits>", "state 3 is not a list of floats"),
    ("json", "state", "<4301 digits>", "invalid JSON: Exceeds the limit"
     if 0 < _INT_DIGIT_CAP < 4301 else "state 3 is not a list of floats"),
]))
def test_bad_design_file_exits_io(outdir, capsys, small_design_file, suffix, field,
                                  value, message):
    path = outdir / f"bad.{suffix}"
    if suffix == "json":
        data = json.loads(Path(small_design_file).read_text())
        if field is None:
            data = value
        elif field == "state":
            data["states"][3][1] = value
        elif value is None:
            del data[field]
        else:
            data[field] = value
        # "<n digits>" stands for an integer literal of n digits
        path.write_text(re.sub(r'"<(\d+) digits>"', lambda m: "9" * int(m[1]), json.dumps(data)))
    else:
        save_design(load_design(small_design_file), path)
        lines = path.read_text().splitlines()
        header = f"# {field}="  # a None value deletes the header line
        lines = [f"{header}{value}" if line.startswith(header) else line
                 for line in lines if value is not None or not line.startswith(header)]
        if field == "state":
            lines[-1] = value + lines[-1][lines[-1].index(","):]
        path.write_text("\n".join(lines) + "\n")
    assert main(["fidelity", "--mode", "empirical", "--design", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and message in err


def _json_text(value):
    """json.dumps of `value`, whose integers may pass the int-to-str digit cap."""
    if not _INT_DIGIT_CAP:
        return json.dumps(value)
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value)
    finally:
        sys.set_int_max_str_digits(_INT_DIGIT_CAP)


# generated design files, so that every check of load_design is reached: any
# JSON value, including integers beyond float range and beyond the digit cap
_TEXT = st.text("0123456789.+-eEinfatyINF_ #=,\"[]{}é\u2028\x00", max_size=8)
_HUGE = st.integers(400, 4400).map(lambda n: 10**n)
_VALUES = st.recursive(
    st.one_of(st.integers(), _HUGE, st.floats(), _TEXT, st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=4)


@st.composite
def _design_parts(draw, value, entry):
    """(header, rows) of a design file: each header field mostly valid, else
    missing or a drawn `value`; each row mostly 8 floats, else `entry`s of any width."""
    rows = draw(st.lists(st.one_of(*3 * [st.lists(st.floats(-1, 1), min_size=8, max_size=8)],
                                   st.lists(entry, max_size=10)), min_size=1, max_size=3))
    header = {}
    for key, valid in (("format_version", 1), ("dim", 4), ("t", 4), ("K", len(rows)),
                       ("provenance", "file"), ("phi_t", 0.1)):
        kind = draw(st.sampled_from(["valid"] * 6 + ["missing", "drawn"]))
        if kind != "missing":
            header[key] = valid if kind == "valid" else draw(value)
    return header, rows


@st.composite
def _json_documents(draw):
    """Mostly design objects; else any value, or a design with any metadata."""
    kind = draw(st.sampled_from(["design"] * 6 + ["value", "metadata"]))
    if kind == "value":
        return draw(_VALUES)
    header, rows = draw(_design_parts(_VALUES, st.floats(-1, 1) | _HUGE | _VALUES))
    doc = dict(header, states=rows)
    if kind == "metadata":
        doc["metadata"] = draw(_VALUES)
    return doc


_CSV_DOCUMENTS = st.builds(
    lambda parts: "\n".join([f"# {k}={v}" for k, v in parts[0].items()]
                            + [",".join(map(str, row)) for row in parts[1]]),
    _design_parts(_VALUES.map(_json_text) | _TEXT, st.floats(-1, 1).map(repr) | _TEXT))


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


def _check_boundary(path, content):
    """load_design rejects a malformed file only with DesignFormatError or OSError,
    and the CLI exits 2 on it."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    try:
        load_design(path)
    except (DesignFormatError, OSError):
        assert main(["fidelity", "--mode", "empirical", "--design", str(path)]) == EXIT_IO


@settings(max_examples=80, derandomize=True, deadline=None)
@given(doc=_json_documents())
def test_generated_json_design_files_exit_io(boundary_dir, doc):
    _check_boundary(boundary_dir / "design.json", _json_text(doc))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(text=_CSV_DOCUMENTS)
def test_generated_csv_design_files_exit_io(boundary_dir, text):
    _check_boundary(boundary_dir / "design.csv", text)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(suffix=st.sampled_from(["json", "csv"]), data=st.binary(max_size=40))
def test_design_files_of_any_bytes_exit_io(boundary_dir, suffix, data):
    _check_boundary(boundary_dir / f"bytes.{suffix}", data)


@pytest.mark.parametrize("argv", [
    ["fidelity", "--mode", "empirical"],
    ["simulate", "--M", "10", "--blocks", "2"],
    ["subsets", "--sizes", "4", "--trials", "2", "--M", "10", "--blocks", "2"],
    ["equivalence", "--exact", "--phi-grid", "0:pi:2"],
])
def test_design_of_wrong_dim_exits_io(outdir, capsys, argv):
    path = outdir / "qubit.json"
    save_design(optimize_design(8, 2, 2, seed=2, max_iters=50), path)
    assert main(argv + ["--design", str(path)]) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: {path}: design has dim=2; the measurements act on dimension 4\n")


def test_simulate_reproducible(outdir, capsys, small_design_file):
    args = ["simulate", "--design", small_design_file, "--seed", "3",
            "--M", "200", "--blocks", "2"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_simulate_invalid_blocks(outdir, capsys):
    code = main(["simulate", "--blocks", "0", "--M", "10"])
    assert code == EXIT_VALIDATION
    # one block gives no std: a zero error bar would claim perfect precision
    assert main(["simulate", "--blocks", "1", "--M", "5"]) == EXIT_VALIDATION
    assert "blocks must be >= 2 for a std" in capsys.readouterr().err


@pytest.mark.parametrize("design", ["clifford", "missing.json"])
@pytest.mark.parametrize("command", ["simulate", "subsets", "equivalence"])
def test_m_past_int64_exits_validation(outdir, capsys, command, design):
    # the sampler splits int64 counts; the bound is checked before a design is read,
    # so a missing design file still exits 4
    argv = [command, "--design", design, "--M", str(2**63), "--blocks", "2", "--out", "r.out"]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: m_block must be an integer from 1 to 2**63 - 1\n"
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "subsets"])
def test_negative_seed_rejected(outdir, capsys, small_design_file, command):
    code = main([command, "--design", small_design_file, "--seed", "-1", "--M", "10",
                 "--blocks", "2"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: expected non-negative integer\n"


@pytest.mark.parametrize("scan", [["--phi-grid", "0:pi:3"], ["--n-unitaries", "3"]])
def test_equivalence_mode_defaults_to_ideal(outdir, small_design_file, scan):
    # --design names the states scored, so without --mode the estimators are
    # the Clifford Q's, as in every other command
    for mode, name in (([], "default.csv"), (["--mode", "ideal"], "ideal.csv")):
        assert main(["equivalence", "--design", small_design_file, "--exact", *scan, *mode,
                     "--out", name]) == EXIT_OK
    default, ideal = [(outdir / name).read_text().splitlines()
                      for name in ("default.csv", "ideal.csv")]
    assert "# mode=ideal" in default
    assert default[1:] == ideal[1:]


def test_equivalence_phase_exact(outdir, monkeypatch):
    # the exact column scores the design it is given, in either mode: over the
    # orbit, named or as a file copy, the controlled phase leaves F unchanged;
    # over CI's 40-state design the phi = 0 row is `fidelity --design`'s F at
    # (pi/2, pi/2, pi/2), bit for bit
    assert main(["design", "clifford", "--out", "orbit.json"]) == EXIT_OK
    assert main(["design", "optimize", "--K", "40", "--seed", "0", "--iters", "5",
                 "--out", "d40.csv"]) == EXIT_OK
    scans = _spy(monkeypatch, "equivalence_scan_phase", equivalence_scan_phase)
    curves = _spy(monkeypatch, "fidelity_scan", fidelity_scan)
    for mode in ("ideal", "empirical"):
        for design in ("clifford", "orbit.json"):
            assert main(["equivalence", "--design", design, "--mode", mode, "--exact",
                         "--phi-grid", "0:pi:3", "--out", "eq.csv"]) == EXIT_OK
            values = [exact for _, exact, _, _ in scans[-1]]
            assert max(values) - min(values) <= 1e-10
        assert main(["equivalence", "--design", "d40.csv", "--mode", mode, "--exact",
                     "--phi-grid", "0:0:1", "--out", "eq.csv"]) == EXIT_OK
        assert main(["fidelity", "--design", "d40.csv", "--mode", mode, "--y-list", "pi/2",
                     "--z-list", "pi/2", "--out", "f.csv"]) == EXIT_OK
        assert scans[-1][0][1] == curves[-1][0][3]
    assert (outdir / "eq.csv").exists()


# the README's exact scans at full size, in README order; curves_emp.csv reads
# the K = 200 design the optimize command writes
SCAN_COMMANDS = [
    ["fidelity", "--x", "pi/2", "--y-list", "pi/2,0", "--out", "curves.csv"],
    ["design", "optimize", "--K", "200", "--seed", "0", "--target", "0.0287",
     "--out", "num200.json"],
    ["fidelity", "--mode", "empirical", "--design", "num200.json",
     "--out", "curves_emp.csv"],
    ["fidelity", "--copies", "2", "--out", "pair.csv"],
    ["equivalence", "--exact", "--phi-grid", "0:2pi:9", "--out", "phase.csv"],
    ["equivalence", "--exact", "--n-unitaries", "100", "--seed", "0", "--out", "haar.csv"],
]

# csv_rows_sha256 of the CSVs SCAN_COMMANDS write, recorded once every fidelity
# was scored as sum_o tr(Q'_o rhohat_o) and the headers named the design scored
SCAN_CSV_SHA256 = {
    "curves.csv": "ea0e12003b1413717889f501363420b5cfa2007006480233ccbe4eec9e7fdb30",
    "curves_emp.csv": "ae0315af2341082096e23ca769022d53c17c58087f4e2b836c66f1a74678a555",
    "pair.csv": "24296b200fab25e93e866037eb261d9497fe661bfd03896dcf7764331303b315",
    "phase.csv": "e6f95fb91a07e22480283c33d21dcb1f9dcf5599759dbfeeb4e100857033ab28",
    "haar.csv": "300467a2e2c5b4ad9ae6b4d389251d03910cf61b08b1a188548262aee29f38dd",
}

# csv_rows_sha256 of the CSV this resampling run writes; SimConfig and SimReport
# feed it, and a `subsets` that reads a recorded run must write the same rows
SUBSETS_ARGV = ["subsets", "--seed", "3", "--subset-seed", "3", "--M", "100", "--blocks", "2",
                "--sizes", "10,20,960", "--trials", "5", "--out", "subsets.csv"]
SUBSETS_CSV_SHA256 = "56e8d86f380acbce0da88de64cbfc6ec679db7a70f76c71a1c486f81da68bdc5"


def csv_rows_sha256(path):
    """sha256 of a CSV's lines other than '# manifest=', which digests the options."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return hashlib.sha256(
        b"".join(line for line in lines if not line.startswith(b"# manifest="))
    ).hexdigest()


def test_scan_csv_golden(outdir):
    assert [main(argv) for argv in SCAN_COMMANDS] == [EXIT_OK] * len(SCAN_COMMANDS)
    digests = {name: csv_rows_sha256(outdir / name) for name in SCAN_CSV_SHA256}
    assert digests == SCAN_CSV_SHA256


def test_standard_estimators_of_the_clifford_design_are_ideal(outdir):
    # an exact 4-design has Q' = Q, so the Clifford Q's estimators scored over the
    # Clifford design file give the ideal curves' data rows
    assert main(["design", "clifford", "--out", "clifford.json"]) == EXIT_OK
    for copies in ([], ["--copies", "2", "--pair", "BC"]):
        assert main(["fidelity", *copies, "--out", "ideal.csv"]) == EXIT_OK
        assert main(["fidelity", *copies, "--mode", "ideal", "--design", "clifford.json",
                     "--out", "standard.csv"]) == EXIT_OK
        rows = [[ln for ln in (outdir / name).read_text().splitlines() if not ln.startswith("#")]
                for name in ("standard.csv", "ideal.csv")]
        assert rows[0] == rows[1] and len(rows[0]) == 19


def test_subsets_csv_golden(outdir):
    assert main(SUBSETS_ARGV) == EXIT_OK
    assert csv_rows_sha256(outdir / "subsets.csv") == SUBSETS_CSV_SHA256


def test_subsets_command(outdir, capsys, small_design_file):
    code = main(
        ["subsets", "--design", small_design_file, "--sizes", "10,20,40",
         "--M", "200", "--blocks", "2", "--trials", "20", "--out", "sub.csv"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "K=10" in out and "K=40" in out
    rows = [ln for ln in (outdir / "sub.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    stds = [float(r.split(",")[2]) for r in rows]
    assert stds[0] > stds[-1]


def test_subsets_health_predicts_std(outdir):
    # seeds, sizes and the 1 +- 0.25 band were fixed before the first run; at
    # 300 trials an observed std scatters by about 4% around its prediction
    code = main(["subsets", "--seed", "3", "--M", "100", "--blocks", "2",
                 "--sizes", "10,100,480,960", "--trials", "300", "--subset-seed", "0",
                 "--out", "sub.csv"])
    assert code == EXIT_OK
    manifest = json.loads((outdir / "sub.csv.manifest.json").read_text())
    rows = [ln.split(",") for ln in (outdir / "sub.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    health = manifest["health"]["subsets"]
    assert [h["K"] for h in health] == [10, 100, 480, 960]
    for h, row in zip(health, rows):
        assert f"{h['std']:.12g}" == row[2]
        if h["K"] == 960:
            assert h["std"] == h["predicted_std"] == 0.0
        else:
            assert 0.75 <= h["std"] / h["predicted_std"] <= 1.25, h


def test_subsets_rejects_single_trial(outdir, capsys, small_design_file):
    code = main(["subsets", "--design", small_design_file, "--sizes", "10",
                 "--M", "10", "--blocks", "2", "--trials", "1"])
    assert code == EXIT_VALIDATION
    assert "trials must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--trials", "1"],
    ["--sizes", "0"],
    ["--sizes", "961"],
    ["--sizes", "10,10"],
    ["--subset-seed", "-1"],
])
def test_subsets_validates_before_sampling(outdir, capsys, monkeypatch, extra):
    def fail(*args, **kwargs):
        raise AssertionError("sampled before validating")

    monkeypatch.setattr("mubest.cli.simulate_protocol", fail)
    assert main(["subsets"] + extra) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("extra", [["--exact"], ["--M", "10", "--blocks", "2"]])
def test_equivalence_single_unitary_rejected(outdir, capsys, monkeypatch, extra):
    def fail(*args, **kwargs):
        raise AssertionError("built the design before validating")

    monkeypatch.setattr("mubest.cli._load_or_build_design", fail)
    code = main(["equivalence", "--n-unitaries", "1", "--out", "eq.csv"] + extra)
    assert code == EXIT_VALIDATION
    # one unitary gives no std: a zero would claim perfect precision
    assert capsys.readouterr().err == "error: n_unitaries must be >= 2 for a std\n"
    assert list(outdir.iterdir()) == []


def test_equivalence_negative_seed_rejected(outdir, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built the design before validating")

    monkeypatch.setattr("mubest.cli._load_or_build_design", fail)
    code = main(["equivalence", "--exact", "--seed", "-1", "--n-unitaries", "3",
                 "--out", "eq.csv"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: expected non-negative integer\n"
    assert list(outdir.iterdir()) == []


def test_manifest_records_output_hashes(outdir, small_design_file):
    main(["simulate", "--design", small_design_file, "--M", "20", "--blocks", "2",
          "--out", "run.json"])
    manifest = json.loads((outdir / "run.json.manifest.json").read_text())
    paths = manifest["output_paths"]
    assert len(paths) == 2
    assert manifest["output_sha256"] == {
        p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths
    }


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_manifest_digest_stable():
    a = manifest_digest("fidelity", {"x": 1.0}, seed=2)
    assert a == manifest_digest("fidelity", {"x": 1.0}, seed=2)
    assert a != manifest_digest("fidelity", {"x": 1.5}, seed=2)
    assert a != manifest_digest("fidelity", {"x": 1.0}, seed=3)


@pytest.mark.parametrize("argv, first, second", [
    (["fidelity", "--copies", "2", "--y-list", "pi/2", "--z-list", "0"],
     ["--pair", "AB"], ["--pair", "BC"]),
    (["fidelity", "--design", "SMALL", "--y-list", "pi/2", "--z-list", "0"],
     ["--mode", "ideal"], ["--mode", "empirical"]),
    (["simulate", "--M", "10", "--blocks", "2"], [], ["--counts"]),
    (["subsets", "--M", "10", "--blocks", "2", "--sizes", "10", "--trials", "2"],
     ["--subset-seed", "0"], ["--subset-seed", "1"]),
    (["subsets", "--M", "10", "--blocks", "2", "--sizes", "10", "--trials", "2"],
     [], ["--design", "SMALL"]),
    (["equivalence", "--phi-grid", "0:pi:2", "--blocks", "2"], ["--M", "10"],
     ["--M", "20"]),
    (["equivalence", "--phi-grid", "0:pi:2", "--M", "10"], ["--blocks", "2"],
     ["--blocks", "3"]),
], ids=["fidelity-pair", "fidelity-mode", "simulate-counts",
        "subsets-subset-seed", "subsets-design", "equivalence-M", "equivalence-blocks"])
def test_manifest_records_output_options(outdir, small_design_file, argv, first, second):
    # each pair of runs writes different outputs, so it must get different digests
    digests = []
    for extra in (first, second):
        command = [small_design_file if arg == "SMALL" else arg for arg in argv + extra]
        assert main(command + ["--out", "out.csv"]) == EXIT_OK
        manifest = json.loads((outdir / "out.csv.manifest.json").read_text())
        assert manifest["manifest_hash"] == manifest_digest(
            argv[0], manifest["parameters"], manifest["seed"])
        digests.append(manifest["manifest_hash"])
    assert digests[0] != digests[1]


def test_manifest_wall_time_covers_command(outdir, small_design_file, monkeypatch):
    def slow(*args, **kwargs):
        time.sleep(0.1)
        report = simulate_protocol(*args, **kwargs)
        time.sleep(0.1)
        return report

    monkeypatch.setattr("mubest.cli.simulate_protocol", slow)
    assert main(["simulate", "--design", small_design_file, "--M", "10", "--blocks", "2",
                 "--out", "run.json"]) == EXIT_OK
    manifest = json.loads((outdir / "run.json.manifest.json").read_text())
    assert manifest["wall_time_s"] >= 0.2


def _digest(argv):
    args = build_parser().parse_args(argv)
    return manifest_digest(args.command, run_parameters(args), getattr(args, "seed", None))


# the command words and required arguments of each leaf command; every other
# option keeps its default
BASE_ARGV = {("groups",): ["--which", "pauli"], ("design", "clifford"): [],
             ("design", "optimize"): [], ("fidelity",): [], ("simulate",): [],
             ("equivalence",): [], ("subsets",): []}


def _leaf_parsers(parser, words=()):
    """(command words, parser) of each command that takes no further subcommand."""
    kinds = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not kinds:
        yield words, parser
        return
    for name, sub in kinds[0].choices.items():
        yield from _leaf_parsers(sub, words + (name,))


def _changed_argv(words, action):
    """The base command line of `words` with `action` set to a value other than its base one."""
    argv = list(words) + BASE_ARGV[words]
    base = getattr(build_parser().parse_args(argv), action.dest)
    if action.nargs == 0:  # a store_true flag
        assert base is False
        return argv + [action.option_strings[0]]
    if action.choices is not None:
        value = next(str(c) for c in action.choices if c != base)
    elif action.type in (int, float):
        value = str(1 if base is None else base + 1)
    else:
        value = f"{base}_changed"  # another angle token, grid, path or name
    return argv + [action.option_strings[0], value]


def test_every_option_changes_the_digest():
    # parsing only: two command lines that differ in one option, or in the
    # command, get different digests
    leaves = dict(_leaf_parsers(build_parser()))
    assert set(leaves) == set(BASE_ARGV)
    bases = {words: _digest(list(words) + BASE_ARGV[words]) for words in leaves}
    assert len(set(bases.values())) == len(bases)
    checked = 0
    for words, parser in leaves.items():
        for action in parser._actions:
            if action.dest == "help":
                continue
            argv = _changed_argv(words, action)
            assert _digest(argv) != bases[words], argv
            checked += 1
    assert checked == 46


def test_run_parameters_are_the_parsed_options():
    args = build_parser().parse_args(["subsets", "--x", "pi/3", "--sizes", "10,20"])
    parameters = run_parameters(args)
    assert "command" not in parameters and "func" not in parameters
    assert parameters["x"] == "pi/3" and parameters["sizes"] == "10,20"
    assert parameters["M"] == 10000 and parameters["out"] is None


# the README's commands at small sizes; each writes a manifest
README_RUNS = [
    ["groups", "--which", "restricted", "--out", "restricted.json"],
    ["design", "clifford", "--out", "clifford.json"],
    ["design", "optimize", "--K", "40", "--seed", "0", "--target", "0.0287",
     "--iters", "5", "--out", "num200.json"],
    ["fidelity", "--x", "pi/2", "--y-list", "pi/2,0", "--z-list", "0:pi:3",
     "--out", "curves.csv"],
    ["fidelity", "--mode", "empirical", "--design", "num200.json", "--z-list", "0:pi:3",
     "--out", "curves_emp.csv"],
    ["simulate", "--x", "pi/2", "--y", "pi/2", "--z", "pi/2", "--seed", "0",
     "--M", "10", "--blocks", "2", "--out", "run.json"],
    ["simulate", "--x", "pi/2", "--y", "pi/2", "--z", "pi/2", "--seed", "0",
     "--M", "10", "--blocks", "2", "--counts", "--out", "run_counts.json"],
    ["equivalence", "--exact", "--phi-grid", "0:2pi:3", "--out", "phase.csv"],
    ["equivalence", "--exact", "--n-unitaries", "3", "--out", "haar.csv"],
    ["subsets", "--sizes", "240,480,720", "--trials", "3", "--M", "10", "--blocks", "2",
     "--out", "subsets.csv"],
]


def _sha256_by_name(manifest):
    return {os.path.basename(path): digest
            for path, digest in manifest["output_sha256"].items()}


def test_manifests_replay(tmp_path, monkeypatch, capsys):
    # a bare --design name is read from MUBEST_OUTDIR, like --out, so each pass
    # reads the num200.json it wrote into its own directory
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    monkeypatch.setenv("MUBEST_OUTDIR", str(first))
    codes = [main(argv) for argv in README_RUNS]
    assert codes == [EXIT_OK] * 2 + [EXIT_TARGET] + [EXIT_OK] * 7
    manifests = [json.loads((first / (argv[-1] + ".manifest.json")).read_text())
                 for argv in README_RUNS]
    monkeypatch.setenv("MUBEST_OUTDIR", str(second))
    for argv, code, manifest in zip(README_RUNS, codes, manifests):
        assert manifest["argv"] == argv
        assert manifest["parameters"] == run_parameters(
            build_parser().parse_args(manifest["argv"]))
        assert main(manifest["argv"]) == code
        replay = json.loads((second / (argv[-1] + ".manifest.json")).read_text())
        assert replay["manifest_hash"] == manifest["manifest_hash"]
        assert _sha256_by_name(replay) == _sha256_by_name(manifest)
        assert all(path.startswith(str(second)) for path in replay["output_paths"])
        sampled = argv[0] in ("simulate", "subsets")
        assert manifest["stream_version"] == (2 if sampled else None)
