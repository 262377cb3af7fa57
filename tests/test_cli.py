import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mubest
from mubest.cli import (
    DEFAULT_Z_GRID,
    EXIT_IO,
    EXIT_OK,
    EXIT_TARGET,
    EXIT_VALIDATION,
    _write_report,
    main,
    manifest_digest,
    parse_angle,
    parse_angle_list,
)
from mubest.designs import (
    default_design,
    frame_potential,
    load_design,
    optimize_design,
    save_design,
)
from mubest.estimation import triple_measurements
from mubest.mub import mub_triple
from mubest.simulate import SimConfig, _scored_report, run_health, simulate_protocol


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


@pytest.mark.parametrize("argv", [
    ["fidelity", "--x", "1pi/0"],
    ["fidelity", "--x", "nan"],
    ["fidelity", "--z-list", "0:pi:0"],
    ["fidelity", "--z-list", "0:pi"],
    ["equivalence", "--exact", "--phi-grid", "0:pi:0"],
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


def test_design_optimize_target_miss(outdir, capsys):
    code = main(
        ["design", "optimize", "--K", "40", "--seed", "1", "--iters", "3",
         "--target", "1e-9"]
    )
    assert code == EXIT_TARGET
    assert "target" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--step", "nan"), ("--step", "inf"), ("--step", "0"), ("--step", "-1"),
    ("--target", "nan"), ("--target", "inf"),
])
def test_design_optimize_bad_step_or_target(tmp_path, option, value):
    # a separate process with a timeout: a non-finite step once looped forever
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


# sha256 of the design files, recorded before the frame potential was row-blocked
DESIGN_FILE_SHA256 = {
    "clifford": "81e7f720a1a99c1bc3e61feeac79bb9e4998e3e3eeff77dea0393029ec8051f4",
    "optimize": "7c60e831bc5ccf84f04b77b26a3ba141d5762cb69c401d0601908b518a0ba8ed",
}


@pytest.mark.parametrize("argv, stdout", [
    (["design", "clifford"], "K=960 phi4=0.0285714286 symmetric_ratio=1.000000\n"),
    (["design", "optimize", "--K", "200", "--seed", "0", "--target", "0.0287"],
     "K=200 phi4=0.0286964302 symmetric_ratio=0.782122\n"),
])
def test_design_file_golden(outdir, capsys, argv, stdout):
    assert main(argv + ["--out", "d.json"]) == EXIT_OK
    assert capsys.readouterr().out == stdout
    digest = hashlib.sha256((outdir / "d.json").read_bytes()).hexdigest()
    assert digest == DESIGN_FILE_SHA256[argv[1]]


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
    code = main(
        ["fidelity", "--mode", "empirical", "--design", "no_such_file.json",
         "--y-list", "pi/2", "--z-list", "pi/2"]
    )
    assert code == EXIT_IO
    assert "error" in capsys.readouterr().err


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


@pytest.mark.parametrize("design, M, blocks, sampler, counts", [
    pytest.param("small_design_file", 30, 3, "counts", True, id="True"),
    pytest.param("small_design_file", 30, 3, "counts", False, id="False"),
    # counts in the millions: far above any table sized for small counts
    pytest.param("small_design_file", 5_000_000, 2, "counts", True, id="large-M"),
    # K = 100 states end the writer's runs of states with a partial one
    pytest.param("design100_file", 30, 2, "counts", True, id="K-not-multiple-of-64"),
    pytest.param("small_design_file", 30, 3, "draws", True, id="draws"),
])
def test_simulate_report_bytes(outdir, request, design, M, blocks, sampler, counts):
    path = request.getfixturevalue(design)
    argv = ["simulate", "--design", path, "--seed", "5", "--M", str(M),
            "--blocks", str(blocks), "--sampler", sampler, "--out", "run.json"]
    assert main(argv + (["--counts"] if counts else [])) == EXIT_OK
    half = math.pi / 2
    report = simulate_protocol(mub_triple(half, half, half), load_design(path),
                               SimConfig(seed=5, m_block=M, blocks=blocks, sampler=sampler))
    expected = json.dumps(report.to_dict(include_counts=counts), indent=1)
    assert (outdir / "run.json").read_text() == expected


def test_write_report_memory_is_bounded(tmp_path, rng):
    # a quarter of the paper's table (K = 960, B = 10, M = 10^4): under
    # tracemalloc every formatted count is a traced allocation
    counts = rng.multinomial(10_000, np.full(64, 1 / 64), size=(240, 10))
    half = math.pi / 2
    triple = mub_triple(half, half, half)
    report = _scored_report(triple, SimConfig(seed=0), None, "ideal",
                            tuple(triple_measurements(triple)), counts,
                            rng.random((240, 64)))
    tracemalloc.start()
    try:
        _write_report(tmp_path / "run.json", report, include_counts=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < counts.nbytes / 2
    assert np.array_equal(json.loads((tmp_path / "run.json").read_text())["counts"], counts)


def test_simulate_draws_sampler_writes_v1_counts(outdir, small_design_file):
    argv = ["simulate", "--design", small_design_file, "--seed", "3", "--M", "40",
            "--blocks", "2", "--sampler", "draws", "--counts", "--out", "run.json"]
    assert main(argv) == EXIT_OK
    half = math.pi / 2
    v1 = simulate_protocol(mub_triple(half, half, half), load_design(small_design_file),
                           SimConfig(seed=3, m_block=40, blocks=2, sampler="draws"))
    report = json.loads((outdir / "run.json").read_text())
    assert report["sampler"] == "draws"
    assert np.array_equal(np.array(report["counts"]), v1.counts)


def test_simulate_manifest_describes_run(outdir, small_design_file):
    argv = ["simulate", "--design", small_design_file, "--seed", "4", "--M", "50",
            "--blocks", "3", "--out", "run.json"]
    assert main(argv) == EXIT_OK
    manifest = json.loads((outdir / "run.json.manifest.json").read_text())
    assert manifest["parameters"]["sampler"] == "counts"
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
                        "--sampler", "draws", "--out", "out.csv"]) == EXIT_OK
    manifest = json.loads((outdir / "out.csv.manifest.json").read_text())
    assert manifest["parameters"]["sampler"] == "draws"
    # numpy does not promise to keep multinomial's stream across releases
    assert manifest["numpy_version"] == np.__version__


def test_exact_equivalence_records_no_sampler(outdir, small_design_file):
    assert main(["equivalence", "--design", small_design_file, "--exact",
                 "--phi-grid", "0:pi:2", "--out", "eq.csv"]) == EXIT_OK
    manifest = json.loads((outdir / "eq.csv.manifest.json").read_text())
    assert "sampler" not in manifest["parameters"]
    assert "numpy_version" not in manifest


@pytest.fixture(scope="module")
def nan_design_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("designs") / "nan.json"
    save_design(optimize_design(40, 4, 4, seed=1, max_iters=50), path)
    data = json.loads(path.read_text())
    data["states"][7][3] = "nan"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["fidelity", "--mode", "empirical"],
    ["simulate", "--M", "10", "--blocks", "2"],
])
def test_nan_design_exits_io(outdir, capsys, nan_design_file, argv):
    assert main(argv + ["--design", nan_design_file]) == EXIT_IO
    assert "not unit norm" in capsys.readouterr().err


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
        path.write_text(json.dumps(data))
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


@pytest.mark.parametrize("command", ["simulate", "subsets"])
def test_negative_seed_rejected(outdir, capsys, small_design_file, command):
    code = main([command, "--design", small_design_file, "--seed", "-1", "--M", "10",
                 "--blocks", "2"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: expected non-negative integer\n"


def test_equivalence_phase_exact(outdir, capsys, small_design_file):
    code = main(
        ["equivalence", "--design", small_design_file, "--mode", "ideal",
         "--exact", "--phi-grid", "0:pi:3", "--out", "eq.csv"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    values = [float(ln.split("exact=")[1]) for ln in out.splitlines()]
    assert max(values) - min(values) <= 1e-10
    assert (outdir / "eq.csv").exists()


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


def test_manifest_records_output_hashes(outdir, small_design_file):
    main(["simulate", "--design", small_design_file, "--M", "20", "--blocks", "2",
          "--out", "run.json"])
    manifest = json.loads((outdir / "run.json.manifest.json").read_text())
    paths = manifest["output_paths"]
    assert len(paths) == 2
    assert manifest["output_sha256"] == {
        p: hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths
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
    (["design", "optimize", "--K", "40", "--iters", "20"], ["--step", "1"],
     ["--step", "0.01"]),
    (["fidelity", "--copies", "2", "--y-list", "pi/2", "--z-list", "0"],
     ["--pair", "AB"], ["--pair", "BC"]),
    (["fidelity", "--mode", "empirical", "--y-list", "pi/2", "--z-list", "0"],
     ["--estimator-source", "matched"], ["--estimator-source", "ideal"]),
    (["simulate", "--M", "10", "--blocks", "2"], [], ["--counts"]),
    (["subsets", "--M", "10", "--blocks", "2", "--sizes", "10", "--trials", "2"],
     ["--subset-seed", "0"], ["--subset-seed", "1"]),
    (["subsets", "--M", "10", "--blocks", "2", "--sizes", "10", "--trials", "2"],
     [], ["--design", "SMALL"]),
    (["equivalence", "--phi-grid", "0:pi:2", "--blocks", "2"], ["--M", "10"],
     ["--M", "20"]),
    (["equivalence", "--phi-grid", "0:pi:2", "--M", "10"], ["--blocks", "2"],
     ["--blocks", "3"]),
], ids=["design-step", "fidelity-pair", "fidelity-estimator-source", "simulate-counts",
        "subsets-subset-seed", "subsets-design", "equivalence-M", "equivalence-blocks"])
def test_manifest_records_output_options(outdir, small_design_file, argv, first, second):
    # each pair of runs writes different outputs, so it must get different digests
    digests = []
    for extra in (first, second):
        extra = [small_design_file if arg == "SMALL" else arg for arg in extra]
        assert main(argv + extra + ["--out", "out.csv"]) == EXIT_OK
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
