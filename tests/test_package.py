"""The package's lazy exports: `import mubest` loads a layer only when one of
its names is first used, while `mubest.cli` loads every layer up front."""

import hashlib
import importlib
import json
import os
import site
import subprocess
import sys
from pathlib import Path

import pytest

import mubest

# every name the package exports, by the module that defines it
EXPORTS = {
    "designs": [
        "StateDesign", "clifford_design", "default_design", "fiducial_state",
        "frame_potential", "load_design", "moment_operator", "optimize_design", "orbit",
        "save_design",
    ],
    "estimation": [
        "estimation_fidelity", "fidelity_scan", "triple_fidelity",
    ],
    "groups": [
        "UnitaryGroup", "clifford_group_2q", "generate_group", "pauli_group_2q",
        "restricted_clifford_group_2q",
    ],
    "mub": [
        "MubTriple", "haar_random_unitary", "mub_triple", "transform_triple",
        "unbiasedness_report",
    ],
    "simulate": [
        "SimConfig", "SimReport", "equivalence_scan_phase", "equivalence_scan_random",
        "random_subset_analysis", "reprocess_two_copy", "simulate_protocol",
    ],
}
LAYERS = tuple(EXPORTS)

# every standard-library module that src/ imports by name
STDLIB_IMPORTS = ("argparse", "functools", "hashlib", "importlib", "importlib.util", "itertools",
                  "json", "math", "os", "re", "sys", "time", "warnings")


def _fresh(code):
    """Run code in a new interpreter after `import sys, json`; return what it
    prints as JSON on its last line.

    The child runs with -S: a site directory's .pth file can import modules at
    start-up (tempfile, shutil and random, where one loads certifi), which
    would hide an import that a clean interpreter makes.  The package's parent
    and the site directories are on its PYTHONPATH instead, so numpy is found.
    """
    path = [str(Path(mubest.__file__).parents[1]), *site.getsitepackages()]
    if site.ENABLE_USER_SITE:
        path.append(site.getusersitepackages())
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import json, sys\n" + code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = ("print(json.dumps(sorted(m for m in sys.modules"
           " if m.startswith(('mubest', 'numpy')))))")


def test_import_loads_no_layer_and_no_numpy():
    loaded = _fresh("import mubest\n" + _LOADED)
    assert loaded == ["mubest"]


def test_setup_probe_loads_designs_and_groups_only():
    # the import line of the benchmark's set-up probe
    loaded = set(_fresh("from mubest import clifford_design, restricted_clifford_group_2q\n"
                        + _LOADED))
    assert {"mubest.designs", "mubest.groups", "numpy"} <= loaded
    assert not {"mubest.estimation", "mubest.mub", "mubest.simulate"} & loaded


def test_cli_loads_every_layer():
    # bench/trace_cmd.py wraps layer functions only in modules loaded by
    # `import mubest.cli`; a layer the CLI imported later would trace as 0 s
    loaded = set(_fresh("import mubest.cli\n" + _LOADED))
    assert {f"mubest.{layer}" for layer in LAYERS} <= loaded


def test_cli_adds_only_mubest_modules():
    # measured against whatever this Python and numpy load, so the test holds
    # on any version; a new import-time dependency of the CLI fails it
    added = _fresh(f"import numpy, {', '.join(STDLIB_IMPORTS)}\n"
                   "before = set(sys.modules)\nimport mubest.cli\n"
                   "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert "mubest.cli" in added
    assert [m for m in added if m.partition(".")[0] != "mubest"] == []


def test_cli_process_loads_no_libcrypto(tmp_path):
    # hashlib and numpy.random's hmac use CPython's own digests in a CLI process,
    # so OpenSSL's libcrypto is never mapped; test_cli_adds_only_mubest_modules
    # imports hashlib first and cannot see this
    out = str(tmp_path / "run.json")
    loaded = _fresh(
        "import mubest.cli, numpy.random\n"
        "numpy.random.default_rng(0).random()\n"
        f"assert mubest.cli.main(['simulate', '--M', '10', '--blocks', '2', '--out', {out!r}]) == 0\n"
        "try:\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        libcrypto = 'libcrypto' in fh.read()\n"
        "except OSError:\n"
        "    libcrypto = None\n"
        "print(json.dumps([sys.modules.get('_hashlib') is None, libcrypto]))")
    assert loaded[0] is True
    if loaded[1] is None:
        pytest.skip("no /proc/self/maps to read the mapped libraries from")
    assert loaded[1] is False


def test_cli_keeps_openssl_without_builtin_sha256():
    # on a Python built without CPython's own sha256, blocking OpenSSL would leave
    # hashlib with no sha256 and a logged traceback; the CLI keeps OpenSSL there
    pytest.importorskip("_hashlib")
    sha256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    result = _fresh(f"import io\nsys.modules[{sha256!r}] = None\nsys.stderr = io.StringIO()\n"
                    "import mubest.cli, hashlib\n"
                    "print(json.dumps([sys.modules.get('_hashlib') is not None,"
                    " hashlib.sha256(b'mubest').hexdigest(), sys.stderr.getvalue()]))")
    assert result == [True, hashlib.sha256(b"mubest").hexdigest(), ""]


def test_cli_process_digests_are_unchanged(tmp_path, monkeypatch):
    # the CLI process hashes with CPython's own sha256 and blake2b (the stream
    # keys), this test process through hashlib as imported above, with OpenSSL
    # where this Python has it: the report and every digest of its manifest agree
    argv = ["simulate", "--seed", "3", "--M", "100", "--blocks", "2", "--counts",
            "--out", "run.json"]
    cli_dir, in_process = tmp_path / "cli", tmp_path / "in_process"
    cli_dir.mkdir()
    in_process.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "MUBEST_OUTDIR"}
    env["PYTHONPATH"] = str(Path(mubest.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "mubest.cli", *argv], cwd=cli_dir, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    from mubest.cli import main
    monkeypatch.chdir(in_process)
    monkeypatch.delenv("MUBEST_OUTDIR", raising=False)
    assert main(argv) == 0
    manifests = [json.loads((d / "run.json.manifest.json").read_text()) for d in (cli_dir, in_process)]
    for manifest in manifests:
        del manifest["wall_time_s"]
    assert manifests[0] == manifests[1]
    manifest = manifests[0]
    assert sorted(manifest["output_sha256"]) == ["./run.json", "./run.json.blocks.csv"]
    for path, digest in manifest["output_sha256"].items():
        output = (cli_dir / path).read_bytes()
        assert output == (in_process / path).read_bytes()
        assert digest == hashlib.sha256(output).hexdigest()
    payload = json.dumps({k: manifest[k] for k in ("command", "parameters", "seed", "tool_version")},
                         sort_keys=True)
    assert manifest["manifest_hash"] == hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_default_design_adds_no_module():
    # the pinned orbit is read by np.load, which numpy has already loaded
    added = _fresh("import mubest.cli\nbefore = set(sys.modules)\n"
                   "assert mubest.cli.default_design().size == 960\n"
                   "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert added == []


def test_all_lists_the_exports():
    assert mubest.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(mubest.__all__) == 30


@pytest.mark.parametrize("layer", LAYERS)
def test_each_name_is_its_modules_attribute(layer):
    module = importlib.import_module(f"mubest.{layer}")
    for name in EXPORTS[layer]:
        assert getattr(mubest, name) is getattr(module, name)
        assert getattr(mubest, name) is getattr(module, name)  # cached in the package


def test_dir_lists_every_export():
    assert set(mubest.__all__) <= set(dir(mubest))


def test_star_import_binds_every_export():
    bound = _fresh("ns = {}\nexec('from mubest import *', ns)\n"
                   "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))")
    assert bound == sorted(mubest.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mubest.no_such_name
    with pytest.raises(ImportError):
        from mubest import no_such_name
