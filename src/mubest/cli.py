"""Command-line front end reproducing the theory tables and simulation runs.

Each command returns a `Run`, which `main` prints and, under --out, writes:
tabular output as CSV (12 significant digits, '#'-comment header) plus a
JSON run manifest adjacent to the outputs.  The manifest describes the run by
its parsed command line: every option as typed, and argv verbatim.
Angles accept plain radians or pi-fraction tokens like pi/2 or 3pi/8;
grids use start:stop:count.  Exit codes: 0 ok, 2 usage/I-O, 3 numerical
target not reached, 4 validation failure or an allocation the machine refuses.
"""

# Import order:
# - `_hashlib` is marked missing first, so hashlib (the manifests' sha256, the
#   stream keys' blake2b) and hmac (numpy.random imports it through secrets)
#   use CPython's own digests: the same bytes without OpenSSL's libcrypto, and
#   3.4 MB less peak RSS per command.  Only on a build with CPython's module for
#   every digest hashlib defines (else hashlib logs a traceback per missing
#   one), and never over an `_hashlib` already loaded.
# - Then every layer, before the rest of the standard library: bench/trace_cmd.py
#   wraps layer functions only in the modules `import mubest.cli` loads (a layer
#   imported per command would trace as 0 s), and with the standard library
#   first the exact workload took 3-4% more CPU time, with up to 1.6x the minor
#   page faults in one command.
import sys
from importlib.util import find_spec

_SHA2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
if all(find_spec(name) for name in ("_md5", "_sha1", *_SHA2, "_blake2", "_sha3")):
    sys.modules.setdefault("_hashlib", None)

from . import __version__
from .designs import (
    default_design,
    frame_potential,
    load_design,
    moment_operator,
    optimize_design,
    save_design,
)
from .errors import DesignFormatError, InfeasibleDesignError
from .estimation import fidelity_scan
from .groups import (
    clifford_group_2q,
    pauli_group_2q,
    restricted_clifford_group_2q,
    save_group,
)
from .mub import mub_triple
from .simulate import (
    STREAM_VERSION,
    SimConfig,
    check_subset_request,
    check_unitary_count,
    equivalence_scan_phase,
    equivalence_scan_random,
    random_subset_analysis,
    run_health,
    save_report,
    simulate_protocol,
)

import argparse
import hashlib
import json
import math
import os
import re
import time

import numpy as np

EXIT_OK = 0
EXIT_IO = 2
EXIT_TARGET = 3
EXIT_VALIDATION = 4

_ANGLE_RE = re.compile(r"^(?P<num>[+-]?[\d.]*)\s*pi\s*(?:/\s*(?P<den>[\d.]+))?$")


def parse_angle(token):
    """Radians, or a pi-fraction token like pi/2 or 3pi/8; the value must be finite."""
    text = token.strip().lower().replace("π", "pi")
    m = _ANGLE_RE.match(text)
    if m:
        num = m.group("num")
        num = -1.0 if num == "-" else 1.0 if num in ("", "+") else float(num)
        den = float(m.group("den")) if m.group("den") else 1.0
        if den == 0:
            raise ValueError(f"angle {token!r} has a zero denominator")
        value = num * math.pi / den
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"angle {token!r} is not finite")
    return value


def parse_angle_list(text):
    """Comma list of angles, or start:stop:count grid (endpoints inclusive)."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise ValueError(f"grid {text!r} is not start:stop:count")
        start, stop = parse_angle(fields[0]), parse_angle(fields[1])
        count = int(fields[2])
        if count < 1:
            raise ValueError(f"grid {text!r} has count {count} < 1")
        try:  # np.linspace's bits wherever its arithmetic stays finite
            with np.errstate(over="raise", invalid="raise"):
                return list(np.linspace(start, stop, count))
        except FloatingPointError:  # the span overflows; at a quarter scale no partial sum
            # passes 3/4 of the float range (at half scale -max:max:4 still overflows)
            grid = 4 * np.linspace(start / 4, stop / 4, count)
            grid[-1], grid[0] = stop, start  # quartering loses subnormal bits; 1 point: start
            return list(grid)
    return [parse_angle(tok) for tok in text.split(",")]


DEFAULT_Z_GRID = "0,pi/8,pi/4,3pi/8,pi/2,5pi/8,3pi/4,7pi/8,pi"


def _resolve(path):
    """A bare file name is looked up in MUBEST_OUTDIR; other paths are used as given."""
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(os.environ.get("MUBEST_OUTDIR", "."), path)


class Run:
    """What a command produced; `_finish` prints it and writes it to disk.

    `outputs` are (path, write) pairs: `write(path, digest)` writes one file,
    `digest` being the manifest digest that CSV headers carry.  `fields` are
    manifest entries outside the digest; `error` is (exit code, message).
    """

    __slots__ = ("lines", "outputs", "fields", "error")

    def __init__(self, lines, outputs=(), fields=None, error=None):
        self.lines = lines
        self.outputs = list(outputs)
        self.fields = {} if fields is None else fields
        self.error = error


def run_parameters(args):
    """Every option of a parsed command line, as typed, defaults included."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func")}


def manifest_digest(command, parameters, seed):
    """16 hex digits identifying a run's command, parameters, seed and tool version."""
    payload = json.dumps(
        {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "tool_version": __version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _csv(header_fields, columns, rows):
    """A `write` for Run.outputs: a CSV table under a '#'-comment header."""

    def write(path, digest):
        with open(path, "w") as fh:
            fh.write(f"# manifest={digest}\n")
            for k, v in header_fields.items():
                fh.write(f"# {k}={v}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(
                    ",".join(
                        "" if v is None else
                        f"{v:.12g}" if isinstance(v, float) else str(v)
                        for v in row
                    )
                    + "\n"
                )

    return write


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _finish(args, argv, run, t0):
    """Print `run`'s lines; under --out write its outputs and manifest; report its error.

    The digest covers the parsed options; `argv` is recorded verbatim beside it,
    with numpy's version and, for a run that samples, its stream version.
    """
    for line in run.lines:
        print(line)
    if args.out:
        parameters, seed = run_parameters(args), getattr(args, "seed", None)
        digest = manifest_digest(args.command, parameters, seed)
        paths = []
        for path, write in run.outputs:
            paths.append(_resolve(path))
            write(paths[-1], digest)
        manifest = {
            "command": args.command,
            "argv": argv,
            "parameters": parameters,
            "seed": seed,
            "output_paths": paths,
            "output_sha256": {path: _file_sha256(path) for path in paths},
            "tool_version": __version__,
            "numpy_version": np.__version__,
            "stream_version": None if _sim_config(args) is None else STREAM_VERSION,
            "manifest_hash": digest,
            **run.fields,
            "wall_time_s": round(time.time() - t0, 3),
        }
        with open(paths[0] + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1)
    if run.error:
        code, message = run.error
        print(f"error: {message}", file=sys.stderr)
        return code
    return EXIT_OK


def _load_or_build_design(source):
    if source == "clifford":
        return default_design()
    design = load_design(_resolve(source))
    if design.dim != 4:
        raise DesignFormatError(
            f"{source}: design has dim={design.dim}; the measurements act on dimension 4")
    return design


def _sim_config(args):
    """The run's sampling settings, or None for a run that samples nothing."""
    if not hasattr(args, "blocks") or getattr(args, "exact", False):
        return None
    return SimConfig(seed=args.seed, m_block=args.M, blocks=args.blocks)


# ---------------------------------------------------------------------------
# commands

def cmd_groups(args):
    group = {"pauli": pauli_group_2q, "clifford": clifford_group_2q,
             "restricted": restricted_clifford_group_2q}[args.which]()  # closures check orders
    return Run([f"order={len(group)}"], [(args.out, lambda path, digest: save_group(group, path))])


def cmd_design(args):
    optimize = args.subcommand == "optimize"  # only `design optimize` has its options
    design = (optimize_design(K=args.K, d=4, t=4, seed=args.seed, max_iters=args.iters,
                              target=args.target)
              if optimize else default_design())
    phi4 = frame_potential(design, design.t)  # both sources build t = 4 designs
    _, ratio = moment_operator(design, 4)
    # the optimizer's own verdict; without a target there is none to miss
    missed = optimize and args.target is not None and not design.metadata["reached_target"]
    health = {"phi4": phi4, "symmetric_ratio": ratio}
    if optimize:
        health.update(iterations=design.metadata["iterations"],
                      reached_target=design.metadata["reached_target"])
    return Run(
        [f"K={design.size} phi4={phi4:.10f} symmetric_ratio={ratio:.6f}"],
        [(args.out, lambda path, digest: save_design(design, path, phi_t=phi4))],
        {"health": health},
        error=(EXIT_TARGET, f"phi4={phi4:.10f} did not reach target {args.target}")
        if missed else None,
    )


def cmd_fidelity(args):
    x = parse_angle(args.x)
    y_values = parse_angle_list(args.y_list)
    z_values = parse_angle_list(args.z_list)
    design = _load_or_build_design(args.design)
    pairs = {"AB": (0, 1), "AC": (0, 2), "BC": (1, 2)}
    bases = (0, 1, 2) if args.copies == 3 else pairs[args.pair]
    rows = fidelity_scan(x, y_values, z_values, mode=args.mode, design=design, bases=bases)
    return Run(
        [f"x={x:.12g} y={y:.12g} z={z:.12g} F={f:.12g}" for _, y, z, f in rows],
        [(args.out, _csv({"mode": args.mode, "design": args.design, "copies": args.copies},
                         ["x", "y", "z", "F"], rows))],
    )


def cmd_simulate(args):
    x, y, z = parse_angle(args.x), parse_angle(args.y), parse_angle(args.z)
    cfg = _sim_config(args)
    design = _load_or_build_design(args.design)
    spill = None  # only a written report reads the counts
    if args.counts and args.out:
        import tempfile  # here: at module level it adds 15 modules to every command's start
        # the counts' report text, written as each chunk is drawn; a missing
        # directory fails here, before any state is sampled
        spill = tempfile.TemporaryFile("w+", dir=os.path.dirname(_resolve(args.out)))
    try:
        report = simulate_protocol(mub_triple(x, y, z), design, cfg, mode=args.mode,
                                   counts_text=spill)
    except BaseException:
        if spill is not None:
            spill.close()
        raise

    def write_report(path, digest):
        try:
            save_report(report, path)
        finally:
            if spill is not None:
                spill.close()

    return Run(
        [f"F = {report.mean_fidelity:.6f} +- {report.std_of_mean:.6f}"
         f" (block std {report.std:.6f})"],
        [(args.out, write_report),
         (f"{args.out}.blocks.csv",
          _csv({"x": x, "y": y, "z": z}, ["block", "fidelity"],
               [(b, float(f)) for b, f in enumerate(report.per_block_fidelities)]))],
        {"health": run_health(report)},
    )


def cmd_equivalence(args):
    grid = parse_angle_list(args.phi_grid) if args.phi_grid is not None else None
    if grid is None:
        check_unitary_count(args.n_unitaries)
    cfg = _sim_config(args)
    base = mub_triple(math.pi / 2, math.pi / 2, math.pi / 2)
    design = _load_or_build_design(args.design)
    if grid is not None:
        rows = equivalence_scan_phase(grid, base, design, cfg, mode=args.mode)
        lines = [f"phi={phi:.12g} exact={exact:.12g}"
                 + ("" if sim is None else f" simulated={sim:.6f} std={std:.6f}")
                 for phi, exact, sim, std in rows]
        write = _csv({"mode": args.mode, "design": args.design},
                     ["phi", "exact_F", "simulated_F", "std"], rows)
    else:
        exact_s, sim_s = equivalence_scan_random(
            args.n_unitaries, base, design, cfg, mode=args.mode,
            unitary_seed=args.seed,
        )
        rows = [(kind, *s) for kind, s in (("exact", exact_s), ("simulated", sim_s))
                if s is not None]
        lines = [f"{kind}: max={mx:.6f} min={mn:.6f} avg={avg:.6f}"
                 f" std={std:.6f} max_dev={dev:.6f}"
                 for kind, mx, mn, avg, std, dev in rows]
        write = _csv(
            {"n_unitaries": args.n_unitaries, "mode": args.mode, "design": args.design},
            ["kind", "maximal", "minimal", "average", "std", "max_deviation"],
            rows,
        )
    return Run(lines, [(args.out, write)])


def cmd_subsets(args):
    x, y, z = parse_angle(args.x), parse_angle(args.y), parse_angle(args.z)
    sizes = [int(s) for s in args.sizes.split(",")]
    cfg = _sim_config(args)
    design = _load_or_build_design(args.design)
    check_subset_request(sizes, args.trials, design.size)
    report = simulate_protocol(mub_triple(x, y, z), design, cfg)
    results = random_subset_analysis(
        report, sizes, trials=args.trials, seed=args.subset_seed
    )
    rows = [(size, mean, std) for size, (mean, std, _) in results.items()]
    health = [{"K": size, "std": std, "predicted_std": predicted}
              for size, (_, std, predicted) in results.items()]
    return Run(
        [f"K={size} mean={mean:.6f} std={std:.6f}" for size, mean, std in rows],
        [(args.out, _csv({"x": x, "y": y, "z": z, "trials": args.trials},
                         ["K", "mean", "std"], rows))],
        {"health": {"subsets": health}},
    )


def _add_estimator_options(parser):
    """The options every command that scores a design reads as `fidelities` does."""
    parser.add_argument("--design", default="clifford",
                        help="design file path or 'clifford': the states scored")
    parser.add_argument("--mode", choices=["ideal", "empirical"], default="ideal",
                        help="which Q gives the estimators: the Clifford orbit's or the design's")


def _add_sampling_options(parser):
    """The options a sampling command builds its SimConfig from (`_sim_config`)."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--M", type=int, default=10000, help="repetitions per block")
    parser.add_argument("--blocks", type=int, default=10)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mubest",
        description="Three-copy MUB estimation fidelities: designs, exact theory, "
                    "and seeded Monte-Carlo simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("groups", help="generate Pauli/Clifford/restricted groups")
    p.add_argument("--which", choices=["pauli", "clifford", "restricted"],
                   required=True)
    p.add_argument("--out", help="write serialized group matrices (JSON)")
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("design", help="build a 4-design (Clifford orbit or numerical)")
    kinds = p.add_subparsers(dest="subcommand", required=True)
    kinds.add_parser("clifford", help="the 960-state restricted-Clifford orbit")
    kind = kinds.add_parser("optimize", help="minimize phi_4 from a random start")
    kind.add_argument("--K", type=int, default=200, help="number of states")
    kind.add_argument("--seed", type=int, default=0, help="optimizer's random start")
    kind.add_argument("--iters", type=int, default=100000, help="max iterations")
    kind.add_argument("--target", type=float, default=None,
                      help="stop when phi_4 reaches this value")
    for kind in kinds.choices.values():
        kind.add_argument("--out", help="design file path (.json or .csv)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("fidelity", help="exact estimation-fidelity scan")
    p.add_argument("--x", default="pi/2")
    p.add_argument("--y-list", default="pi/2,0")
    p.add_argument("--z-list", default=DEFAULT_Z_GRID)
    _add_estimator_options(p)
    p.add_argument("--copies", type=int, choices=[2, 3], default=3)
    p.add_argument("--pair", choices=["AB", "AC", "BC"], default="AB",
                   help="measurement pair for --copies 2")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo protocol run")
    p.add_argument("--x", default="pi/2")
    p.add_argument("--y", default="pi/2")
    p.add_argument("--z", default="pi/2")
    _add_estimator_options(p)
    _add_sampling_options(p)
    p.add_argument("--counts", action="store_true",
                   help="include the full outcome count table in the report")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equivalence",
                       help="controlled-phase / random-unitary equivalence scans")
    _add_estimator_options(p)
    p.add_argument("--exact", action="store_true", help="skip simulation")
    p.add_argument("--phi-grid", help="phase grid start:stop:count")
    p.add_argument("--n-unitaries", type=int, default=100)
    _add_sampling_options(p)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("subsets", help="random-subset resampling of a simulated run")
    p.add_argument("--x", default="pi/2")
    p.add_argument("--y", default="pi/2")
    p.add_argument("--z", default="pi/2")
    p.add_argument("--design", default="clifford")
    p.add_argument("--sizes", default="240,480,720")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--subset-seed", type=int, default=0)
    _add_sampling_options(p)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_subsets)
    return parser


def main(argv=None):
    t0 = time.time()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        # numpy's message and exit code, before any design is built or state sampled
        if min(getattr(args, name, 0) for name in ("seed", "subset_seed")) < 0:
            raise ValueError("expected non-negative integer")
        return _finish(args, argv, args.func(args), t0)
    except (OSError, DesignFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InfeasibleDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TARGET
    except (ValueError, MemoryError) as exc:  # MemoryError: numpy's "Unable to allocate"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
