#!/usr/bin/env python3
"""mubest benchmark: run a workload's CLI commands, check their outputs, print metrics.

usage: python3 bench/run.py --workload {sample,sweep,exact} --seed N --seconds S --trace {0,1}

One client in a closed loop: each command is a fresh `python -m mubest.cli`
process, started after the previous one exits.  Whole rounds of the
workload's command sequence run until --seconds have passed (at least one
round, and none that could not end within TIME_LIMIT_S); every round starts
in an empty directory under .bench_runs/ that also serves as HOME,
XDG_CACHE_HOME and MUBEST_OUTDIR.  After each round a separate process
checks the outputs (verify.py).  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 each command also runs once
more under trace_cmd.py and the line holds the per-layer metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# BLAS threads for this process and every child: one client on a small shared
# machine; the program's matrices are at most 960 x 256, where extra BLAS
# threads only add spin-wait noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PER_ROUND = 5  # set-up processes timed before each round
TIME_LIMIT_S = 170.0  # a run must end within 180 s

SETUP_CODE = (
    "from mubest import clifford_design, restricted_clifford_group_2q\n"
    "design = clifford_design(restricted_clifford_group_2q())\n"
    "raise SystemExit(0 if design.size == 960 else 1)\n"
)


class Child:
    """Runs processes with the benchmark's environment; kills any past the deadline."""

    def __init__(self, deadline):
        self.deadline = deadline

    def run(self, argv, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(workdir),
                   XDG_CACHE_HOME=str(workdir / ".cache"), MUBEST_OUTDIR=str(workdir))
        with open(workdir / "stderr.log", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}


def run_round(child, ops, rdir, trace):
    """One pass over the workload's commands; with trace, each is also run traced."""
    plain, traced = rdir / "plain", rdir / "traced"
    records = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        rec = {"plain": child.run(["-m", "mubest.cli", *op.argv], plain)}
        if trace:
            spans = traced / f"spans{i}.json"
            rec["traced"] = child.run([str(HERE / "trace_cmd.py"), str(spans), *op.argv],
                                      traced)
            if rec["traced"]["rc"] == 0:
                with open(spans) as fh:
                    rec["spans"] = json.load(fh)["spans"]
        records.append(rec)
    wall = time.perf_counter() - t0
    return wall, records


def check_round(workload, seed, ops, rdir, records, trace, deadline):
    """(attempted, failed, check failures, verify.py report) for one round.

    An operation fails on a non-zero exit or a failed check of its outputs.
    """
    kinds = ("plain", "traced") if trace else ("plain",)
    argv = [sys.executable, str(HERE / "verify.py"), workload, str(seed),
            *(str(rdir / k) for k in kinds)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=rdir,
                              timeout=max(1.0, deadline - time.perf_counter()))
        report = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        report = {"failures": [[-1, "", f"verify.py gave no verdict: {exc!r}"]]}
    by_op = {(i, Path(d).name): msg for i, d, msg in report["failures"]}
    bad_checks = [msg for i, _, msg in report["failures"] if i < 0]
    attempted, failed = 0, 0
    for i, (op, rec) in enumerate(zip(ops, records)):
        for kind in kinds:
            attempted += 1
            command = f"{kind} mubest {' '.join(op.argv)}"
            rc, msg = rec[kind]["rc"], by_op.get((i, kind))
            if rc != 0:
                print(f"bench: exit {rc} from {command}", file=sys.stderr)
            if msg is not None:  # a wrong or missing output counts whatever the exit code
                bad_checks.append(f"{command}: {msg}")
            if rc != 0 or msg is not None:
                failed += 1
    return attempted, failed, bad_checks, report


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(records):
    """Per-layer metrics of one traced round (see README for what each moves)."""
    total = defaultdict(float)
    per_call = defaultdict(list)
    moment_cold, moment_warm = 0.0, []
    sampling, draws, streams, iters = 0.0, 0, 0, 0
    self_s, overhead = 0.0, 0.0
    for rec in records:
        spans = rec["spans"]
        covered, moments = 0.0, []
        for s in spans:
            dur = s["end"] - s["start"]
            total[s["name"]] += dur
            if s["parent"] is None:
                covered += dur
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
            if s["name"] == "designs.moment":
                moments.append(dur)
            elif s["name"] == "estimation.triple":
                per_call[s["mode"]].append(dur)
            elif s["name"] == "estimation.fidelity" and s["copies"] == 2:
                per_call["two_copy"].append(dur)
            elif s["name"] == "simulate.protocol":
                sampling += dur
                draws += s["draws"]
                streams += s["streams"]
            elif s["name"] == "simulate.tables" and parent == "simulate.protocol":
                sampling -= dur
            elif s["name"] == "designs.optimize":
                iters += s["iterations"]
        if moments:
            moment_cold += moments[0]
            moment_warm += moments[1:]
        self_s += rec["plain"]["wall"] - covered
        overhead += rec["traced"]["wall"] - rec["plain"]["wall"]
    return {
        "groups.clifford_s": total["groups.clifford"],
        "groups.save_s": total["groups.save"],
        "groups.restricted_s": total["groups.restricted"],
        "designs.orbit_s": total["designs.orbit"],
        "designs.moment_s": moment_cold,
        "designs.moment_warm_ms": 1e3 * median(moment_warm),
        "designs.frame_s": total["designs.frame"],
        "designs.optimize_s": total["designs.optimize"],
        "designs.optimize_iters": iters,
        "designs.io_s": total["designs.io"],
        "mub.build_s": total["mub.build"],
        "estimation.ideal_ms": 1e3 * median(per_call["ideal"]),
        "estimation.empirical_ms": 1e3 * median(per_call["empirical"]),
        "estimation.two_copy_ms": 1e3 * median(per_call["two_copy"]),
        "simulate.tables_s": total["simulate.tables"],
        "simulate.protocol_s": total["simulate.protocol"],
        "simulate.draws_per_s": draws / sampling if sampling > 0 else 0.0,
        "simulate.substreams_per_s": streams / sampling if sampling > 0 else 0.0,
        "simulate.subsets_s": total["simulate.subsets"],
        "simulate.equivalence_s": total["simulate.equivalence"],
        "cli.self_s": self_s,
        "bench.trace_overhead_s": overhead,
    }


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_per_s": "1/s", "_iters": "count"}


def unit_of(name):
    return next(u for suffix, u in sorted(UNITS.items(), key=lambda kv: -len(kv[0]))
                if name.endswith(suffix))


def machine_info():
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "blas_threads": int(BLAS_THREADS), "src_lines": src_lines}


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= TIME_LIMIT_S / 2:
        parser.error(f"--seconds must be in (0, {TIME_LIMIT_S / 2:g}]: a run must end within"
                     f" {TIME_LIMIT_S:g} s, and its last round starts before --seconds end")
    if not (SRC / "mubest" / "cli.py").is_file():
        print(f"bench: no mubest sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    seed = args.seed % 2**32
    ops = workloads.WORKLOADS[args.workload](seed)
    deadline = started + TIME_LIMIT_S
    child = Child(deadline)
    run_dir = RUNS / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    def set_up(n):
        """Wall times of n fresh set-up processes (import plus default design)."""
        walls = []
        for _ in range(n):
            rec = child.run(["-c", SETUP_CODE], run_dir / "setup")
            if rec["rc"] != 0:
                raise SystemExit(f"bench: set-up process exited {rec['rc']}")
            walls.append(rec["wall"])
        return walls

    setup = []
    set_up(1)  # the first start compiles bytecode; it is not timed
    rounds, attempted, failed, bad_checks = [], 0, 0, []
    measuring = time.perf_counter()
    longest = 0.0  # the longest round so far, with its set-up and checks
    while True:
        round_start = time.perf_counter()
        if not args.trace:
            setup += set_up(SETUP_PER_ROUND)
        rdir = run_dir / f"round{len(rounds)}"
        wall, records = run_round(child, ops, rdir, args.trace)
        a, f, bad, versions = check_round(args.workload, seed, ops, rdir, records,
                                          args.trace, deadline)
        attempted, failed, bad_checks = attempted + a, failed + f, bad_checks + bad
        rounds.append((wall, records))
        if not (f or bad):
            shutil.rmtree(rdir)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - measuring >= args.seconds:
            break
        if now + 1.25 * longest > deadline:  # another round could be killed mid-way
            print(f"bench: stopped after {len(rounds)} rounds, {now - measuring:.1f} s,"
                  f" to end within {TIME_LIMIT_S:g} s", file=sys.stderr)
            break

    if args.trace:
        per_round = [layer_metrics([r for r in recs if "spans" in r])
                     for _, recs in rounds]
        metrics = {k: median([m[k] for m in per_round]) for k in per_round[0]}
    else:
        metrics = {
            "wall_s": median([wall for wall, _ in rounds]),
            "cpu_s": median([sum(r["plain"]["cpu"] for r in recs) for _, recs in rounds]),
            "peak_rss_mb": median([max(r["plain"]["rss_mb"] for r in recs)
                                   for _, recs in rounds]),
            "setup_s": median(setup),
        }
    for msg in bad_checks:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    if failed or bad_checks:
        print(f"bench: outputs of failed rounds kept under {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass  # other runs still use it
    op_wall_s = [round(median([recs[i]["plain"]["wall"] for _, recs in rounds]), 4)
                 for i in range(len(ops))]
    info = dict(machine_info(), numpy=versions.get("numpy"), blas=versions.get("blas"),
                workload=args.workload, seed=seed, rounds=len(rounds),
                op_wall_s=op_wall_s, run_s=round(time.perf_counter() - started, 3))
    print("bench: " + json.dumps(info))
    print(json.dumps({
        "correct": not bad_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
