"""Check one round's outputs in a process of its own and print the verdict as JSON.

usage: python3 bench/verify.py WORKLOAD SEED DIR [DIR ...]

The checks load numpy and large outputs (the 6 MB Clifford group file).  They
run here rather than in run.py because on Linux a child's ru_maxrss
includes its parent's peak resident set: a large run.py process would hide
the program's own peak_rss_mb.
"""

import json
import sys
from pathlib import Path

import numpy as np

import checks
import oracle
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv):
    workload, seed, dirs = argv[0], int(argv[1]), argv[2:]
    ctx = checks.Context(SRC)
    failures = []  # [op index or -1, directory, message]
    dev = oracle.self_test(ctx.oracle)
    if dev > 1e-12:
        failures.append([-1, "", f"oracle misses the closed forms by {dev:.2e}"])
    for d in dirs:
        for i, op in enumerate(workloads.WORKLOADS[workload](seed)):
            try:
                op.run_check(ctx, Path(d))
            except checks.CheckFailed as exc:
                failures.append([i, d, str(exc)])
            except Exception as exc:  # a malformed output must not stop the other checks
                failures.append([i, d, f"{type(exc).__name__}: {exc}"])
    print(json.dumps({"failures": failures, "numpy": np.__version__,
                      "blas": blas_version()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
