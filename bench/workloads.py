"""The three workloads: mubest CLI command sequences and the checks on their outputs.

Each operation is one `mubest` command run in a fresh process, plus the check
of the files it wrote.  Sizes are keyword arguments so that the benchmark's
own tests can run the same sequences small.  This module imports no numpy:
run.py loads it, and its own memory must stay small (see verify.py).
"""

import math
from dataclasses import dataclass, field

HALF = math.pi / 2
SUBSET_TRIALS = 300  # resamples per size: enough that the falling-std check is seed-independent


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: str  # name of the function in checks.py that checks this command's outputs
    kwargs: dict = field(default_factory=dict)

    def run_check(self, ctx, outdir):
        """Raise checks.CheckFailed unless the outputs in outdir pass."""
        import checks

        getattr(checks, self.check)(ctx, outdir, **self.kwargs)


def sample(seed, m_block=10000, blocks=10):
    """The paper's full protocol run, then subset resampling at y = 0."""
    sizes = (240, 480, 720)
    size_args = ("--M", str(m_block), "--blocks", str(blocks))
    return [
        Op(("simulate", "--x", "pi/2", "--y", "pi/2", "--z", "pi/2", "--seed", str(seed),
            *size_args, "--counts", "--out", "run.json"),
           "check_sim_report",
           dict(name="run.json", params=(HALF, HALF, HALF), seed=seed, m_block=m_block,
                blocks=blocks, counts=True)),
        Op(("subsets", "--x", "pi/2", "--y", "0", "--z", "pi/2",
            "--sizes", ",".join(map(str, sizes)), "--trials", str(SUBSET_TRIALS),
            "--seed", str(seed), "--subset-seed", str(seed), *size_args,
            "--out", "subsets.csv"),
           "check_subsets",
           dict(name="subsets.csv", params=(HALF, 0.0, HALF), sizes=sizes, m_block=m_block,
                blocks=blocks)),
    ]


def sweep(seed, m_block=100, blocks=10):
    """One simulated three-copy curve: x = y = pi/2, z = 0 .. pi in steps of pi/8."""
    return [
        Op(("simulate", "--x", "pi/2", "--y", "pi/2", "--z", f"{i}pi/8",
            "--seed", str(seed), "--M", str(m_block), "--blocks", str(blocks),
            "--out", f"sweep_z{i}.json"),
           "check_sim_report",
           dict(name=f"sweep_z{i}.json", params=(HALF, HALF, i * math.pi / 8), seed=seed,
                m_block=m_block, blocks=blocks, counts=False))
        for i in range(9)
    ]


def exact(seed, n_unitaries=100):
    """The README's non-sampling commands, in README order."""
    ys = (HALF, 0.0)
    return [
        Op(("groups", "--which", "clifford", "--out", "clifford_group.json"),
           "check_group", dict(name="clifford_group.json", order=11520, seed=seed)),
        Op(("groups", "--which", "restricted", "--out", "restricted_group.json"),
           "check_group", dict(name="restricted_group.json", order=960, seed=seed,
                               supergroup="clifford_group.json")),
        Op(("design", "clifford", "--out", "clifford.json"),
           "check_design_file", dict(name="clifford.json", K=960)),
        Op(("design", "optimize", "--K", "200", "--seed", "0", "--target", "0.0287",
            "--out", "num200.json"),
           "check_design_file", dict(name="num200.json", K=200, phi4_max=0.0287)),
        Op(("fidelity", "--x", "pi/2", "--y-list", "pi/2,0", "--out", "curves.csv"),
           "check_curves", dict(name="curves.csv", y_values=ys)),
        Op(("fidelity", "--mode", "empirical", "--design", "num200.json",
            "--out", "curves_emp.csv"),
           "check_curves", dict(name="curves_emp.csv", y_values=ys,
                                design_file="num200.json")),
        Op(("fidelity", "--copies", "2", "--out", "pair.csv"),
           "check_two_copy", dict(name="pair.csv", y_values=ys)),
        Op(("equivalence", "--exact", "--phi-grid", "0:2pi:9", "--out", "phase.csv"),
           "check_phase_scan",
           dict(name="phase.csv", phis=[2 * math.pi * i / 8 for i in range(9)])),
        Op(("equivalence", "--exact", "--n-unitaries", str(n_unitaries),
            "--seed", str(seed), "--out", "haar.csv"),
           "check_haar_scan", dict(name="haar.csv")),
    ]


WORKLOADS = {"sample": sample, "sweep": sweep, "exact": exact}
