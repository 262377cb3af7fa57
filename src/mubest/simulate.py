"""Seeded Monte-Carlo emulation of the three-copy estimation protocol.

For every design state the three measurements are sampled independently, the
optimal estimator for the joint outcome is looked up, and tr(rho rhohat) is
averaged over states and repetitions.  Estimators always come from the
triple's own bases, so a unitarily transformed triple is scored correctly.
`estimation.estimator_tables`, which reaches Q's densities as `fidelities`
does, gives the lookup table f[k, o] = <psi_k| rhohat_o |psi_k> for three
copies and two-copy reprocessing alike.  A `SimReport` holds a run's design,
mode, measurements (the bases) and table, its count table or its counts' report
text when either was kept, and the statistics of its (K, blocks) scores
S[k, b] = sum_o n[k, b, o] f[k, o]: the per-block and per-state fidelities are
S's two marginals.  `_scores` is the one contraction that gives S, from the
sampler's chunks and from a whole table alike, so the two cannot disagree.
`run_health` and `reprocess_two_copy` read the same fields, so they always use
the run's own estimators.  `save_report` writes a report's file, with its
counts whenever the run kept them.

Memory after the draws.  A sampled command holds the estimator table, the
(K, blocks) scores and the (K,) per-state fidelities.  Each chunk of
`_STATE_CHUNK` states is scored as soon as it is drawn and then handed to at
most one sink: the kept (K, blocks, 64) count table, which only the library's
`keep_counts=True` (two-copy reprocessing, the tests) allocates, or the report's
counts formatter, which `simulate --counts --out` points at a temporary file
that `save_report` copies.  So no command holds more than one chunk's counts.
Scoring a whole table makes no float copy of it: einsum casts the integer
counts in its buffered iterator.  `run_health` contracts the per-basis Born
probabilities with the table one basis and `_STATE_CHUNK` states at a time.

Count dtype.  No cell of a (K, blocks, 64) count table can exceed M, so
`simulate_protocol` allocates a kept table as np.min_scalar_type(M): uint8 up to
M = 255, uint16 up to 65535 (the paper's M = 10^4), uint32 beyond.  Two-copy
marginals keep that dtype, being bounded by M too; sums over blocks are sums of
the float scores, so none can wrap.  Files written from the table are the same
whatever its dtype.

Sampling (stream version 2).  The counts are drawn from
`mub.born_probabilities`, the one Born function that also gives Q its weights
and `run_health` its exact F.  The three measurements act on separate copies,
so a state's joint counts factor into three steps: n_A ~ Multinomial(M, p_A);
each A cell splits by Multinomial(n_a, p_B); each AB cell splits by
Multinomial(n_ab, p_C).  Each step is one broadcast `Generator.multinomial`
call over a chunk of `_STATE_CHUNK` states and all blocks.  Role r (0=A, 1=B,
2=C) has one generator,
``PCG64(SeedSequence(seed, spawn_key=(_COUNTS_STREAM, r, param_key)))``,
consumed in state order, so the counts do not depend on the chunk size.
numpy does not promise to keep `multinomial`'s stream across releases, so the
CLI records the numpy version next to the stream version.

`_param_key` hashes the triple's angles (x, y, z), not its bases, on purpose:
triples with equal angles, including unitarily or controlled-phase transformed
ones, use the same streams, which gives common random numbers across an
equivalence scan.  The keys of roles A and B depend only on their own angles
(none for A, x for B), so triples sharing those bases share those outcomes:
the same A and AB counts.
"""

import hashlib
import itertools
import json
import math

import numpy as np

from .errors import ReadOnlyRecord
from .estimation import estimator_tables, fidelities
from .mub import born_probabilities, controlled_phase, haar_random_unitary, transform_triple

_STATE_CHUNK = 32  # states sampled together
_COUNTS_STREAM = 2  # spawn-key prefix of the sampler's streams
STREAM_VERSION = 2  # what the CLI records for a run that samples
_WRITE_ENTRIES = 1 << 11  # counts formatted together by _counts_writer


class SimConfig(ReadOnlyRecord):
    __slots__ = ("seed", "m_block", "blocks")

    def __init__(self, seed, m_block=10000, blocks=10):
        # the sampler splits int64 counts, so M stops at the largest int64
        for value, low, high, message in (
                (seed, 0, math.inf, "expected non-negative integer"),
                (m_block, 1, 2**63 - 1, "m_block must be an integer from 1 to 2**63 - 1"),
                (blocks, 2, math.inf, "blocks must be >= 2 for a std, and an integer")):
            # bool is an int; a float or bool M would pick the count table's dtype
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or not low <= value <= high):
                raise ValueError(message)
        self._set(seed=seed, m_block=m_block, blocks=blocks)

    def __eq__(self, other):  # a value: its fields are ints
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())


class SimReport:
    """A sampled run: the table it was scored with, the statistics of its
    scores, and its count table or its counts' report text when one was kept.

    `scores` is the (K, blocks) table S[k, b] = sum_o n[k, b, o] f[k, o];
    without it, `_scores` takes S from `counts`, so a report built from a
    whole table has the bits of the sampler's.  The per-block F is S summed
    over states over K M; the (K,) per-state F is S summed over blocks over M B.
    """

    __slots__ = ("config", "triple", "design", "mode", "measurements", "f_table", "counts",
                 "counts_text", "per_state_fidelity", "per_block_fidelities",
                 "mean_fidelity", "std")

    def __init__(self, config, triple, design, mode, measurements, f_table, counts,
                 scores=None, counts_text=None):
        self.config = config  # the SimConfig
        self.triple = triple  # the MubTriple the run was sampled and scored with
        self.design = design  # the sampled StateDesign
        self.mode = mode  # which Q defined the estimators
        self.measurements = measurements  # the bases whose joint outcomes were counted
        self.f_table = f_table  # (K, n_outcomes) tr(rho rhohat) the counts were scored with
        # (K, blocks, n_outcomes) joint outcome counts, min_scalar_type(M), or None
        self.counts = counts
        self.counts_text = counts_text  # a file holding the counts' report text, or None
        if scores is None:
            scores = _scores(counts, f_table)
        self.per_state_fidelity = scores.sum(axis=1) / (config.m_block * config.blocks)
        per_block = scores.sum(axis=0) / (len(scores) * config.m_block)
        self.per_block_fidelities = per_block
        self.mean_fidelity = float(per_block.mean())
        self.std = float(per_block.std(ddof=1))  # standard deviation over blocks

    @property
    def std_of_mean(self):
        return self.std / math.sqrt(self.config.blocks)


def save_report(report, path):
    """Write a run's report: json.dump of its settings and statistics, indent=1,
    with a last "counts" key when the run kept its counts.

    A kept count table goes through `_counts_writer`, as the sampler's chunks
    do when they stream into `counts_text`; that file's text is copied as it
    stands.  Either way the counts block bypasses json's pure-Python encoder,
    and no temporary grows with M or with the whole table.
    """
    cfg = report.config
    text = json.dumps({
        "seed": cfg.seed, "m_block": cfg.m_block, "blocks": cfg.blocks,
        "share_ab_outcomes": True,  # roles A and B are keyed by their own angles
        "sampler": "counts",  # the stream that filled `counts`
        "triple_params": [report.triple.x, report.triple.y, report.triple.z],
        "mean_fidelity": report.mean_fidelity,
        "per_block_fidelities": report.per_block_fidelities.tolist(),
        "std": report.std,
    }, indent=1)
    counts, spill = report.counts, report.counts_text
    with open(path, "w") as fh:
        if counts is None and spill is None:
            fh.write(text)
            return
        fh.write(text[:-2] + ',\n "counts": [')
        if counts is not None:
            _counts_writer(fh, *counts.shape[1:])(slice(0, len(counts)), counts)
        else:
            spill.seek(0)
            for piece in iter(lambda: spill.read(1 << 16), ""):
                fh.write(piece)
        fh.write("\n ]\n}")


def _counts_writer(fh, blocks, outcomes):
    """The sink `write(rows, counts)` that writes to `fh` the report's text of
    the (states, blocks, outcomes) counts of the run's states at `rows`, a slice.

    A chunk is written a run of whole states at a time, about `_WRITE_ENTRIES`
    counts: the run's ints fill a fixed template of `%d` fields in one
    formatting pass, which gives json's text for each int.  Every state but
    the run's first follows a comma, so any split of the table writes the
    same text.
    """
    block = "   [\n    " + ",\n    ".join(["%d"] * outcomes) + "\n   ]"
    state = "\n  [\n" + ",\n".join([block] * blocks) + "\n  ]"
    step = max(1, _WRITE_ENTRIES // (blocks * outcomes))

    def write(rows, counts):
        for start in range(0, len(counts), step):
            run = counts[start:start + step]
            template = ",".join([state] * len(run))
            fh.write(("," if rows.start + start else "") + template % tuple(run.ravel().tolist()))

    return write


def _param_key(role, triple):
    # angles only, by design: see the module docstring
    params = {0: (), 1: (triple.x,), 2: (triple.y, triple.z)}[role]
    # + 0.0 turns -0.0 into 0.0: equal angles, one stream
    raw = b"".join(np.float64(round(p, 12) + 0.0).tobytes() for p in params)
    return int.from_bytes(hashlib.blake2b(raw, digest_size=4).digest(), "big")


def simulate_protocol(triple, design, cfg, mode="ideal", keep_counts=False, counts_text=None):
    """Run the sampled three-copy protocol and average per Eq.-(6)-style weights.

    Returns per-block and overall estimation fidelities.  Each chunk of states
    is scored as soon as it is drawn.  With `keep_counts`, the chunks fill the
    (K, blocks, 64) joint outcome count table that two-copy reprocessing
    reads.  With `counts_text`, a text file open for writing and reading, they
    are written into it as the report's counts block, for `save_report` to
    copy; the run then holds one chunk's counts at a time.  A run keeps its
    counts one way or not at all.
    """
    if keep_counts and counts_text is not None:
        raise ValueError("keep_counts and counts_text both keep the counts: pass one")
    measurements = triple.bases
    f_table = estimator_tables(measurements, design, mode)
    probs = [born_probabilities(b, design.states) for b in measurements]
    param_keys = [_param_key(role, triple) for role in range(3)]
    counts, sink = None, None
    if keep_counts:
        counts = np.empty((design.size, cfg.blocks, 64), dtype=np.min_scalar_type(cfg.m_block))
        sink = counts.__setitem__
    elif counts_text is not None:
        sink = _counts_writer(counts_text, cfg.blocks, 64)
    scores = _multinomial_counts(probs, param_keys, cfg, f_table, sink)
    return SimReport(cfg, triple, design, mode, measurements, f_table, counts, scores,
                     counts_text)


def _multinomial_counts(probs, param_keys, cfg, f_table, sink):
    """Draw the counts from three chained multinomials (stream version 2) and score them.

    Returns the (K, B) `_scores` of the (K, B, 64) counts, one chunk of
    `_STATE_CHUNK` states scored as soon as it is drawn; `sink`, unless None,
    is then called with the chunk's rows (a slice of the K states) and counts.
    """
    K, B = len(f_table), cfg.blocks
    scores = np.empty((K, B))
    generators = [
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(cfg.seed, spawn_key=(_COUNTS_STREAM, role, key))
        ))
        for role, key in enumerate(param_keys)
    ]
    for start in range(0, K, _STATE_CHUNK):
        chunk = slice(start, min(start + _STATE_CHUNK, K))
        n = np.full((chunk.stop - start, B), cfg.m_block, dtype=np.int64)
        for generator, p in zip(generators, probs):
            # each cell counted so far splits over this role's four outcomes
            pvals = p[chunk].reshape((-1,) + (1,) * (n.ndim - 1) + (4,))
            n = generator.multinomial(n, pvals)
        n = n.reshape(-1, B, 64)
        scores[chunk] = _scores(n, f_table[chunk])
        if sink is not None:
            sink(chunk, n)
    return scores


def _scores(counts, f_table):
    """(K, blocks) scores S[k, b] = sum_o n[k, b, o] f[k, o] of any number of states.

    Each score is one row's sum over outcomes, so a chunk of states and a
    whole table give the same bits.
    """
    return np.einsum("kbo,ko->kb", counts, f_table)


def run_health(report):
    """How far a run's mean lies from the exact F, in predicted standard deviations.

    The exact F is the infinite-M limit of the run: its own table weighted by
    the exact Born probabilities of its measurements on its design.  One
    shot's variance per state follows from the same weights, one block's
    variance is sum_k var_k / (K^2 M), and the mean averages B blocks.  A std
    estimated from a few blocks is itself noisy, so this is the yardstick for
    z = (F_sim - F_exact) / sigma.

    Both per-state moments, of the table and of its square, are taken
    `_STATE_CHUNK` states at a time, summing out one basis's outcomes per
    batched (n, rest, d) @ (n, d, 1) product, last basis first: no joint-weight
    table and nothing of the table's size is formed.
    """
    cfg, K, d = report.config, report.design.size, report.design.dim
    probs = [born_probabilities(b, report.design.states) for b in report.measurements]
    moments = np.empty((K, 2))
    for start in range(0, K, _STATE_CHUNK):
        rows = slice(start, start + _STATE_CHUNK)
        f = report.f_table[rows]
        table = np.stack([f, f * f], axis=1)
        for p in reversed(probs):
            table = table.reshape(len(table), -1, d) @ p[rows, :, None]
        moments[rows] = table.reshape(-1, 2)
    mean, second = moments.T
    exact = float(mean.sum() / K)
    sigma = math.sqrt(max(float((second - mean**2).sum()), 0.0)
                      / (K**2 * cfg.m_block * cfg.blocks))
    return {
        "exact_fidelity": exact,
        "predicted_std_of_mean": sigma,
        "z": (report.mean_fidelity - exact) / sigma if sigma > 0 else 0.0,
    }


def reprocess_two_copy(report, pair):
    """Two-copy estimation fidelity from an existing three-copy run's count table.

    `pair` selects two of the three measurements by index (0=A, 1=B, 2=C);
    counts are marginalized over the third measurement, then scored against
    the two-copy optimal estimators from Q on the chosen product effects, in
    the run's own design and mode.
    """
    if report.counts is None:
        raise ValueError("the run kept no count table: simulate it with keep_counts=True")
    i1, i2 = pair
    if len(report.measurements) != 3 or not (0 <= i1 < i2 <= 2):
        raise ValueError("pair must be two distinct measurement indices of a "
                         "three-copy run, in order")
    measurements = (report.measurements[i1], report.measurements[i2])
    design, cfg = report.design, report.config
    f_table = estimator_tables(measurements, design, report.mode)
    counts3 = report.counts.reshape(design.size, cfg.blocks, 4, 4, 4)
    drop_axis = ({0, 1, 2} - {i1, i2}).pop()
    counts2 = counts3.sum(axis=2 + drop_axis, dtype=report.counts.dtype)
    counts2 = counts2.reshape(design.size, cfg.blocks, 16)
    return SimReport(cfg, report.triple, design, report.mode, measurements, f_table, counts2)


def equivalence_scan_phase(phi_grid, base_triple, design, cfg=None, mode="ideal"):
    """Controlled-phase family: exact (and optionally simulated) F for each phase.

    Returns rows (phi, exact_F, simulated_F or None, std or None).  exact_F is
    `fidelities` over `design` in `mode`, the infinite-M limit of the row's
    sampled run (its `run_health` exact F): the same states and estimators.
    """
    triples = [transform_triple(base_triple, controlled_phase(phi)) for phi in phi_grid]
    exact = fidelities((t.bases for t in triples), mode, design)
    rows = []
    for phi, triple, f in zip(phi_grid, triples, exact):
        if cfg is not None:
            rep = simulate_protocol(triple, design, cfg, mode)
            rows.append((phi, f, rep.mean_fidelity, rep.std_of_mean))
        else:
            rows.append((phi, f, None, None))
    return rows


def _summary(values, reference):
    """(maximal, minimal, average, std, max_deviation) of the values, the CSV's columns."""
    values = np.asarray(values, dtype=float)
    return (float(values.max()), float(values.min()), float(values.mean()),
            float(values.std(ddof=1)), float(np.max(np.abs(values - reference))))


def equivalence_scan_random(n_unitaries, base_triple, design, cfg=None, mode="ideal",
                            unitary_seed=0):
    """Haar-random unitary transformations of the triple; Table-style statistics.

    Returns (exact_summary, simulated_summary or None), each the tuple
    (maximal, minimal, average, std, max_deviation); deviations are with
    respect to the untransformed triple's exact fidelity over the same design
    in the same mode; over a design that is not a 4-design, F moves with the unitary.
    The untransformed and the transformed triples' exact values come from one
    Q pass, which reads the transformed triples as they are generated; none
    is stored, and a simulated scan draws the same unitaries again from the
    seed.
    """
    check_unitary_count(n_unitaries)

    def transformed():
        rng = np.random.default_rng(unitary_seed)
        for _ in range(n_unitaries):
            yield transform_triple(base_triple, haar_random_unitary(design.dim, rng))

    reference, *exact_vals = fidelities(
        (t.bases for t in itertools.chain([base_triple], transformed())), mode, design)
    exact_summary = _summary(exact_vals, reference)
    if cfg is None:
        return exact_summary, None
    sim_vals = [simulate_protocol(t, design, cfg, mode).mean_fidelity for t in transformed()]
    return exact_summary, _summary(sim_vals, reference)


def check_unitary_count(n_unitaries):
    """ValueError unless n_unitaries >= 2, the fewest values that give a std."""
    if n_unitaries < 2:
        raise ValueError("n_unitaries must be >= 2 for a std")


def check_subset_request(subset_sizes, trials, K):
    """ValueError unless trials >= 2 (for a std) and the sizes are distinct, in 1..K."""
    if trials < 2:
        raise ValueError(f"trials must be >= 2 for a std, got {trials}")
    if len(set(subset_sizes)) != len(subset_sizes):
        raise ValueError(f"subset sizes repeat: {list(subset_sizes)}")
    for size in subset_sizes:
        if not 1 <= size <= K:
            raise ValueError(f"subset size {size} out of range 1..{K}")


def predicted_subset_std(per_state_fidelity, size):
    """Predicted std of the mean of `size` of the K values, drawn without replacement.

    sigma * sqrt((K - n) / (n (K - 1))) with sigma the population std (ddof 0)
    of the values: the finite-population correction (Cochran, Sampling
    Techniques, 1977).  It is 0 at n = K.
    """
    K = per_state_fidelity.size
    if size == K:
        return 0.0
    return float(per_state_fidelity.std()) * math.sqrt((K - size) / (size * (K - 1)))


def random_subset_analysis(report, subset_sizes, trials=30, seed=0):
    """Re-average the run over random state subsets; (mean, std, predicted_std) per size.

    Each trial draws `size` distinct states and averages their per-state
    fidelity contributions, mirroring the resampling analysis of the count
    data.  std is over the `trials` draws (0 when size equals K), and
    predicted_std is `predicted_subset_std` of the same per-state values.
    """
    per_state = report.per_state_fidelity
    K = per_state.size
    check_subset_request(subset_sizes, trials, K)
    rng = np.random.default_rng(seed)
    results = {}
    for size in subset_sizes:
        if size == K:
            results[size] = (float(per_state.mean()), 0.0, 0.0)
            continue
        means = np.array(
            [per_state[rng.choice(K, size=size, replace=False)].mean() for _ in range(trials)]
        )
        results[size] = (float(means.mean()), float(means.std(ddof=1)),
                         predicted_subset_std(per_state, size))
    return results
