"""Run one mubest CLI command with a timing span around every call into a layer.

usage: python3 bench/trace_cmd.py SPANS.json <mubest arguments...>

The public functions listed in LAYERS are replaced, in every mubest module
that holds a reference to them, by wrappers that record (name, start, end,
parent span).  The command then runs through `mubest.cli.main`, so the traced
process does exactly what the untraced `python -m mubest.cli` does; nothing
inside the program is changed.  Spans stay in memory and are written to
SPANS.json when the command ends.  Single-threaded commands only: the span
stack is not shared safely between threads.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = {
    "groups": {
        "clifford_group_2q": "groups.clifford",
        "restricted_clifford_group_2q": "groups.restricted",
        "save_group": "groups.save",
    },
    "designs": {
        "clifford_design": "designs.orbit",
        "moment_operator": "designs.moment",
        "frame_potential": "designs.frame",
        "optimize_design": "designs.optimize",
        "save_design": "designs.io",
        "load_design": "designs.io",
    },
    "mub": {
        "mub_triple": "mub.build",
        "transform_triple": "mub.build",
        "haar_random_unitary": "mub.build",
    },
    "estimation": {
        "triple_fidelity": "estimation.triple",
        "estimation_fidelity": "estimation.fidelity",
        "fidelity_scan": "estimation.scan",
    },
    "simulate": {
        "estimator_tables": "simulate.tables",
        "simulate_protocol": "simulate.protocol",
        "random_subset_analysis": "simulate.subsets",
        "equivalence_scan_phase": "simulate.equivalence",
        "equivalence_scan_random": "simulate.equivalence",
    },
}


def _protocol_work(args, result):
    K, cfg = args["design"].size, args["cfg"]
    return {"streams": 3 * K * cfg.blocks, "draws": 3 * K * cfg.blocks * cfg.m_block}


# span attributes read from a call's bound arguments and its result
ATTRIBUTES = {
    "triple_fidelity": lambda a, r: {"mode": a["mode"]},
    "estimation_fidelity": lambda a, r: {"copies": len(a["measurements"])},
    "simulate_protocol": _protocol_work,
    "optimize_design": lambda a, r: {"iterations": r.metadata["iterations"]},
}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, attributes=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter() - self.t0}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self.t0
                self._stack.pop()
            if attributes is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attributes(bound.arguments, result))
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mubest" or n.startswith("mubest.")]
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"mubest.{layer}")
            for attr, name in functions.items():
                original = getattr(module, attr)
                wrapper = self.wrap(original, name, ATTRIBUTES.get(attr))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = importlib.import_module("mubest.cli")
    tracer.install()
    rc = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"rc": rc, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
