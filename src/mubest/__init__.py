"""Three-copy MUB estimation toolkit: designs, exact fidelities, simulation.

Every name in __all__ is exported lazily (PEP 562): the first access imports
only the module that defines it, so `import mubest` loads neither numpy nor
any layer, and `from mubest import clifford_design` loads `designs` and what
it needs, not `estimation`, `mub` or `simulate`.
"""

import importlib

__version__ = "0.1.0"

# each exported name, by the module that defines it
_EXPORTS = {
    "designs": ("StateDesign", "clifford_design", "default_design", "fiducial_state",
                "frame_potential", "load_design", "moment_operator", "optimize_design",
                "orbit", "save_design"),
    "estimation": ("estimation_fidelity", "fidelity_scan", "triple_fidelity"),
    "groups": ("UnitaryGroup", "clifford_group_2q", "generate_group",
               "pauli_group_2q", "restricted_clifford_group_2q"),
    "mub": ("MubTriple", "haar_random_unitary", "mub_triple", "transform_triple",
            "unbiasedness_report"),
    "simulate": ("SimConfig", "SimReport", "equivalence_scan_phase",
                 "equivalence_scan_random", "random_subset_analysis", "reprocess_two_copy",
                 "simulate_protocol"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later accesses skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
