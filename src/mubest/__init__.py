"""Three-copy MUB estimation toolkit: designs, exact fidelities, simulation."""

__version__ = "0.1.0"

from .designs import (
    StateDesign,
    clifford_design,
    default_design,
    fiducial_angles,
    fiducial_state,
    frame_potential,
    load_design,
    moment_operator,
    optimize_design,
    orbit,
    save_design,
)
from .estimation import (
    estimation_fidelity,
    fidelity_scan,
    outcome_tables,
    triple_fidelity,
)
from .groups import (
    UnitaryGroup,
    clifford_group_2q,
    generate_group,
    pauli_group_projective,
    restricted_clifford_group_2q,
)
from .mub import (
    MubTriple,
    haar_random_unitary,
    measurement_of,
    mub_triple,
    transform_triple,
    unbiasedness_report,
)
from .simulate import (
    SimConfig,
    SimReport,
    equivalence_scan_phase,
    equivalence_scan_random,
    random_subset_analysis,
    reprocess_two_copy,
    simulate_protocol,
)
