"""qme: Markovian master equations for open quantum systems.

Library layers:

- operators: Hermitian/density matrices, eigensystems, norms, vectorization
- baths: spectral densities, correlation functions, timescales, KMS checks
- generators: Redfield / Davies / coarse-grained generators and coefficients
- driving: propagators, time-dependent generators, dynamical decoupling
- evolve: trajectory integration and monitors
- diagnostics: error bounds, coarse-graining-time optimization, norm sampling
- cli: batch experiment runner (`qme` entry point)
"""

from .operators import (
    HermitianOperator,
    DensityMatrix,
    EigenSystem,
    Superoperator,
    eigensystem,
    trace_norm,
    operator_norm,
    vectorize_generator,
    vectorize_redfield,
)
from .baths import (
    Bath,
    BathTimescales,
    OhmicBath,
    ToyBath,
    RectangleBath,
    make_bath,
)

from .generators import (
    JumpDecomposition,
    GeneratorConfig,
    GeneratorSet,
    decompose_coupling,
    redfield_generator,
    davies_generator,
    cgme_generator,
    kossakowski_matrix,
)
from .driving import (
    DriveSchedule,
    DDSequence,
    dd_schedule,
    propagator,
    dd_suppression_xi,
    dd_suppression_xi_general,
)
from .evolve import (
    EvolutionResult,
    evolve,
    evolve_ore,
    positivity_crossing,
    trace_distance_series,
)
from .diagnostics import (
    BoundParams,
    optimal_ta,
    lambda_estimate,
    bound_summary,
    strongest_bound,
    c_bm_bound,
)
from .config import ExperimentConfig, ConfigError, load_config

__version__ = "0.1.0"
