"""Secure state estimation for noisy linear systems under sparse sensor attacks.

The package provides a simulator for attacked linear plants, steady-state
Kalman filter banks over sensor subsets, a block-residue detector for
effective attacks, exhaustive and certificate-guided subset search, an
exact decoder for the noiseless case, and a CLI reproducing the
desk-scale experiments.
"""

from .detect import (
    DetectorConfig,
    ResidueReport,
    SubsetBank,
    attack_detect,
    auto_threshold,
    effective_attack_oracle,
)
from .errors import AnalysisError, ConfigError, ScenarioError, SecestError
from .kalman import (
    FILTERING,
    PREDICTION,
    FilterRun,
    SteadyStateFilter,
    cross_covariance_correction,
    run_filter,
    solve_steady_state,
    worst_subset,
)
from .model import (
    AttackSpec,
    ConstantBias,
    NoAttack,
    NoiseLinear,
    SeededRandom,
    SystemModel,
    Trajectory,
    ZeroOutput,
    make_random_stable_system,
    simulate,
)
from .noiseless import (
    DecodeResult,
    SymbolObservation,
    decode,
    detect_corruption,
    encode,
    min_symbol_distance,
)
from .observability import (
    block_output_gram,
    full_subset,
    is_observable,
    min_gram_eigenvalue,
    noise_structure,
    normalize_subset,
    observability_matrix,
    sparse_observability_index,
)
from .pbsat import (
    PBConstraint,
    PBFormula,
    at_least,
    at_most,
    solve,
)
from .search import SearchOutcome, exhaustive_search, generate_certificate, smt_search

__version__ = "0.1.0"
