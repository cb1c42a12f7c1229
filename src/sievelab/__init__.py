"""sievelab: random walks on matrix groups, large-sieve bounds, and
empirical decay of thin-set hit probabilities."""

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CompositeModulus,
    ConfigError,
    ConvergenceFailure,
    DegreeUnsupported,
    DimensionMismatch,
    DomainError,
    EnumerationUnavailable,
    InsufficientData,
    MissingIdentity,
    NotSymmetric,
    ResourceError,
    SievelabError,
)
from .matgroup import (
    AbelianElement,
    GeneratorMultiset,
    MatrixElement,
    compose,
    elementary_generators,
    sl2_st_generators,
    torus_generators,
    validate_generators,
    z_generators,
)
from .quotients import (
    AbelianQuotient,
    ClosureReport,
    MatrixQuotient,
    bfs_closure,
    group_order,
    is_prime,
    prime_schedule,
)
from .walker import (
    MCEstimate,
    WalkConfig,
    exact_laws,
    exact_origin_scan_z,
    hit_probabilities_exact,
    mc_sweep,
    run_walk,
)
from .spectra import (
    AdjacencySpectrum,
    exact_deviation_sweep,
    mixing_bound_squared,
    mixing_rate,
    second_eigenvalue,
    spectrum_csv,
)
from .thinsets import (
    EntryPolynomial,
    NongenericGaloisOracle,
    OracleVerdict,
    RationalFixedFlagOracle,
    ResidualReport,
    SubvarietyOracle,
    TorusSquaresOracle,
    coordinate_polynomial,
    residual,
)
from .sieve import (
    SieveBound,
    chebyshev_bound,
    plan_for_n,
    sieve_threshold_and_bound,
    single_prime_bound,
)
from .lab import (
    CSV_HEADER,
    DecayFit,
    ExperimentRow,
    ExperimentTable,
    Scenario,
    exact_probability,
    fit_decay,
    get_scenario,
    list_scenarios,
    run_experiment,
    theory_bound,
)

__version__ = "0.1.0"
