"""Covering systems of congruences: verification, construction, certificates.

The package decides coverage by exact finite enumeration, builds minimal
coverings with prescribed distinct-modulus counts, inflates them to
prescribed repeated-modulus counts, and produces exact non-covering
certificates by the distorted-measure method.
"""

from .analytic import (
    first_moment_bound,
    jth_modulus_bound,
    multiplicity_modulus_bound,
    smooth_reciprocal_sum,
)
from .constructions import construct_minimal_family, shift_expand
from .core import (
    DEFAULT_LIMITS,
    CongruenceSystem,
    CoverageReport,
    CovercertError,
    DomainError,
    Factorization,
    InternalConsistencyError,
    InvalidModulusError,
    Limits,
    ParseError,
    ResidueClass,
    ResourceLimitError,
    covers_interval,
    covers_oracle,
    deduplicated,
    density_uncovered,
    emit_system,
    emit_system_json,
    factorize,
    intersect,
    is_minimal,
    multiplicity,
    parse_system,
    rational_str,
)
from .distortion import (
    FIRST_MOMENT,
    INCONCLUSIVE,
    NOT_COVERING,
    SECOND_MOMENT,
    ApBoundViolation,
    Certificate,
    CertificateTerm,
    DeltaSchedule,
    FiberMeasure,
    LevelRecord,
    LevelSet,
    PrimeLadder,
    ap_mass_bound_check,
    as_schedule,
    certify,
    default_delta_schedule,
    hit_fractions,
    level_set,
    moments,
    prime_ladder,
    run_levels,
    step_measure,
    system_default_schedule,
    uniform_measure,
)

__version__ = "0.1.0"
