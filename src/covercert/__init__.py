"""Covering systems of congruences: verification, construction, certificates.

The package decides coverage by exact finite enumeration, builds minimal
coverings with prescribed distinct-modulus counts, inflates them to
prescribed repeated-modulus counts, and produces exact non-covering
certificates by the distorted-measure method.

Only the names below are public here; the submodules core, constructions,
distortion, analytic and cli hold the rest.
"""

from .analytic import jth_modulus_bound, multiplicity_modulus_bound, smooth_reciprocal_sum
from .constructions import construct_minimal_family, shift_expand
from .core import (
    DEFAULT_LIMITS,
    CongruenceSystem,
    CovercertError,
    DomainError,
    InternalConsistencyError,
    InvalidModulusError,
    Limits,
    ParseError,
    ResourceLimitError,
    covers_interval,
    covers_oracle,
    deduplicated,
    density_uncovered,
    emit_system,
    emit_system_json,
    is_minimal,
    multiplicity,
    parse_system,
    rational_str,
)
from .distortion import (
    DeltaSchedule,
    certify,
    default_delta_schedule,
    prime_ladder,
    run_levels,
    system_default_schedule,
)

__version__ = "0.1.0"
