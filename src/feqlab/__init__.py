"""feqlab: functional-equation laboratory on finite semigroups.

Solve and verify sine/cosine variant functional equations with
measure-twisted arguments, cross-check closed forms against a spectral
root-finding oracle, and fuzz the superstability dichotomy.
"""

import types as _types

from .characters import Character, character_to_scalar, enumerate_characters
from .equations import (
    BatteryItem,
    InequalityItem,
    ResidualReport,
    approximate_battery,
    battery_report,
    companion_cosine,
    identity_battery,
    residual_central_dalembert,
    residual_dalembert,
    residual_integral_dalembert,
    residual_sine_addition,
    residual_spherical,
    residual_vanvleck,
    residual_wilson,
)
from .fixtures import COSINE_C4, SINE_C4, fixture_bundle, write_fixtures
from .jsonio import (
    canonical_json,
    function_to_json,
    load_function,
    load_measure,
    load_morphism,
    load_semigroup,
    morphism_to_json,
    render_table,
    semigroup_to_json,
)
from .measures import (
    DEFAULT_TOL,
    DiracMeasure,
    ToleranceConfig,
    check_function,
    integrate,
    is_sigma_invariant,
    measure_norm,
    pushforward,
    right_transform,
    support_in_center,
)
from .semigroups import (
    FiniteSemigroup,
    InvolutiveMorphism,
    MorphismKind,
    center,
    cyclic_group,
    direct_product,
    enumerate_all_semigroups,
    enumerate_involutive_morphisms,
    index_period,
    left_zero,
    null_semigroup,
    s3_inversion,
    symmetric_group_3,
    validate_morphism,
    validate_semigroup,
)
from .solvers import (
    Provenance,
    Solution,
    SolutionSet,
    match_solution_sets,
    newton_oracle,
    solve_central_dalembert,
    solve_dalembert,
    solve_spherical,
    solve_vanvleck,
    spectral_oracle,
)
from .stability import (
    CampaignConfig,
    CampaignSummary,
    StabilityTrial,
    Verdict,
    fuzz_campaign,
    superstability_bound,
)

__version__ = "0.1.0"

# The import block above is the public API. Importing it binds each
# submodule's name here too; those are not exported.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
