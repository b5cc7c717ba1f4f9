"""Measure test sets: constructions and desk-scale verification.

A test set T distinguishes members of a family through the intersection
measures lambda(A ∩ T); this package constructs such sets for translates and
magnified copies of bodies and functions (deterministically) and for general
k-parameter families (randomized grids), then verifies the resulting
monotonicity/injectivity guarantees numerically with exact dyadic interval
arithmetic at the core.
"""

from .analysis import (
    KBound,
    VariationEnvelope,
    ac_diagnostic,
    concavity_check,
    convolution_identity_check,
    sliding_integral,
)
from .construct import (
    FamilyOptions,
    MagnifyCertificate,
    MagnifyConfig,
    TranslateCertificate,
    avoidance_set,
    family_test_sets,
    magnify_test_set,
    semigroup,
    translate_test_set,
    union_test_set,
)
from .dyadic import Dyadic, as_dyadic, parse_or_snap, snap
from .errors import (
    CheckFailedError,
    ExactnessOverflowError,
    GrowthCertificateError,
    IndeterminateError,
    InfeasibleResolutionError,
    ReconsetError,
    SearchBudgetError,
    WindowExceededError,
)
from .gridsets import (
    CopyCount,
    GridSet,
    RandomLevels,
    assemble,
    required_copies,
    sample_grid_set,
    sample_level,
    validate_levels,
)
from .intervals import IntervalSet, Window, boolean
from .profiles import Profile, StepProfile
from .quantize import ShellBudget, greedy_quantizer, tiled_quantizer
from .shapes import (
    Ball,
    Box,
    Direction,
    GridShape,
    IntervalUnion,
    Polygon,
    Pose,
    Simplex,
    SlabTestSet,
    diameter_direction,
    intersection_measure_detailed,
    radon_profile,
    shape_from_json,
    shape_to_json,
)
from .targets import AffineTarget, Logistic, LogSquaredDecay
from .verify import (
    IntervalFamilyGrid,
    MonotonicityReport,
    TranslateFamilyGrid,
    VerificationReport,
    interval_counterexample,
    injectivity_report,
    measure_vector,
    monotonicity_report,
    monte_carlo_reconstruction,
)

__version__ = "0.1.0"
