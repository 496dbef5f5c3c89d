"""Numerical laboratory for 2x2 linear cocycles over hyperbolic base maps.

The lab builds two-sided full shifts and hyperbolic torus automorphisms,
drives matrix cocycles along their orbits with renormalized scans, and
measures the objects the multiplicative ergodic theorem promises: both
Lyapunov exponents, the stable/unstable splitting, invariant measures on
the projective bundle, fiber-bunching certificates, and the measure of the
set where the splitting survives a perturbation.
"""

from .base import (
    BernoulliMeasure,
    LebesgueMeasure,
    MarkovMeasure,
    ShiftSystem,
    TorusSystem,
    apply_f,
    sample_points,
)
from .cocycle import (
    BunchingReport,
    ConstantCocycle,
    ConstantFactor,
    DiagonalFactor,
    HolderReport,
    LocallyConstantCocycle,
    PerturbedCocycle,
    PointwiseCocycle,
    PointwiseEntriesField,
    RotationFactor,
    TrigExpr,
    bunching_check,
    holder_distances,
    product,
    specialize,
)
from .config import (
    Config,
    build_cocycle,
    build_family,
    build_system,
    config_hash,
    dump_config,
    load_config,
    normalize_config,
)
from .continuity import (
    ContinuityReport,
    ContinuityRow,
    PerturbationFamily,
    continuity_experiment,
    wilson_interval,
)
from .errors import (
    CocycleLabError,
    ConfigError,
    HorizonExceeded,
    NoGap,
    SingularValueError,
)
from .oseledets import (
    equivariance_residuals,
    stable_directions,
    unstable_directions,
)
from .projective import (
    EmpiricalProjectiveMeasure,
    InvarianceReport,
    build_invariant_measures,
    integrate_phi,
    invariance_defect,
)
from .spectrum import (
    FiniteTimeExponents,
    GapReport,
    SpectrumReport,
    finite_time_exponents,
    lyapunov_exponents,
    spectral_gap,
)

__version__ = "0.1.0"
