"""nvground: NV-center ground-state spin toolkit.

Exact and perturbative transition frequencies for both nitrogen
isotopes under axial/transverse fields and temperature, inverse
extraction of the coupling parameters from measured line sets, and
Ramsey-fringe detuning analysis.
"""

from .eigensolve import EigensolveError, eigh, jacobi_eigh
from .extraction import (
    AnisotropyResult,
    FitResult,
    MeasurementEntry,
    MeasurementSet,
    ParamVector,
    anisotropy,
    extract_params,
    thermal_models,
    transition_table,
)
from .optimize import (
    FitConvergenceError,
    NonFiniteObjectiveError,
    OptimResult,
    PolynomialModel,
    nelder_mead,
    polyfit_weighted,
    weighted_objective,
)
from .perturbation import (
    ValidityMarginError,
    beta_coefficient,
    exact_angular_shift,
    exact_beta_estimates,
    ms0_baseline,
    ms0_line,
    nuclear_freqs_2nd,
    nuclear_freqs_full,
    residuals_vs_exact,
)
from .ramsey import (
    NonIdentifiableTraceError,
    RamseyFit,
    RamseyTrace,
    UndersampledTraceError,
    fit_fringes,
    frequency_from_detuning,
    synthesize,
)
from .spin_core import (
    GAMMA_E_KHZ_PER_G,
    GAMMA_N14_KHZ_PER_G,
    GAMMA_N15_KHZ_PER_G,
    N14,
    N15,
    CouplingParams,
    FieldConfig,
    IsotopeSpec,
    StateLabel,
    build_hamiltonian,
    get_isotope,
)
from .transitions import (
    AmbiguousLabelingError,
    TransitionSet,
    isotopic_d_shift,
    label_states,
    ratio_estimators,
    transition_set,
)

__version__ = "0.1.0"
