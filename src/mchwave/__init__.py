"""Numerical laboratory for periodic traveling waves of the modified
Camassa-Holm equation: explicit elliptic-function wave construction,
linearized-operator spectra, stability indices, and pseudospectral time
evolution.
"""

__version__ = "0.1.0"

from .elliptic import complete_k_e, jacobi
from .errors import (
    AssemblyError,
    BlowUpError,
    DomainError,
    MchError,
    NumericalError,
    RankError,
    SingularError,
)
from .evolve import (
    EvolutionConfig,
    LinearGrowthReport,
    StabilityRunReport,
    Trajectory,
    linearized_run,
    orbital_experiment,
    rhs,
    run,
    suggested_dt,
)
from .field import (
    PeriodicField,
    PeriodicGrid,
    derivative,
    fractional_shift,
    functionals,
    h1_norm,
    helmholtz_inverse,
    integrate,
    sample,
    sample_wave,
)
from .indices import (
    DSecondReport,
    IndexSample,
    KreinReport,
    MorseReport,
    ScanSummary,
    d_second,
    index_scan,
    krein_index,
    morse_check,
    stability_index,
    zero_mean_period,
)
from .linop import (
    OperatorMatrix,
    PairingReport,
    SpectralReport,
    assemble_l,
    evolution_spectrum,
    inv_one_pairing,
    operator_for,
    restricted_spectrum,
    spectrum,
)
from .wave import (
    ParamDerivatives,
    SnoidalParams,
    ValidityReport,
    WaveParams,
    constant_wave,
    ode_residual,
    params_dk,
    profile,
    snoidal_form,
    validity,
    wave_params,
)

__all__ = [name for name in dir() if not name.startswith("_")]
