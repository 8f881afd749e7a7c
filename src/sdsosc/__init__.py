"""Klein-Gordon oscillator under the Snyder-de Sitter deformed algebra.

Exact spectra and normalized momentum-space wavefunctions in one and D
dimensions, plus high-temperature canonical thermodynamics, each closed form
carrying an independent numerical cross-check.
"""

__version__ = "0.1.0"

from .errors import (
    NumericError,
    OutOfRegimeError,
    ParameterDomainError,
    QuantumNumberError,
    SdsError,
    UndeformedLimitError,
    UnitSystemError,
    UnsupportedRepresentationError,
)
from .model import (
    DeformationParams,
    OscillatorConfig,
    PenningTrapBounds,
    deformation_bounds,
    derive_params,
    min_uncertainties,
)
from .polynomials import (
    gauss_jacobi_rule,
    gauss_jacobi_scaled,
    gegenbauer,
    gegenbauer_norm_log,
    hermite,
    jacobi,
    jacobi_norm_log,
    log_gamma,
)
from .spectrum1d import (
    QuantumState1D,
    energy_1d,
    energy_1d_oracle,
    energy_deviation_first_order,
    energy_nonrelativistic,
    inner_product_1d,
    normalization_identity_residual,
    nu_exponent,
    spacing_asymptote,
    state_1d,
    wavefunction_1d,
    wavefunction_1d_undeformed,
    wavefunction_norm_1d,
    wavefunction_norm_1d_undeformed,
)
from .spectrumnd import (
    QuantumStateND,
    angular_degeneracy,
    degeneracy_table,
    energy_nd,
    energy_nd_oracle,
    radial_exponents,
    radial_inner_product,
    radial_norm,
    radial_normalization_identity_residual,
    radial_wavefunction,
    state_nd,
)
from .tables import SpectrumTable
from .thermo import (
    ThermoCurve,
    ThermoParams,
    entropy,
    free_energy,
    mean_energy,
    partition_direct,
    partition_em_series,
    partition_highT,
    partition_moments,
    specific_heat,
    thermo_curve,
    thermo_params,
)
