"""Oscillator configuration and Snyder-de Sitter deformation parameters.

The two deformation parameters are a momentum-space one (``alpha1``, units of
inverse momentum squared) and a position-space one (``alpha2``, which bounds
the momentum domain at 1/sqrt(alpha2)).  Everything downstream depends on two
scalar combinations of them: ``k_squared = hbar^2 (alpha1 + m^2 w^2 alpha2)``
and ``theta = (alpha1 / m^2 w^2 + alpha2) / c^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterDomainError, UnitSystemError, check_count

# CODATA 2018 values, SI
SPEED_OF_LIGHT = 299792458.0          # m s^-1
HBAR = 1.054571817e-34                # J s
BOLTZMANN = 1.380649e-23              # J K^-1
ELECTRON_MASS = 9.1093837015e-31      # kg
ELEMENTARY_CHARGE = 1.602176634e-19   # C

NATURAL = "natural"
SI = "si"


@dataclass(frozen=True)
class OscillatorConfig:
    """Physical constants of the oscillator plus the spatial dimension.

    ``natural()`` gives the hbar = c = m = omega = 1 convention used for all
    dimensionless tables and figures; ``si()`` fills c and hbar with CODATA
    values.  Operations never consult global state, so unit handling is
    always visible at the call site.
    """

    m: float
    omega: float
    c: float
    hbar: float
    dim: int = 1
    units: str = NATURAL

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.m, self.omega, self.c, self.hbar)):
            raise ParameterDomainError("m, omega, c and hbar must all be finite and positive")
        object.__setattr__(self, "dim", check_count(self.dim, "dim", low=1))
        if self.units not in (NATURAL, SI):
            raise ParameterDomainError(f"unknown unit system {self.units!r}")

    @classmethod
    def natural(cls, dim: int = 1) -> "OscillatorConfig":
        return cls(m=1.0, omega=1.0, c=1.0, hbar=1.0, dim=dim, units=NATURAL)

    @classmethod
    def si(cls, m: float, omega: float, dim: int = 1) -> "OscillatorConfig":
        return cls(m=m, omega=omega, c=SPEED_OF_LIGHT, hbar=HBAR, dim=dim, units=SI)

    @property
    def mc2(self) -> float:
        """Rest energy m c^2."""
        return self.m * self.c * self.c


@dataclass(frozen=True)
class DeformationParams:
    """Deformation inputs plus the derived scalar constants.

    ``lam`` (the representation-mixing constant, = alpha1/(m^2 w^2 alpha2 + alpha1))
    and ``gamma_abs_squared`` are only intermediate quantities; both are None
    when they are singular (lam at alpha1 = alpha2 = 0, gamma_abs_squared at
    alpha1 = 0).  All downstream formulas use only ``k_squared`` and ``theta``,
    which are defined for every nonnegative pair.
    """

    alpha1: float
    alpha2: float
    k_squared: float
    theta: float
    lam: Optional[float]
    gamma_abs_squared: Optional[float]

    @property
    def deformed(self) -> bool:
        return self.k_squared > 0.0


def derive_params(alpha1: float, alpha2: float, cfg: OscillatorConfig) -> DeformationParams:
    """Build the derived deformation constants for (alpha1, alpha2).

    k_squared = hbar^2 (alpha1 + m^2 w^2 alpha2) is computed directly so it is
    valid at alpha1 = 0; the gamma route exists only as a cross-check identity.
    Squares are products, so that leaving double precision gives inf or 0, not OverflowError;
    (m w)^2 and (m c)^2 stay positive because ``level_coefficients`` and ``nu_exponent`` divide by them.
    """
    if not all(math.isfinite(a) and a >= 0 for a in (alpha1, alpha2)):
        raise ParameterDomainError(
            f"deformation parameters must be finite and nonnegative, got ({alpha1}, {alpha2})"
        )
    mw, mc = cfg.m * cfg.omega, cfg.m * cfg.c
    mw2 = mw * mw
    if not (0.0 < mw2 < math.inf and 0.0 < mc * mc < math.inf):
        raise ParameterDomainError(f"(m omega)^2 and (m c)^2 must be finite and positive, got m = {cfg.m}, "
                                   f"omega = {cfg.omega}")
    k_squared = cfg.hbar * cfg.hbar * (alpha1 + mw2 * alpha2)
    theta = (alpha1 / mw2 + alpha2) / (cfg.c * cfg.c)
    if not (math.isfinite(k_squared) and math.isfinite(theta)):
        raise ParameterDomainError(f"k^2 = {k_squared} and theta = {theta} must be finite")
    if alpha1 > 0:
        gamma_abs_squared: Optional[float] = 1.0 + mw2 * alpha2 / alpha1
        lam: Optional[float] = alpha1 / (mw2 * alpha2 + alpha1)
    elif alpha2 > 0:
        gamma_abs_squared = None
        lam = 0.0
    else:
        gamma_abs_squared = None
        lam = None
    return DeformationParams(
        alpha1=float(alpha1),
        alpha2=float(alpha2),
        k_squared=k_squared,
        theta=theta,
        lam=lam,
        gamma_abs_squared=gamma_abs_squared,
    )


def level_coefficients(params: DeformationParams, cfg: OscillatorConfig) -> tuple[float, float]:
    """(2 hbar w / m c^2, k^2 / m^2 c^2): the coefficients of n and of the bracket in the level radicand."""
    return 2.0 * cfg.omega * cfg.hbar / cfg.mc2, params.k_squared / (cfg.m * cfg.c) ** 2


def _bracket(n, l, dim):
    """n^2 + (D - 1) n - l (l + D - 2); exactly n^2 at D = 1, l = 0.

    n^2 is formed in floating point: an int64 n * n wraps above n ~ 3e9.
    """
    return np.square(n, dtype=float) + (dim - 1.0) * n - l * (l + dim - 2.0)


def level_radicand(n, l, dim: int, params: DeformationParams, cfg: OscillatorConfig):
    """(E_{n,l} / m c^2)^2 = 1 + (2 hbar w / m c^2) n + (k^2 / m^2 c^2) [n^2 + (D - 1) n - l (l + D - 2)].

    The one place the spectrum is written; 1D is D = 1, l = 0.  ``n`` and
    ``l`` are scalars or NumPy arrays and are not checked.
    """
    b, a3 = level_coefficients(params, cfg)
    return 1.0 + b * n + a3 * _bracket(n, l, dim)


def level_shift_first_order(n, l, dim: int, params: DeformationParams, cfg: OscillatorConfig):
    """(undeformed energy m c^2 sqrt(1 + 2 w hbar n / m c^2), first-order-in-theta shift).

    shift = m c^2 (k^2 / m^2 c^2) [bracket] / (2 sqrt(1 + 2 w hbar n / m c^2)), with
    k^2 / m^2 c^2 = hbar^2 w^2 theta; unchecked scalars or arrays like ``level_radicand``.
    """
    mc2 = cfg.mc2
    root = np.sqrt(1.0 + 2.0 * cfg.omega * cfg.hbar * n / mc2)
    return mc2 * root, mc2 * level_coefficients(params, cfg)[1] * _bracket(n, l, dim) / (2.0 * root)


def min_uncertainties(params: DeformationParams, cfg: OscillatorConfig) -> tuple[float, float]:
    """Minimal position and momentum uncertainties (hbar sqrt(alpha2), hbar sqrt(alpha1))."""
    return cfg.hbar * math.sqrt(params.alpha2), cfg.hbar * math.sqrt(params.alpha1)


# Published upper bounds from the electron Penning-trap analysis at B = 6 T,
# n = 1e10 (theta in units of c^-2 kg^-2 m^-2 s^2).
PUBLISHED_THETA_BOUND = 1e33
PUBLISHED_DELTA_X_BOUND = 3.33e-18   # m
PUBLISHED_DELTA_P_BOUND = 3.17e-36   # kg m s^-1


@dataclass(frozen=True)
class PenningTrapBounds:
    """Experimental upper bounds on the deformation from cyclotron levels.

    ``theta_exact`` is the raw inversion of the first-order level shift;
    ``theta_bound`` is that value quoted to one significant figure, the usual
    convention for an order-of-magnitude experimental bound, and the single-
    parameter bounds ``delta_x_bound``/``delta_p_bound`` are derived from the
    quoted value.  Both theta values are expressed in c^-2 kg^-2 m^-2 s^2.
    """

    b_field: float
    n_level: int
    theta_exact: float
    theta_bound: float
    delta_x_bound: float
    delta_p_bound: float
    scaling_exponent: float


def _theta_bound_si(b_field: float, n_level: float) -> float:
    """Invert the first-order shift condition delta_E_n < hbar w_c; SI, 1/J^2."""
    omega_c = ELEMENTARY_CHARGE * b_field / ELECTRON_MASS
    hw = HBAR * omega_c
    mc2 = ELECTRON_MASS * SPEED_OF_LIGHT**2
    root = math.sqrt(1.0 + 2.0 * hw * n_level / mc2)
    return 2.0 * root / (hw * mc2 * n_level**2)


def _round_one_sig(x: float) -> float:
    e = math.floor(math.log10(abs(x)))
    return round(x / 10.0**e) * 10.0**e


def deformation_bounds(cfg: OscillatorConfig, b_field: float, n_level: int) -> PenningTrapBounds:
    """Upper bounds on theta and the minimal uncertainties from a Penning trap.

    The electron's n-th cyclotron level is taken as unperturbed when the
    first-order deformation shift stays below one cyclotron quantum, which
    bounds theta; the two single-parameter bounds follow with alpha1 = 0
    (position branch) and alpha2 = 0 (momentum branch).  Dimensional, so the
    configuration must be SI.
    """
    if cfg.units != SI:
        raise UnitSystemError("deformation bounds are dimensional; use an SI configuration")
    if not 0 < b_field < math.inf:
        raise ParameterDomainError(f"magnetic field strength must be finite and positive, got {b_field}")
    n_level = check_count(n_level, "n_level", low=1)
    try:
        theta_si = _theta_bound_si(b_field, n_level)
        theta_exact = theta_si * SPEED_OF_LIGHT**2      # in c^-2 kg^-2 m^-2 s^2
        theta_bound = _round_one_sig(theta_exact)
        # alpha1 = 0: theta = alpha2 / c^2  ->  alpha2 = theta_bound (c^-2 units)
        delta_x = HBAR * math.sqrt(theta_bound)
        # alpha2 = 0: theta = alpha1 / (m^2 w^2 c^2)  ->  alpha1 = theta_bound (m w)^2,
        # and m_e w_c = e B.
        delta_p = HBAR * math.sqrt(theta_bound) * ELEMENTARY_CHARGE * b_field
        # local log-log slope of the exact bound in B
        lo, hi = _theta_bound_si(0.99 * b_field, n_level), _theta_bound_si(1.01 * b_field, n_level)
        slope = (math.log(hi) - math.log(lo)) / (math.log(1.01) - math.log(0.99))
        finite = all(map(math.isfinite, (theta_exact, theta_bound, delta_x, delta_p, slope)))
    except (ArithmeticError, ValueError):  # overflow, underflow to 0, round(nan)
        finite = False
    if not finite:
        raise ParameterDomainError(f"the bounds at b_field = {b_field} T, n_level = {n_level} are not finite")
    return PenningTrapBounds(
        b_field=b_field,
        n_level=n_level,
        theta_exact=theta_exact,
        theta_bound=theta_bound,
        delta_x_bound=delta_x,
        delta_p_bound=delta_p,
        scaling_exponent=slope,
    )
