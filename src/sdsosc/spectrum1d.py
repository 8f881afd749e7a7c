"""One-dimensional Klein-Gordon oscillator in the Snyder-de Sitter algebra.

Closed-form spectrum, normalized bounded-momentum wavefunctions built on
Gegenbauer polynomials, the level-spacing asymptote, the first-order
deformation shift, and the nonrelativistic limit.  Every closed form has an
independent check: the energies against the quantization-condition route
(``energy_1d_oracle``), the normalization constants against exact Gauss-Jacobi
(Gauss-Hermite when undeformed) quadrature and against the log-space identity
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericError,
    ParameterDomainError,
    UndeformedLimitError,
    UnsupportedRepresentationError,
    check_above,
    check_count,
)
from .model import DeformationParams, OscillatorConfig, level_radicand, level_shift_first_order
from .polynomials import (
    LN2,
    LN2PI,
    LNPI,
    gauss_jacobi_scaled,
    gegenbauer,
    hermite,
    log_gamma,
    log_term_sum,
    scaled_dot,
)


def nu_exponent(params: DeformationParams, cfg: OscillatorConfig) -> float:
    """Envelope exponent nu of the bounded-momentum ground solution.

    nu solves nu(nu - 1) = (m w hbar / k)^2 - m w hbar / k^2 and the positive
    root is max(g, 1 - g) with g = m w hbar / k^2, because the discriminant is
    the perfect square (2g - 1)^2.  Using the ratio directly avoids evaluating
    the radical at tiny k^2, where g reaches 1e8 and beyond.
    """
    k2 = params.k_squared
    if k2 <= 0.0:
        raise UndeformedLimitError("nu diverges in the undeformed limit (k_squared = 0)")
    g = cfg.m * cfg.omega * cfg.hbar / k2
    return max(g, 1.0 - g)


def energy_1d(n: int, params: DeformationParams, cfg: OscillatorConfig, branch: int = +1) -> float:
    """Closed-form energy of level n.

    E_n = branch * m c^2 sqrt(1 + (2 w hbar / m c^2) n + (k^2 / m^2 c^2) n^2);
    at zero deformation this reduces to the undeformed relativistic oscillator
    m c^2 sqrt(1 + 2 w hbar n / m c^2).
    """
    n = check_count(n, "quantum number")
    _check_branch(branch)
    return branch * cfg.mc2 * math.sqrt(level_radicand(n, 0, 1, params, cfg))


def energy_1d_oracle(n: int, params: DeformationParams, cfg: OscillatorConfig) -> float:
    """Positive-branch energy recovered from the quantization condition.

    Independent route: compute nu, invert eps / k^2 - nu = n (n + 2 nu) for
    eps, then E = sqrt(m^2 c^4 + c^2 (eps - m hbar w)).  Must agree with
    ``energy_1d`` to 1e-12 relative.
    """
    n = check_count(n, "quantum number")
    nu = nu_exponent(params, cfg)
    eps = params.k_squared * (n * (n + 2.0 * nu) + nu)
    mc2 = cfg.mc2
    return math.sqrt(mc2 * mc2 + cfg.c**2 * (eps - cfg.m * cfg.hbar * cfg.omega))


def spacing_asymptote(params: DeformationParams, cfg: OscillatorConfig) -> float:
    """Large-n limit of the level spacing |E_{n+1} - E_n| = hbar c sqrt(alpha1 + m^2 w^2 alpha2).

    Zero without deformation (the spectrum spacing collapses); equals
    hbar w m c^2 sqrt(theta).  The spacing decreases monotonically toward this
    value from above, entering the 0.1% band around n ~ 21 m w hbar / k^2.
    """
    return cfg.c * math.sqrt(params.k_squared)


def energy_deviation_first_order(
    n: int, params: DeformationParams, cfg: OscillatorConfig
) -> tuple[float, float]:
    """(undeformed energy, first-order-in-theta shift) for level n.

    The shift is hbar^2 w^2 m c^2 n^2 theta / (2 sqrt(1 + 2 w hbar n / m c^2)),
    the D = 1, l = 0 case of ``level_shift_first_order``; the pair sums to the
    exact energy up to O(theta^2).
    """
    n = check_count(n, "quantum number")
    e0, shift = level_shift_first_order(n, 0, 1, params, cfg)
    return float(e0), float(shift)


def energy_nonrelativistic(n: int, params: DeformationParams, cfg: OscillatorConfig) -> float:
    """Nonrelativistic spectrum n hbar w (1 + n k^2 / (2 m w hbar)).

    Matches energy_1d(n) - m c^2 up to O(1/c^2).  Note there is no hbar w / 2
    zero-point term in this convention: the n = 0 level sits exactly at zero.
    """
    n = check_count(n, "quantum number")
    return n * cfg.hbar * cfg.omega * (1.0 + n * params.k_squared / (2.0 * cfg.m * cfg.omega * cfg.hbar))


def momentum_cutoff(params: DeformationParams) -> float:
    """Edge 1/sqrt(alpha2) of the bounded momentum domain."""
    if params.alpha2 <= 0.0:
        raise UnsupportedRepresentationError(
            "momentum domain is unbounded at alpha2 = 0; use wavefunction_1d_undeformed"
        )
    return 1.0 / math.sqrt(params.alpha2)


def log_norm_constant_1d(n: int, nu: float, alpha2: float) -> float:
    """ln of the wavefunction normalization constant, assembled in log space.

    ln L = nu ln 2 + ln(alpha2)/4 - ln(2 pi)/2
           + [ln n! + ln(n + nu) + 2 ln G(nu) - ln G(2 nu + n)] / 2
    """
    return (
        nu * LN2
        + 0.25 * math.log(alpha2)
        - 0.5 * LN2PI
        + 0.5 * (log_gamma(n + 1.0) + math.log(n + nu) + 2.0 * log_gamma(nu) - log_gamma(2.0 * nu + n))
    )


@dataclass(frozen=True)
class QuantumState1D:
    """One bound level: quantum number, envelope exponent, normalization, energy."""

    n: int
    nu: float
    norm_lambda: float
    log_norm_lambda: float
    energy: float
    branch: int


def state_1d(n: int, params: DeformationParams, cfg: OscillatorConfig, branch: int = +1) -> QuantumState1D:
    n = check_count(n, "quantum number")
    _check_branch(branch)
    nu = nu_exponent(params, cfg)
    if params.alpha2 > 0:
        log_norm = log_norm_constant_1d(n, nu, params.alpha2)
    else:
        log_norm = math.nan
    return QuantumState1D(
        n=n,
        nu=nu,
        norm_lambda=math.exp(log_norm) if math.isfinite(log_norm) else math.nan,
        log_norm_lambda=log_norm,
        energy=energy_1d(n, params, cfg, branch),
        branch=branch,
    )


def wavefunction_1d(n: int, params: DeformationParams, cfg: OscillatorConfig, p):
    """Normalized momentum-space wavefunction at momentum p (scalar or array).

    psi_n(p) = L (1 - alpha2 p^2)^(nu/2) C_n^nu(sqrt(alpha2) p), normalized so
    that  int dp (1 - alpha2 p^2)^(-1/2) |psi|^2 = 1  over |p| < 1/sqrt(alpha2).
    The envelope prefactor is evaluated in log space; only alpha2 > 0 admits
    this bounded-momentum representation.
    """
    n = check_count(n, "quantum number")
    pmax = momentum_cutoff(params)
    arr = np.asarray(p, dtype=float)
    if np.any(np.abs(arr) >= pmax):
        raise ParameterDomainError(f"momentum out of domain: |p| must be < {pmax}")
    nu = nu_exponent(params, cfg)
    u = math.sqrt(params.alpha2) * arr
    log_env = log_norm_constant_1d(n, nu, params.alpha2) + 0.5 * nu * np.log1p(-u * u)
    values = np.exp(log_env) * np.asarray(gegenbauer(n, nu, u))
    return float(values) if np.isscalar(p) or np.ndim(p) == 0 else values


def wavefunction_1d_undeformed(n: int, cfg: OscillatorConfig, p):
    """Momentum-space wavefunction of the undeformed oscillator.

    (2^n n!)^(-1/2) (pi m w hbar)^(-1/4) exp(-p^2 / 2 m w hbar) H_n(p / sqrt(m w hbar)),
    the pointwise alpha2 -> 0 limit of ``wavefunction_1d``.
    """
    n = check_count(n, "quantum number")
    sigma = cfg.m * cfg.omega * cfg.hbar
    check_above(sigma, 0.0, "m omega hbar")  # the product underflows for tiny SI m omega
    arr = np.asarray(p, dtype=float)
    log_pref = -0.5 * (n * LN2 + log_gamma(n + 1.0)) - 0.25 * math.log(math.pi * sigma)
    values = np.exp(log_pref - arr * arr / (2.0 * sigma)) * np.asarray(hermite(n, arr / math.sqrt(sigma)))
    return float(values) if np.isscalar(p) or np.ndim(p) == 0 else values


def inner_product_1d(n1: int, n2: int, params: DeformationParams, cfg: OscillatorConfig) -> float:
    """Inner product of two states under the deformed measure (independent oracle).

    u = sqrt(alpha2) p maps the measure onto the Gauss-Jacobi weight with
    exponents (nu - 1/2, nu - 1/2); the ((n1 + n2) // 2 + 1)-node rule is exact
    for C_n1 C_n2, and every scale is composed in log space.  Equals delta_{n1 n2}.
    """
    n1, n2 = check_count(n1, "quantum number"), check_count(n2, "quantum number")
    momentum_cutoff(params)  # raises at alpha2 = 0, where the measure has no bounded form
    nu = nu_exponent(params, cfg)
    nodes, weights, log_mass = gauss_jacobi_scaled((n1 + n2) // 2 + 1, nu - 0.5, nu - 0.5)
    p1 = np.asarray(gegenbauer(n1, nu, nodes))
    p2 = p1 if n2 == n1 else np.asarray(gegenbauer(n2, nu, nodes))
    log_l = log_norm_constant_1d(n1, nu, params.alpha2) + log_norm_constant_1d(n2, nu, params.alpha2)
    return scaled_dot(weights, p1, p2, log_l - 0.5 * math.log(params.alpha2) + log_mass)


def wavefunction_norm_1d(n: int, params: DeformationParams, cfg: OscillatorConfig) -> float:
    """Quadrature norm of psi_n under the deformed measure (``inner_product_1d``
    of the state with itself, an (n + 1)-node rule)."""
    return inner_product_1d(n, n, params, cfg)


def wavefunction_norm_1d_undeformed(n: int, cfg: OscillatorConfig) -> float:
    """Quadrature norm of the undeformed psi_n: with p = sqrt(m w hbar) x it is
    sqrt(m w hbar) int dx e^(-x^2) [e^(x^2) psi^2], the bracket a polynomial of
    degree 2n, so the (n + 1)-node Gauss-Hermite rule is exact.  Raises
    ``NumericError`` once H_n overflows at the outer nodes (from n = 206)."""
    from numpy.polynomial.hermite import hermgauss  # ~5 ms of import, paid only here

    n = check_count(n, "quantum number")
    sigma = cfg.m * cfg.omega * cfg.hbar
    x, w = hermgauss(n + 1)
    with np.errstate(all="ignore"):
        psi = np.asarray(wavefunction_1d_undeformed(n, cfg, math.sqrt(sigma) * x))  # checks sigma > 0
    if not np.all(np.isfinite(psi)):
        raise NumericError(f"undeformed psi_{n} overflows at its Gauss-Hermite nodes")
    return scaled_dot(w * np.exp(x * x), psi, psi, 0.5 * math.log(sigma))


def normalization_identity_residual(n: int, nu: float) -> float:
    """Log-space residual of L^2 * (closed-form weighted norm) / sqrt(alpha2) - identity.

    Exactly zero in real arithmetic; ``log_term_sum`` adds the coefficients
    of each distinct logarithm before the multiply, which keeps the check
    meaningful up to nu ~ 1e8 (alpha2 drops out and is not needed).
    """
    lg_np1, ln_nnu = log_gamma(n + 1.0), math.log(n + nu)
    lg_nu, lg_2nun = log_gamma(nu), log_gamma(2.0 * nu + n)
    return log_term_sum([
        # squared normalization constant (alpha2 power cancels against the measure;
        # ln(2 pi) enters as ln 2 + ln pi so that only distinct logarithms carry coefficients)
        (2.0 * nu, LN2), (-1.0, LN2), (-1.0, LNPI), (1.0, lg_np1), (1.0, ln_nnu), (2.0, lg_nu), (-1.0, lg_2nun),
        # closed-form weighted norm of the polynomial
        (1.0, LNPI), (1.0 - 2.0 * nu, LN2), (1.0, lg_2nun), (-1.0, lg_np1), (-1.0, ln_nnu), (-2.0, lg_nu),
    ])


def _check_branch(branch) -> None:
    if branch not in (+1, -1):
        raise ParameterDomainError(f"branch must be +1 or -1, got {branch!r}")
