"""Radial sector of the D-dimensional deformed Klein-Gordon oscillator.

The radial problem separates with L^2 = l (l + D - 2); its bound solutions are
Jacobi polynomials in z = 2 alpha2 p^2 - 1 with exponents a = mu - 1/2,
b = l - 1 + D/2, where mu coincides with the one-dimensional envelope
exponent.  The spectrum E_{n,l} is closed-form in the principal number
n = 2 n_r + l, and ``energy_nd_oracle`` recovers it independently from the
quantization condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, QuantumNumberError, check_count
from .model import DeformationParams, OscillatorConfig, level_radicand, level_shift_first_order
from .polynomials import LN2, gauss_jacobi_scaled, jacobi, log_gamma, log_term_sum, scaled_dot
from .spectrum1d import _check_branch, momentum_cutoff, nu_exponent
from .tables import SpectrumTable


def radial_exponents(
    params: DeformationParams, cfg: OscillatorConfig, l: int, dim: int
) -> tuple[float, float, float]:
    """(mu, a, b) for the radial solution; mu equals the 1D exponent nu.  Both exponents exceed -1:
    a = mu - 1/2 >= 0 as mu = max(g, 1 - g) >= 1/2, and b = l - 1 + D/2 >= -1/2 as l >= 0, D >= 1."""
    l, dim = check_count(l, "orbital number"), check_count(dim, "dimension", low=1)
    mu = nu_exponent(params, cfg)
    return mu, mu - 0.5, l - 1.0 + dim / 2.0


def energy_nd(
    n: int, l: int, dim: int, params: DeformationParams, cfg: OscillatorConfig, branch: int = +1
) -> float:
    """Closed-form energy E_{n,l} in D dimensions.

    E = branch * m c^2 sqrt(1 + (2 hbar w / m c^2) n
        + (k^2 / m^2 c^2) [n^2 + (D - 1) n - l (l + D - 2)])
    with n = 2 n_r + l.  The l-dependent piece lifts the undeformed degeneracy;
    at D = 1, l = 0 the bracket reduces to n^2 and the 1D spectrum returns.
    """
    n, l, dim = _check_pair(n, l, dim)
    _check_branch(branch)
    return branch * cfg.mc2 * math.sqrt(level_radicand(n, l, dim, params, cfg))


def energy_nd_oracle(
    nr: int, l: int, dim: int, params: DeformationParams, cfg: OscillatorConfig
) -> float:
    """Positive-branch energy from the radial quantization condition.

    4 n_r (n_r + a + b + 1) = eps' / k^2 - (2 l + D) mu - l is inverted for
    eps' = (E^2 - m^2 c^4) / c^2 + D m w hbar.  The (2 l + D) mu coupling is
    the sign that reproduces the closed-form spectrum; re-deriving the
    condition confirms it.  Must agree with energy_nd(2 n_r + l, l, ...) to
    1e-12 relative.
    """
    nr = check_count(nr, "radial quantum number")
    mu, a, b = radial_exponents(params, cfg, l, dim)
    eps_prime = params.k_squared * (4.0 * nr * (nr + a + b + 1.0) + (2.0 * l + dim) * mu + l)
    mc2 = cfg.mc2
    return math.sqrt(mc2 * mc2 + cfg.c**2 * (eps_prime - dim * cfg.m * cfg.omega * cfg.hbar))


def energy_deviation_first_order_nd(
    n: int, l: int, dim: int, params: DeformationParams, cfg: OscillatorConfig
) -> tuple[float, float]:
    """(undeformed energy, first-order deformation shift) for the (n, l) level.

    Generalizes the one-dimensional first-order expansion with the bracket
    n^2 + (D - 1) n - l (l + D - 2) in place of n^2.
    """
    n, l, dim = _check_pair(n, l, dim)
    e0, shift = level_shift_first_order(n, l, dim, params, cfg)
    return float(e0), float(shift)


def log_norm_constant_nd(nr: int, l: int, dim: int, mu: float, alpha2: float) -> float:
    """ln of the radial normalization constant, assembled in log space.

    Fixed by  int_0^{1/sqrt(alpha2)} D p^(D-1) dp (1 - alpha2 p^2)^(-1/2)
    |phi|^2 = 1 (the leading factor D is this package's radial-measure
    convention), mapped onto the Jacobi weight by z = 2 alpha2 p^2 - 1.
    """
    a = mu - 0.5
    b = l - 1.0 + dim / 2.0
    return 0.5 * (
        LN2
        + (dim / 2.0) * math.log(alpha2)
        + math.log(2.0 * nr + a + b + 1.0)
        + log_gamma(nr + 1.0)
        + log_gamma(nr + a + b + 1.0)
        - math.log(dim)
        - log_gamma(nr + a + 1.0)
        - log_gamma(nr + b + 1.0)
    )


@dataclass(frozen=True)
class QuantumStateND:
    """One radial level: quantum numbers, exponents, normalization, energy."""

    nr: int
    l: int
    dim: int
    mu: float
    a: float
    b: float
    n: int
    norm: float
    log_norm: float
    energy: float
    branch: int


def state_nd(
    nr: int, l: int, dim: int, params: DeformationParams, cfg: OscillatorConfig, branch: int = +1
) -> QuantumStateND:
    nr = check_count(nr, "radial quantum number")
    n, l, dim = _check_pair(2 * nr + l, l, dim)
    mu, a, b = radial_exponents(params, cfg, l, dim)
    if params.alpha2 > 0:
        log_norm = log_norm_constant_nd(nr, l, dim, mu, params.alpha2)
    else:
        log_norm = math.nan
    return QuantumStateND(
        nr=nr,
        l=l,
        dim=dim,
        mu=mu,
        a=a,
        b=b,
        n=n,
        norm=math.exp(log_norm) if math.isfinite(log_norm) else math.nan,
        log_norm=log_norm,
        energy=energy_nd(n, l, dim, params, cfg, branch),
        branch=branch,
    )


def radial_wavefunction(
    nr: int, l: int, dim: int, params: DeformationParams, cfg: OscillatorConfig, p
):
    """Normalized radial wavefunction at momentum p >= 0 (scalar or array).

    phi(p) = N (1 - alpha2 p^2)^(mu/2) (alpha2 p^2)^(l/2) P_{n_r}^(a,b)(2 alpha2 p^2 - 1)
    on 0 <= p < 1/sqrt(alpha2); requires the bounded representation alpha2 > 0.
    """
    nr = check_count(nr, "radial quantum number")
    pmax = momentum_cutoff(params)
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= pmax):
        raise ParameterDomainError(f"momentum out of domain: need 0 <= p < {pmax}")
    mu, a, b = radial_exponents(params, cfg, l, dim)
    w = params.alpha2 * arr * arr
    z = 2.0 * w - 1.0
    log_n = log_norm_constant_nd(nr, l, dim, mu, params.alpha2)
    log_env = log_n + 0.5 * mu * np.log1p(-w)
    if l > 0:
        # centrifugal factor (alpha2 p^2)^(l/2); log(0) = -inf marks the node at p = 0
        with np.errstate(divide="ignore"):
            log_env = log_env + 0.5 * l * np.log(w)
    values = np.where(np.isneginf(log_env), 0.0, np.exp(log_env)) * np.asarray(jacobi(nr, a, b, z))
    return float(values) if np.isscalar(p) or np.ndim(p) == 0 else values


def _radial_measure_log_const(l: int, dim: int, mu: float, alpha2: float) -> float:
    """ln of the substitution constant mapping the radial measure onto the
    Jacobi weight: D * 2^(1/2 - mu - l) * (2 alpha2)^(-(D-2)/2) / (4 alpha2)."""
    return (
        math.log(dim)
        - 2.0 * LN2
        - math.log(alpha2)
        - 0.5 * (dim - 2.0) * (LN2 + math.log(alpha2))
        + (0.5 - mu - l) * LN2
    )


def radial_inner_product(
    n1: int, n2: int, l: int, dim: int, params: DeformationParams, cfg: OscillatorConfig
) -> float:
    """Inner product of two radial states under the deformed measure.

    z = 2 alpha2 p^2 - 1 maps the measure onto the Jacobi weight with
    exponents (mu - 1/2, l - 1 + D/2); everything scale-like, including the
    polynomial magnitudes, is composed in log space because the weight's
    total mass overflows double precision for large mu.  The integrand
    P_n1 P_n2 has degree n1 + n2, so the ((n1 + n2) // 2 + 1)-node rule is
    exact.  Equals delta_{n1 n2} for normalized states.
    """
    n1, n2 = check_count(n1, "radial quantum number"), check_count(n2, "radial quantum number")
    momentum_cutoff(params)  # raises at alpha2 = 0, where the measure has no bounded form
    mu, a, b = radial_exponents(params, cfg, l, dim)
    nodes, unit_weights, log_mass = gauss_jacobi_scaled((n1 + n2) // 2 + 1, a, b)
    p1 = np.asarray(jacobi(n1, a, b, nodes))
    p2 = p1 if n2 == n1 else np.asarray(jacobi(n2, a, b, nodes))
    log_n = log_norm_constant_nd(n1, l, dim, mu, params.alpha2) + log_norm_constant_nd(n2, l, dim, mu, params.alpha2)
    return scaled_dot(unit_weights, p1, p2, log_n + _radial_measure_log_const(l, dim, mu, params.alpha2) + log_mass)


def radial_norm(nr: int, l: int, dim: int, params: DeformationParams, cfg: OscillatorConfig) -> float:
    """Quadrature norm of phi under the D-dimensional deformed radial measure
    (``radial_inner_product`` of the state with itself, an (nr + 1)-node rule)."""
    return radial_inner_product(nr, nr, l, dim, params, cfg)


def radial_normalization_identity_residual(nr: int, l: int, dim: int, mu: float) -> float:
    """Log-space residual of N^2 * (measure constant) * (closed-form Jacobi norm) - 1.

    Same coefficient-before-multiply aggregation as the 1D residual, so the
    check stays meaningful for mu up to ~1e8; the alpha2 powers cancel
    exactly and drop out.
    """
    a = mu - 0.5
    b = l - 1.0 + dim / 2.0
    ln_d, ln_2nab = math.log(dim), math.log(2.0 * nr + a + b + 1.0)
    lg_nr1, lg_nab = log_gamma(nr + 1.0), log_gamma(nr + a + b + 1.0)
    lg_na, lg_nb = log_gamma(nr + a + 1.0), log_gamma(nr + b + 1.0)
    return log_term_sum([
        # squared normalization constant
        (1.0, LN2), (1.0, ln_2nab), (1.0, lg_nr1), (1.0, lg_nab), (-1.0, ln_d), (-1.0, lg_na), (-1.0, lg_nb),
        # substitution constant of the radial measure
        (1.0, ln_d), (-2.0, LN2), (-0.5 * (dim - 2.0), LN2), (0.5 - mu - l, LN2),
        # closed-form weighted norm of the Jacobi polynomial
        (a + b + 1.0, LN2), (-1.0, ln_2nab), (1.0, lg_na), (1.0, lg_nb), (-1.0, lg_nr1), (-1.0, lg_nab),
    ])


def angular_degeneracy(l: int, dim: int) -> int:
    """Multiplicity of the orbital-l hyperspherical sector in D dimensions.

    Counts independent degree-l harmonics: C(D+l-1, l) - C(D+l-3, l-2);
    gives 2l + 1 at D = 3 and 1 in one dimension.
    """
    l, dim = check_count(l, "orbital number"), check_count(dim, "dimension", low=1)
    if dim == 1:
        return 1 if l <= 1 else 0
    first = math.comb(dim + l - 1, l)
    second = math.comb(dim + l - 3, l - 2) if l >= 2 else 0
    return first - second


def level_pairs(n_min: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer arrays (n, l) of every level with n_min <= n <= n_max and
    l = n mod 2, n mod 2 + 2, ..., n, ordered by n, then l."""
    ns = np.arange(n_min, n_max + 1)
    counts = ns // 2 + 1
    n = np.repeat(ns, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return n, n % 2 + 2 * (np.arange(n.size) - first)


def degeneracy_table(
    n_max: int, dim: int, params: DeformationParams, cfg: OscillatorConfig
) -> SpectrumTable:
    """Enumerate all (n, l) levels with n <= n_max and tabulate degeneracies.

    Rows are ordered by n then l; the ``states_sharing_energy`` column counts
    all states (including angular multiplicities) whose energy coincides with
    that row's, so with zero deformation the full oscillator degeneracy is
    restored while the deformed spectrum splits by l.
    """
    n_max = check_count(n_max, "n_max")
    multiplicity = [angular_degeneracy(l, dim) for l in range(n_max + 1)]
    ns, ls = level_pairs(0, n_max)
    energies = cfg.mc2 * np.sqrt(level_radicand(ns, ls, dim, params, cfg))
    # Python round, not np.round: the two round differently and regroup levels
    keys = [round(e / cfg.mc2, 12) for e in energies.tolist()]
    gs = [multiplicity[l] for l in ls.tolist()]
    sharing = {}
    for key, g in zip(keys, gs):
        sharing[key] = sharing.get(key, 0) + g
    return SpectrumTable(
        columns=("n", "l", "dim", "energy", "angular_multiplicity", "states_sharing_energy"),
        data=[ns, ls, [dim] * ns.size, energies, gs, [sharing[key] for key in keys]],
        meta={
            "alpha1": params.alpha1,
            "alpha2": params.alpha2,
            "dim": dim,
            "units": cfg.units,
        },
    )


def _check_pair(n, l, dim) -> tuple[int, int, int]:
    """(n, l, dim) as ints, once they are counts with l <= n and n - l even."""
    l, dim = check_count(l, "orbital number"), check_count(dim, "dimension", low=1)
    n = check_count(n, "principal number")
    if l > n:
        raise QuantumNumberError(f"orbital number {l} exceeds principal number {n}")
    if (n - l) % 2 != 0:
        raise QuantumNumberError(f"n - l must be even (n = 2 n_r + l), got n={n}, l={l}")
    return n, l, dim
