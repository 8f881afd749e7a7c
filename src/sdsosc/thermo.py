"""Canonical-ensemble thermodynamics of the deformed oscillator at fixed l.

The partition sum runs over the principal quantum number at a fixed orbital
number (default l = 0) exactly as the level sum is defined; NO degeneracy
weights are inserted.  Only positive-branch energies enter the Boltzmann sum.

Three routes to Z cross-check one another: ``partition_direct`` (truncated sum
with a certified tail bound; the ground truth), ``partition_em_series`` (the
sum-to-integral reduction evaluated as an asymptotic series with optimal
truncation), and ``partition_highT`` (the first-order-in-theta closed form
that F, U, C, S are derived from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import OutOfRegimeError, NumericError, ParameterDomainError
from .model import BOLTZMANN, DeformationParams, OscillatorConfig, NATURAL, level_coefficients
from .parallel import parallel_map

METHODS = ("direct", "highT", "em", "numeric-derivative")
QUANTITIES = ("Z", "F", "U", "C", "S")


@dataclass(frozen=True)
class ThermoParams:
    """Dimensionless spectrum coefficients and ensemble constants at fixed l.

    a1 = 1 - a3 l (l + D - 2),  a2 = 2 w hbar / m c^2 + a3 (D - 1),
    a3 = hbar^2 (alpha1 + m^2 w^2 alpha2) / m^2 c^2, so the level energies are
    m c^2 sqrt(a1 + a2 n + a3 n^2).  ``d0`` is the temperature-independent
    part of delta(T) = 3 (kB T)^2 + d0, with d0 = (D - 1) hbar w m c^2 / 2.
    """

    a1: float
    a2: float
    a3: float
    l: int
    dim: int
    kB: float
    theta: float
    d0: float

    def delta(self, t: float) -> float:
        """delta(T) = 3 (kB T)^2 + (D - 1) hbar w m c^2 / 2, in energy^2."""
        return 3.0 * (self.kB * t) ** 2 + self.d0


def thermo_params(
    params: DeformationParams, cfg: OscillatorConfig, l: int = 0, kB: float | None = None
) -> ThermoParams:
    if int(l) != l or l < 0:
        raise ParameterDomainError(f"orbital number must be a nonnegative integer, got {l!r}")
    if kB is None:
        kB = 1.0 if cfg.units == NATURAL else BOLTZMANN
    dim = cfg.dim
    b, a3 = level_coefficients(params, cfg)
    a2 = b + a3 * (dim - 1.0)
    a1 = 1.0 - a3 * l * (l + dim - 2.0)
    if a1 <= 0.0:
        raise ParameterDomainError(
            f"ground coefficient a1 = {a1} <= 0 (deformation too large for l = {l})"
        )
    d0 = 0.5 * (dim - 1.0) * cfg.hbar * cfg.omega * cfg.mc2
    return ThermoParams(a1=a1, a2=a2, a3=a3, l=int(l), dim=dim, kB=kB, theta=params.theta, d0=d0)


def _check_temperature(t: float) -> None:
    if t <= 0.0:
        raise ParameterDomainError(f"temperature must be positive, got {t}")


def partition_direct(t: float, tp: ThermoParams, cfg: OscillatorConfig, tol: float = 1e-10) -> float:
    """Boltzmann sum over levels, truncated under a rigorous tail bound.

    The summand is exp(-beta sqrt(a1 + a2 n + a3 n^2)), which is bounded by
    both minorants sqrt(a3) n (geometric tail) and sqrt(a2 n) (dyadic-block
    tail); the smaller of the two certified bounds is used, so tiny a3 does
    not force the geometric route's enormous cutoffs.  Summation stops once
    the bound drops under tol times the partial sum.
    """
    _check_temperature(t)
    if tol <= 0.0:
        raise ParameterDomainError("tol must be positive")
    beta = cfg.mc2 / (tp.kB * t)
    total = 0.0
    start = 0
    block = 8192
    max_n = 1 << 34
    while start < max_n:
        ns = np.arange(start, start + block, dtype=float)
        total += float(np.sum(np.exp(-beta * np.sqrt(tp.a1 + tp.a2 * ns + tp.a3 * ns * ns))))
        start += block
        block = min(2 * block, 1 << 21)
        tail = math.inf
        if tp.a3 > 0.0:
            c = beta * math.sqrt(tp.a3)
            tail = math.exp(-c * start) / (-math.expm1(-c))
        if tp.a2 > 0.0:
            tail = min(tail, _dyadic_tail(start, beta, tp.a1, tp.a2))
        if tail <= tol * total:
            return total
    raise NumericError(f"partition sum did not certify convergence within {max_n} terms")


def _dyadic_tail(n0: int, beta: float, a1: float, a2: float) -> float:
    """Upper bound on sum_{n >= n0} exp(-beta sqrt(a1 + a2 n)) by dyadic blocks."""
    bound = 0.0
    width = float(n0)
    left = float(n0)
    for _ in range(200):
        term = width * math.exp(-beta * math.sqrt(a1 + a2 * left))
        bound += term
        if term < 1e-18 * max(bound, 1e-300):
            break
        left *= 2.0
        width = left
    return bound


class HighTPartition(NamedTuple):
    value: float
    in_regime: bool


def partition_highT(t: float, tp: ThermoParams, cfg: OscillatorConfig) -> HighTPartition:
    """First-order-in-theta closed form Z = (kB T)^2 / (m w hbar c^2) (1 - theta delta).

    Valid deep in the high-temperature regime; the flag turns False when
    kB T < 5 m c^2 or theta delta > 0.5.  theta delta >= 1 (nonpositive Z) is
    out of regime and raises.
    """
    _check_temperature(t)
    x = tp.kB * t
    td = tp.theta * tp.delta(t)
    if td >= 1.0:
        raise OutOfRegimeError(f"theta * delta = {td} >= 1: closed form nonpositive")
    value = x * x / (cfg.m * cfg.omega * cfg.hbar * cfg.c**2) * (1.0 - td)
    in_regime = (x >= 5.0 * cfg.mc2) and (td <= 0.5)
    return HighTPartition(value=value, in_regime=in_regime)


class EmSeriesResult(NamedTuple):
    value: float
    truncation_estimate: float
    terms_used: int


def partition_em_series(
    t: float, tp: ThermoParams, cfg: OscillatorConfig, n_terms: int = 24
) -> EmSeriesResult:
    """Sum-to-integral route evaluated as an asymptotic series in sigma.

    sigma = (kB T / m c^2)^2 * 4 a3 / (a2^2 - 4 a1 a3).  Term n carries
    G(2n + 2) (2n-1)!!/(2n)!! sigma^n with alternating sign, so the series
    diverges for any sigma > 0 and is summed with optimal truncation (stop at
    the smallest-magnitude term, or after ``n_terms``).  The returned error
    estimate adds the first omitted term to the boundary pieces the
    high-temperature reduction drops (half the n = 0 summand, the first
    derivative correction, the small-argument remainder of the leading
    integral); those dominate the truncation term whenever sigma is tiny, and
    the direct sum must sit within the estimate.
    """
    _check_temperature(t)
    if n_terms < 1:
        raise ParameterDomainError("n_terms must be at least 1")
    x = tp.kB * t
    mc2 = cfg.mc2
    disc = tp.a2 * tp.a2 - 4.0 * tp.a1 * tp.a3
    if disc <= 0.0:
        raise OutOfRegimeError(f"a2^2 - 4 a1 a3 = {disc} <= 0: series route undefined")
    sigma = (x / mc2) ** 2 * 4.0 * tp.a3 / disc
    if sigma >= 1.0:
        raise OutOfRegimeError(f"sigma = {sigma} >= 1: outside the asymptotic regime")
    if 3.0 * sigma >= 1.0:
        raise OutOfRegimeError(f"sigma = {sigma}: first correction already diverging")
    prefactor = 2.0 * (x / mc2) ** 2 / math.sqrt(disc)
    term = 1.0
    total = 0.0
    used = 0
    omitted = 0.0
    for k in range(n_terms):
        total += term if k % 2 == 0 else -term
        used += 1
        nxt = term * (2.0 * k + 1.0) * (2.0 * k + 3.0) * sigma
        if nxt >= term or used >= n_terms:
            omitted = nxt
            break
        term = nxt
    value = prefactor * total
    # boundary pieces dropped by the high-temperature reduction
    beta = mc2 / x
    chi = beta * math.sqrt(tp.a1)
    f0 = math.exp(-beta * math.sqrt(tp.a1))
    fp0 = -beta * tp.a2 / (2.0 * math.sqrt(tp.a1)) * f0
    phi0 = (tp.a1 / math.sqrt(disc)) * (-math.expm1(-chi)) / chi
    q = 4.0 * tp.a1 * tp.a3 / disc
    phi_total = phi0 / (1.0 - q) if q < 1.0 else math.inf
    estimate = prefactor * omitted + 0.5 * f0 + abs(fp0) / 6.0 + 1.5 * phi_total
    return EmSeriesResult(value=value, truncation_estimate=estimate, terms_used=used)


def free_energy(t: float, tp: ThermoParams, cfg: OscillatorConfig) -> float:
    """F = -kB T ln Z with the high-temperature closed form; increases with theta."""
    z = partition_highT(t, tp, cfg).value
    if z <= 0.0:
        raise OutOfRegimeError("nonpositive partition value")
    return -tp.kB * t * math.log(z)


def mean_energy(t: float, tp: ThermoParams, cfg: OscillatorConfig) -> float:
    """U = kB T^2 d(ln Z)/dT in its closed high-temperature form.

    U = 4 kB T [1 - (1 - theta d0) / (2 - theta (3 (kB T)^2 + delta))];
    reduces to 2 kB T at theta = 0.  Carries the first-order-in-theta
    truncation of its parent closed form; the finite-difference cross-check
    quantifies the residue.
    """
    _check_temperature(t)
    x = tp.kB * t
    denom = 2.0 - tp.theta * (3.0 * x * x + tp.delta(t))
    if denom <= 0.0:
        raise OutOfRegimeError(f"denominator {denom} <= 0 in the closed-form energy")
    return 4.0 * x * (1.0 - (1.0 - tp.theta * tp.d0) / denom)


def specific_heat(t: float, tp: ThermoParams, cfg: OscillatorConfig) -> float:
    """C = dU/dT in units of kB; exactly 2 at theta = 0 (constant), below 2 otherwise.

    C/kB = 4 [1 - (1 - theta d0)(2 + theta (9 x^2 - delta)) / (2 - theta (3 x^2 + delta))^2].
    """
    _check_temperature(t)
    x = tp.kB * t
    delta = tp.delta(t)
    denom = 2.0 - tp.theta * (3.0 * x * x + delta)
    if denom <= 0.0:
        raise OutOfRegimeError(f"denominator {denom} <= 0 in the closed-form specific heat")
    return 4.0 * (1.0 - (1.0 - tp.theta * tp.d0) * (2.0 + tp.theta * (9.0 * x * x - delta)) / (denom * denom))


def entropy(t: float, tp: ThermoParams, cfg: OscillatorConfig) -> float:
    """S = -dF/dT in units of kB (exact derivative of the closed-form F).

    S/kB = 2 (1 - theta (3 x^2 + delta)) / (1 - theta delta) + ln Z.
    """
    _check_temperature(t)
    x = tp.kB * t
    delta = tp.delta(t)
    td = tp.theta * delta
    if td >= 1.0:
        raise OutOfRegimeError(f"theta * delta = {td} >= 1")
    z = partition_highT(t, tp, cfg).value
    return 2.0 * (1.0 - tp.theta * (3.0 * x * x + delta)) / (1.0 - td) + math.log(z)


def _log_z(kind: str, t: float, tp: ThermoParams, cfg: OscillatorConfig, tol: float) -> float:
    if kind == "direct":
        return math.log(partition_direct(t, tp, cfg, tol))
    if kind == "em":
        return math.log(partition_em_series(t, tp, cfg).value)
    return math.log(partition_highT(t, tp, cfg).value)


def _numeric_ucs(kind: str, t: float, tp: ThermoParams, cfg: OscillatorConfig, tol: float = 1e-10):
    """(U, C/kB, S/kB) from five-point finite differences of ln Z.

    Centered stencils at h = 1e-4 T combined with an h/2 pass by Richardson
    extrapolation, so the residue of the closed forms is measured well below
    the tolerance the cross-check cares about.
    """

    def ucs(h: float):
        ts = (t - 2 * h, t - h, t, t + h, t + 2 * h)
        ln = [_log_z(kind, ti, tp, cfg, tol) for ti in ts]
        d1 = (-ln[4] + 8.0 * ln[3] - 8.0 * ln[1] + ln[0]) / (12.0 * h)
        d2 = (-ln[4] + 16.0 * ln[3] - 30.0 * ln[2] + 16.0 * ln[1] - ln[0]) / (12.0 * h * h)
        u = tp.kB * t * t * d1
        c = 2.0 * t * d1 + t * t * d2
        s = ln[2] + t * d1
        return u, c, s

    h = 1e-4 * t
    coarse = ucs(h)
    fine = ucs(0.5 * h)
    return tuple((16.0 * f - c) / 15.0 for f, c in zip(fine, coarse))


@dataclass
class ThermoCurve:
    """Temperature grid with per-method Z, F, U, C, S columns and regime flags.

    ``data[method][quantity]`` is an array over the grid; out-of-regime points
    hold NaN and flip the method's flag to False instead of aborting the run.
    C and S columns are in units of kB.
    """

    temperatures: np.ndarray
    data: dict
    flags: dict
    meta: dict


def thermo_curve(
    t_grid: Sequence[float],
    tp: ThermoParams,
    cfg: OscillatorConfig,
    methods: Sequence[str] = ("highT",),
    tol: float = 1e-10,
) -> ThermoCurve:
    """Tabulate all quantities per requested method over the temperature grid."""
    grid = np.asarray(list(t_grid), dtype=float)
    if grid.size and np.any(np.diff(grid) <= 0.0):
        raise ParameterDomainError("temperature grid must be strictly increasing")
    for method in methods:
        if method not in METHODS:
            raise ParameterDomainError(f"unknown method {method!r}; choose from {METHODS}")

    def point(t: float) -> dict:
        out = {}
        for method in methods:
            try:
                if method == "direct":
                    z = partition_direct(t, tp, cfg, tol)
                    u, c, s = _numeric_ucs("direct", t, tp, cfg, tol)
                    ok = True
                elif method == "em":
                    z = partition_em_series(t, tp, cfg).value
                    u, c, s = _numeric_ucs("em", t, tp, cfg)
                    ok = True
                elif method == "numeric-derivative":
                    res = partition_highT(t, tp, cfg)
                    z, ok = res.value, res.in_regime
                    u, c, s = _numeric_ucs("highT", t, tp, cfg)
                else:
                    res = partition_highT(t, tp, cfg)
                    z, ok = res.value, res.in_regime
                    u = mean_energy(t, tp, cfg)
                    c = specific_heat(t, tp, cfg)
                    s = entropy(t, tp, cfg)
                f = -tp.kB * t * math.log(z)
                out[method] = ((z, f, u, c, s), ok)
            except OutOfRegimeError:
                out[method] = ((math.nan,) * 5, False)
        return out

    points = parallel_map(point, grid)
    data = {m: {q: np.empty(grid.size) for q in QUANTITIES} for m in methods}
    flags = {m: np.ones(grid.size, dtype=bool) for m in methods}
    for i, res in enumerate(points):
        for m in methods:
            (z, f, u, c, s), ok = res[m]
            data[m]["Z"][i] = z
            data[m]["F"][i] = f
            data[m]["U"][i] = u
            data[m]["C"][i] = c
            data[m]["S"][i] = s
            flags[m][i] = ok
    meta = {
        "l": tp.l,
        "dim": tp.dim,
        "theta": tp.theta,
        "a1": tp.a1,
        "a2": tp.a2,
        "a3": tp.a3,
        "methods": list(methods),
    }
    return ThermoCurve(temperatures=grid, data=data, flags=flags, meta=meta)
