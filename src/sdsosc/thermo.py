"""Canonical-ensemble thermodynamics of the deformed oscillator at fixed l.

The partition sum runs over the principal quantum number at a fixed orbital
number (default l = 0) exactly as the level sum is defined; NO degeneracy
weights are inserted.  Only positive-branch energies enter the Boltzmann sum.

Three routes to Z cross-check one another: ``partition_direct`` (truncated sum
with a certified tail bound; the ground truth, whose ``partition_moments`` pass
also gives U, C and S as exact canonical moments), ``partition_em_series`` (the
sum-to-integral reduction evaluated as an asymptotic series with optimal
truncation), and ``partition_highT`` (the first-order-in-theta closed form
that F, U, C, S are derived from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import OutOfRegimeError, NumericError, ParameterDomainError, check_above, check_count
from .model import BOLTZMANN, DeformationParams, OscillatorConfig, NATURAL, level_coefficients
from .parallel import parallel_map

METHODS = ("direct", "highT", "em", "numeric-derivative")
QUANTITIES = ("Z", "F", "U", "C", "S")
_CHUNK = 1 << 14  # levels per step of the moment pass: its three 128 KiB buffers stay in L2


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


def thermo_params(params: DeformationParams, cfg: OscillatorConfig, l: int = 0) -> ThermoParams:
    """Spectrum coefficients at orbital number l; kB is 1 in natural units, CODATA's in SI."""
    l = check_count(l, "orbital number")
    kB = 1.0 if cfg.units == NATURAL else BOLTZMANN
    dim = cfg.dim
    b, a3 = level_coefficients(params, cfg)
    a2 = b + a3 * (dim - 1.0)
    a1 = 1.0 - a3 * l * (l + dim - 2.0)
    if a1 <= 0.0:
        raise ParameterDomainError(f"ground coefficient a1 = {a1} <= 0 (deformation too large for l = {l})")
    d0 = 0.5 * (dim - 1.0) * cfg.hbar * cfg.omega * cfg.mc2
    return ThermoParams(a1=a1, a2=a2, a3=a3, l=l, dim=dim, kB=kB, theta=params.theta, d0=d0)


def _check_temperature(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise ParameterDomainError(f"temperature must be finite and positive, got {t}")


class BoltzmannMoments(NamedTuple):
    """Z, F, U, C/kB and S/kB of the level sum, with ``tails[k]`` bounding the omitted
    sum_{n >= terms} dE_n^k exp(-beta dE_n), dE_n = (E_n - E_0) / m c^2."""

    z: float
    f: float
    u: float
    c: float
    s: float
    tails: tuple
    terms: int


def partition_moments(t: float, tp: ThermoParams, cfg: OscillatorConfig, tol: float = 1e-10) -> BoltzmannMoments:
    """Exact canonical moments from one pass for s_k = sum_n dE_n^k exp(-beta dE_n), k = 0, 1, 2.

    ln Z = ln s0 - beta e0 (F stays finite where Z underflows), U = m c^2 (e0 + s1/s0),
    C/kB = beta^2 Var dE, S/kB = ln Z + U / kB T; beta = m c^2 / kB T, e_n = E_n / m c^2
    = sqrt(a1 + a2 n + a3 n^2) and dE_n = (a2 n + a3 n^2) / (e_n + e0).  Summation stops
    once every tail bound is below tol * s_k.  g_k(x) = x^k exp(-beta x) decreases
    for x >= k / beta, so if L(n) <= dE_n increases and beta L(N) >= k, each term
    with n >= N is at most g_k(L(n)).  The smaller of two such tail bounds is used:
    - geometric (a3 > 0): e_n >= sqrt(a3) n, L(n) = sqrt(a3) n - e0, g_k(L(n)) <=
      a3^(k/2) n^k exp(beta e0) q^n, q = exp(-beta sqrt(a3)).  With r = 1/(1 - q),
      sum_{n>=N} n^k q^n = q^N P_k for P_0 = r, P_1 = N r + q r^2 and
      P_2 = N^2 r + 2 N q r^2 + q (1 + q) r^3: tail <= a3^(k/2) exp(-beta L(N)) P_k.
    - dyadic: e_n >= sqrt(a1 + a2 n), L(n) = sqrt(a1 + a2 n) - e0 is concave, L(0) = 0.
      On each block [m, 2m), m = 2^j N, terms are at most g_k(L(m)), so tail <=
      sum_j m g_k(L(m)).  As L(2m) <= 2 L(m), block j + 1 over block j is at most
      rho_j = 2^(k+1) exp(-beta h(m)), h(m) = L(2m) - L(m) increasing: once
      rho_j <= 1/2 the blocks after j add at most block j.
    Blocks of 8192 levels, doubling to 2^20, are worked in chunks of _CHUNK = 2^14
    levels through three buffers allocated once per call, so memory stays fixed at
    any temperature.  Each chunk repeats the element-wise steps of a whole-block
    pass; its sums are added in pairs, halves first, which is the order NumPy's
    pairwise sum takes over a power-of-two block, so s_k is bit-identical to
    summing the block as one array.
    """
    _check_temperature(t)
    check_above(tol, 0.0, "tol")
    beta = cfg.mc2 / (tp.kB * t)
    if not math.isfinite(beta * beta):
        raise ParameterDomainError(f"temperature {t} is too small: (m c^2 / kB T)^2 overflows")
    e0, s0, s1, s2 = math.sqrt(tp.a1), 0.0, 0.0, 0.0
    ramp, w, de = np.arange(_CHUNK, dtype=float), np.empty(_CHUNK), np.empty(_CHUNK)
    start, block, max_n = 0, 8192, 1 << 34
    while start < max_n:
        size = min(block, _CHUNK)
        r, wc, dc = ramp[:size], w[:size], de[:size]
        parts = []
        with np.errstate(all="ignore"):  # overflow is tested once per block below
            for lo in range(start, start + block, size):
                np.add(r, lo, out=wc)
                np.multiply(wc, tp.a3, out=dc)
                dc += tp.a2
                dc *= wc
                np.sqrt(np.add(dc, tp.a1, out=wc), out=wc)
                wc += e0
                dc /= wc
                np.exp(np.multiply(dc, -beta, out=wc), out=wc)
                p0 = float(wc.sum())
                wc *= dc
                p1 = float(wc.sum())
                wc *= dc
                parts.append((p0, p1, float(wc.sum())))
        while len(parts) > 1:  # NumPy's pairwise order over the whole block: halves first
            parts = [(a[0] + b[0], a[1] + b[1], a[2] + b[2]) for a, b in zip(parts[::2], parts[1::2])]
        s0, s1, s2 = (s + part for s, part in zip((s0, s1, s2), parts[0]))
        if not math.isfinite(s0 + s1 + s2):  # one test per block: a2 or a3 n^2 overflowed
            raise NumericError(f"partition sum: the level energies overflow double precision "
                               f"(a2 = {tp.a2!r}, a3 = {tp.a3!r})")
        start, block = start + block, min(2 * block, 1 << 20)
        tails = tuple(_moment_tail(k, start, beta, e0, tp) for k in range(3))
        if all(tail <= tol * s for tail, s in zip(tails, (s0, s1, s2))):
            mean, log_s0 = s1 / s0, math.log(s0)
            return BoltzmannMoments(s0 * math.exp(-beta * e0), cfg.mc2 * e0 - tp.kB * t * log_s0,
                                    cfg.mc2 * (e0 + mean), beta * beta * (s2 / s0 - mean * mean),
                                    log_s0 + beta * mean, tails, start)
    raise NumericError(f"partition sum did not certify convergence within {max_n} terms")


def _moment_tail(k: int, n0: int, beta: float, e0: float, tp: ThermoParams) -> float:
    """Upper bound on sum_{n >= n0} dE_n^k exp(-beta dE_n); proof in ``partition_moments``."""
    tail = math.inf
    c = beta * math.sqrt(tp.a3)
    if c > 0.0 and c * n0 - beta * e0 >= k:  # beta L(N) >= k for the geometric minorant
        q, r = math.exp(-c), -1.0 / math.expm1(-c)
        poly = (r, n0 * r + q * r * r, n0 * n0 * r + 2.0 * n0 * q * r * r + q * (1.0 + q) * r**3)[k]
        tail = tp.a3 ** (0.5 * k) * math.exp(beta * e0 - c * n0) * poly

    def dyadic(m: float) -> float:
        return tp.a2 * m / (math.sqrt(tp.a1 + tp.a2 * m) + e0)

    m, bound = float(n0), 0.0
    while beta * dyadic(m) >= k and m < 1e300:
        low, high = dyadic(m), dyadic(2.0 * m)
        term = m * low**k * math.exp(-beta * low)
        bound += term
        if 2.0 ** (k + 1) * math.exp(-beta * (high - low)) <= 0.5:
            return min(tail, bound + term)
        m *= 2.0
    return tail


def partition_direct(t: float, tp: ThermoParams, cfg: OscillatorConfig, tol: float = 1e-10) -> float:
    """Boltzmann sum over levels under a rigorous tail bound (``partition_moments``); the ground truth."""
    return partition_moments(t, tp, cfg, tol).z


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


def partition_em_series(t: float, tp: ThermoParams, cfg: OscillatorConfig, n_terms: int = 24) -> EmSeriesResult:
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
    n_terms = check_count(n_terms, "n_terms", low=1)
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
    term, total = 1.0, 0.0
    for used in range(1, n_terms + 1):
        total += term if used % 2 == 1 else -term
        omitted = term * (2.0 * used - 1.0) * (2.0 * used + 1.0) * sigma
        if omitted >= term:
            break
        term = omitted
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
    x = tp.kB * t
    delta = tp.delta(t)
    z = partition_highT(t, tp, cfg).value  # raises OutOfRegimeError once theta delta >= 1
    return 2.0 * (1.0 - tp.theta * (3.0 * x * x + delta)) / (1.0 - tp.theta * delta) + math.log(z)


def _numeric_ucs(kind: str, t: float, tp: ThermoParams, cfg: OscillatorConfig):
    """(U, C/kB, S/kB) from five-point finite differences of ln Z.

    Centered stencils at h = 1e-4 T combined with an h/2 pass by Richardson
    extrapolation, so the residue of the closed forms is measured well below
    the tolerance the cross-check cares about.
    """
    partition = partition_em_series if kind == "em" else partition_highT

    def ucs(h: float):
        ts = (t - 2 * h, t - h, t, t + h, t + 2 * h)
        ln = [math.log(partition(ti, tp, cfg).value) for ti in ts]
        d1 = (-ln[4] + 8.0 * ln[3] - 8.0 * ln[1] + ln[0]) / (12.0 * h)
        d2 = (-ln[4] + 16.0 * ln[3] - 30.0 * ln[2] + 16.0 * ln[1] - ln[0]) / (12.0 * h * h)
        return tp.kB * t * t * d1, 2.0 * t * d1 + t * t * d2, ln[2] + t * d1  # U, C/kB, S/kB

    coarse, fine = ucs(1e-4 * t), ucs(0.5e-4 * t)
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


def thermo_curve(t_grid: Sequence[float], tp: ThermoParams, cfg: OscillatorConfig,
                 methods: Sequence[str] = ("highT",)) -> ThermoCurve:
    """Tabulate all quantities per requested method over the temperature grid.

    ``direct`` gives U, C and S as exact canonical moments of the certified sum;
    ``em`` and ``numeric-derivative`` difference ln Z of their partition route.
    """
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
                ok, f = True, None
                if method == "direct":
                    z, f, u, c, s = partition_moments(t, tp, cfg)[:5]
                elif method == "em":
                    z = partition_em_series(t, tp, cfg).value
                    u, c, s = _numeric_ucs("em", t, tp, cfg)
                else:
                    z, ok = partition_highT(t, tp, cfg)
                    if method == "numeric-derivative":
                        u, c, s = _numeric_ucs("highT", t, tp, cfg)
                    else:
                        u, c, s = mean_energy(t, tp, cfg), specific_heat(t, tp, cfg), entropy(t, tp, cfg)
                out[method] = ((z, -tp.kB * t * math.log(z) if f is None else f, u, c, s), ok)
            except OutOfRegimeError:
                out[method] = ((math.nan,) * 5, False)
        return out

    points = parallel_map(point, grid)
    data = {m: {q: np.empty(grid.size) for q in QUANTITIES} for m in methods}
    flags = {m: np.ones(grid.size, dtype=bool) for m in methods}
    for i, res in enumerate(points):
        for m in methods:
            values, flags[m][i] = res[m]
            for q, v in zip(QUANTITIES, values):
                data[m][q][i] = v
    meta = {"l": tp.l, "dim": tp.dim, "theta": tp.theta, "a1": tp.a1, "a2": tp.a2, "a3": tp.a3,
            "methods": list(methods)}
    return ThermoCurve(temperatures=grid, data=data, flags=flags, meta=meta)
