"""Independent checks of the files written by benchmark operations.

Nothing here imports ``sdsosc``: every reference value comes from the paper's
closed forms evaluated with NumPy, ``scipy.special`` and ``mpmath``, from a
brute-force Boltzmann sum, or from properties the method must have.  All
quantities are in natural units (hbar = c = m = omega = kB = 1), which is what
the benchmark's operations request.

``check_op(op)`` returns the failed checks of one operation as
"name: detail" strings; an empty list means the output passed.  Run as a
script, the module serves a benchmark run: it reads one JSON list of
operations per line on stdin and answers with one JSON list of failure lists
per line on stdout.
"""

from __future__ import annotations

import json
import math
import sys

import mpmath
import numpy as np
from scipy import special

from workloads import QUANTITY

EPS = np.finfo(float).eps
THETAS = (0.0, 1e-6, 1e-5)
METHODS = ("direct", "highT", "em", "numeric-derivative")
# The direct route certifies Z to 1e-10 relative, so each ln Z it evaluates
# may be off by this much; U, C, S are Richardson-extrapolated five-point
# differences of ln Z with step h = 1e-4 T and h / 2 (see direct_tolerance).
LN_Z_TOL = 1e-10
ND_RTOL = 1e-4
# Scale-relative tolerance of sampled wavefunctions (the recurrences lose
# relative accuracy near polynomial zeros, so compare against max |psi|).
WF_TOL = 1e-10
NORM_TOL = 1e-10


def read_table(path: str):
    """(metadata dict, column names, float array) of a '#'-headed CSV file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = {}
    i = 0
    while lines[i].startswith("#"):
        key, _, value = lines[i][2:].partition(": ")
        meta[key] = json.loads(value)
        i += 1
    columns = lines[i].split(",")
    data = np.loadtxt(lines[i + 1:], delimiter=",", ndmin=2)
    return meta, columns, data


def _worst(values, reference, tol):
    """Largest |values - reference| / tol, with tol an array or scalar."""
    return float(np.max(np.abs(values - reference) / tol)) if np.size(values) else 0.0


# ---------------------------------------------------------------- spectrum

def _radicand(n, l, dim, k2):
    return 1.0 + 2.0 * n + k2 * (n * n + (dim - 1.0) * n - l * (l + dim - 2.0))


def _spacing(n, l, dim, k2, step):
    """E(n + step, l) - E(n, l) without cancellation."""
    diff = 2.0 * step + k2 * (2.0 * n * step + step * step + (dim - 1.0) * step)
    return diff / (np.sqrt(_radicand(n + step, l, dim, k2)) + np.sqrt(_radicand(n, l, dim, k2)))


def check_spectrum(op: dict) -> list[str]:
    p = op["params"]
    dim, n_max, k2 = p["dim"], p["n_max"], p["alpha1"] + p["alpha2"]
    _, _, data = read_table(op["files"][0])
    fails = []
    if dim == 1:
        n_ref = np.arange(n_max + 1, dtype=float)
        l_ref = np.zeros_like(n_ref)
    else:
        pairs = [(n, l) for n in range(n_max + 1) for l in range(n % 2, n + 1, 2)]
        n_ref, l_ref = (np.array(col, dtype=float) for col in zip(*pairs))
    expected_rows = n_max + 1 if dim == 1 else sum(n // 2 + 1 for n in range(n_max + 1))
    if data.shape != (expected_rows, 6) or not (
        np.array_equal(data[:, 0], n_ref) and np.array_equal(data[:, 1], l_ref) and np.all(data[:, 2] == dim)
    ):
        return [f"spectrum-rows: shape {data.shape}, expected {expected_rows} rows of (n, l, dim)"]
    n, l = n_ref, l_ref
    energy = np.sqrt(_radicand(n, l, dim, k2))
    worst = _worst(data[:, 3], energy, 1e-12 * energy)
    if worst > 1.0:
        fails.append(f"spectrum-energy: worst error {worst:.3g} x tolerance")
    step = 1.0 if dim == 1 else 2.0
    spacing = _spacing(n, l, dim, k2, step)
    # the program subtracts two energies, so allow a few ulps of E(n + step)
    tol = 1e-12 * spacing + 8.0 * EPS * np.sqrt(_radicand(n + step, l, dim, k2))
    worst = _worst(data[:, 4], spacing, tol)
    if worst > 1.0:
        fails.append(f"spectrum-spacing: worst error {worst:.3g} x tolerance")
    shift = k2 * (n * n + (dim - 1.0) * n - l * (l + dim - 2.0)) / (2.0 * np.sqrt(1.0 + 2.0 * n))
    worst = _worst(data[:, 5], shift, 1e-12 * np.abs(shift) + 1e-300)
    if worst > 1.0:
        fails.append(f"spectrum-first-order: worst error {worst:.3g} x tolerance")
    return fails


def check_figure1(op: dict) -> list[str]:
    p = op["params"]
    k2 = p["alpha1"] + p["alpha2"]
    _, _, data = read_table(op["files"][0])
    fails = []
    n = data[:, 0]
    if not (n[0] == 1 and n[-1] == p["n_max"] and np.all(np.diff(n) > 0) and np.all(n == np.round(n))):
        return [f"figure1-grid: n column runs {n[0]}..{n[-1]}, expected increasing integers 1..{p['n_max']}"]
    scale = 8.0 * EPS * np.sqrt(2.0 * n + 3.0)
    undeformed = 2.0 / (np.sqrt(2.0 * n + 3.0) + np.sqrt(2.0 * n + 1.0))
    worst = _worst(data[:, 1], undeformed, 1e-12 * undeformed + scale)
    if worst > 1.0:
        fails.append(f"figure1-undeformed: worst error {worst:.3g} x tolerance")
    deformed = _spacing(n, 0.0, 1, k2, 1.0)
    top = np.sqrt(_radicand(n + 1.0, 0.0, 1, k2))
    worst = _worst(data[:, 2], deformed, 1e-12 * deformed + 8.0 * EPS * top)
    asymptote = math.sqrt(k2)
    if worst > 1.0 or not (np.all(np.diff(data[:, 2]) < 0) and np.all(data[:, 2] > asymptote)):
        fails.append(f"figure1-deformed: worst error {worst:.3g} x tolerance, "
                     f"or not decreasing toward {asymptote:.6g}")
    return fails


# ---------------------------------------------------------------- thermo

def boltzmann_moments(t: float, theta: float) -> dict:
    """F, U, C, S from a brute-force sum over n >= 0 of exp(-E_n / T) with
    E_n = sqrt(1 + (2 + 2 theta) n + theta n^2) (D = 3, l = 0), run until the
    terms fall below e^-38 of the ground term."""
    a2 = 2.0 + 2.0 * theta
    e_cut = 1.0 + 38.0 * t
    if theta > 0.0:
        n_cut = (-a2 + math.sqrt(a2 * a2 + 4.0 * theta * (e_cut * e_cut - 1.0))) / (2.0 * theta)
    else:
        n_cut = (e_cut * e_cut - 1.0) / a2
    n = np.arange(int(n_cut) + 2, dtype=float)
    energy = np.sqrt(1.0 + a2 * n + theta * n * n)
    weight = np.exp(-(energy - 1.0) / t)
    z = float(np.sum(weight))
    u = float(np.sum(energy * weight)) / z
    var = float(np.sum((energy - u) ** 2 * weight)) / z
    ln_z = math.log(z) - 1.0 / t
    return {"F": -t * ln_z, "U": u, "C": var / (t * t), "S": ln_z + u / t}


def direct_tolerance(q: str, t: float) -> float:
    """Largest error of the direct route's q at temperature t that the
    certified ln Z accuracy allows.

    A five-point first difference has noise gain 18 / 12h, the second
    difference 64 / 12h^2; Richardson's (16 f(h/2) - f(h)) / 15 combines the
    gains at h / 2 and h.  U = T^2 d1, C = 2T d1 + T^2 d2, S = ln Z + T d1 and
    F = -T ln Z then give the bounds below.
    """
    h = 1e-4 * t
    g1 = (16.0 * 18.0 / (12.0 * h / 2) + 18.0 / (12.0 * h)) / 15.0
    g2 = (16.0 * 64.0 / (12.0 * (h / 2) ** 2) + 64.0 / (12.0 * h * h)) / 15.0
    gain = {"F": t, "U": t * t * g1, "C": 2.0 * t * g1 + t * t * g2, "S": 1.0 + t * g1}[q]
    return gain * LN_Z_TOL


def _undeformed_highT(t: float) -> dict:
    """Closed forms at theta = 0: Z = T^2, so U = 2T, C = 2, S = 2 + ln T^2."""
    ln_z = math.log(t * t)
    return {"F": -t * ln_z, "U": 2.0 * t, "C": 2.0, "S": 2.0 + ln_z}


def check_thermo(op: dict) -> list[str]:
    p = op["params"]
    q = QUANTITY[p["figure"]]
    _, columns, data = read_table(op["files"][0])
    col = {name: i for i, name in enumerate(columns)}
    grid = np.linspace(p["t_min"], p["t_max"], p["t_count"])
    expected = ["T"] + [f"{kind}[theta={th:g}][{m}]" for th in THETAS for m in METHODS
                        for kind in (q, "in_regime")]
    if columns != expected or data.shape[0] != grid.size or not np.allclose(data[:, 0], grid, rtol=1e-15, atol=0):
        return [f"thermo-layout: columns {columns[:3]}..., {data.shape[0]} rows"]

    def values(theta, method):
        return data[:, col[f"{q}[theta={theta:g}][{method}]"]], data[:, col[f"in_regime[theta={theta:g}][{method}]"]] == 1

    fails = []
    worst = 0.0
    for theta in THETAS:
        direct, _ = values(theta, "direct")
        for i, t in enumerate(grid):
            ref = boltzmann_moments(t, theta)[q]
            tol = direct_tolerance(q, t) + 1e-13 * abs(ref)  # + the checker's own rounding
            worst = max(worst, abs(direct[i] - ref) / tol)
    if worst > 1.0:
        fails.append(f"thermo-direct: worst error {worst:.3g} x tolerance")

    high0, _ = values(0.0, "highT")
    ref = np.array([_undeformed_highT(t)[q] for t in grid])
    worst = _worst(high0, ref, 1e-13 * np.abs(ref))
    if worst > 1.0:
        fails.append(f"thermo-highT-undeformed: worst error {worst:.3g} x tolerance 1e-13")

    sign = 1.0 if q == "F" else -1.0  # F rises with theta; U, C, S fall
    for method in ("direct", "highT", "numeric-derivative"):
        cols = [values(theta, method) for theta in THETAS]
        ok = np.logical_and.reduce([flag for _, flag in cols])
        series = np.array([v for v, _ in cols])
        steps = sign * np.diff(series, axis=0)
        if not np.all(steps[:, ok] > 0):
            fails.append(f"thermo-monotone: {q} [{method}] not monotone in theta")

    worst = 0.0
    for theta in THETAS:
        nd, nd_ok = values(theta, "numeric-derivative")
        high, high_ok = values(theta, "highT")
        ok = nd_ok & high_ok
        if np.any(ok):
            worst = max(worst, _worst(nd[ok], high[ok], ND_RTOL * np.abs(high[ok])))
    if worst > 1.0:
        fails.append(f"thermo-numeric-derivative: worst error {worst:.3g} x tolerance {ND_RTOL:g}")
    return fails


# ---------------------------------------------------------------- wavefunctions

def _state(p: dict):
    """(nu, a, b, ln of the measure's constant, ln of the normalization
    constant squared) of a state, from the closed-form weighted norms."""
    nu = 1.0 / (p["alpha1"] + p["alpha2"])
    n, l, dim, alpha2 = p["n"], p["l"], p["dim"], p["alpha2"]
    if dim == 1:
        # int (1 - a2 p^2)^(-1/2) psi^2 dp = L^2 / sqrt(a2) * h_n(C^nu)
        a = b = nu - 0.5
        ln_h = (math.log(math.pi) + (1.0 - 2.0 * nu) * math.log(2.0) + special.gammaln(n + 2.0 * nu)
                - special.gammaln(n + 1.0) - math.log(n + nu) - 2.0 * special.gammaln(nu))
        ln_measure = -0.5 * math.log(alpha2)
    else:
        # z = 2 a2 p^2 - 1 maps D p^(D-1) (1 - a2 p^2)^(-1/2) dp onto the
        # Jacobi weight (1 - z)^a (1 + z)^b times this constant
        a, b = nu - 0.5, l - 1.0 + dim / 2.0
        ln_h = ((a + b + 1.0) * math.log(2.0) - math.log(2.0 * n + a + b + 1.0)
                + special.gammaln(n + a + 1.0) + special.gammaln(n + b + 1.0)
                - special.gammaln(n + a + b + 1.0) - special.gammaln(n + 1.0))
        ln_measure = (math.log(dim) - math.log(4.0 * alpha2) - 0.5 * (dim - 2.0) * math.log(2.0 * alpha2)
                      + (0.5 - nu - l) * math.log(2.0))
    return nu, a, b, ln_measure, -(ln_measure + ln_h)


def _shape(p: dict, nu: float, a: float, b: float, momenta):
    """(ln envelope, polynomial) of the unnormalized state at each momentum."""
    n, l, dim, alpha2 = p["n"], p["l"], p["dim"], p["alpha2"]
    with np.errstate(divide="ignore"):
        if dim == 1:
            u = math.sqrt(alpha2) * momenta
            return 0.5 * nu * np.log1p(-u * u), special.eval_gegenbauer(n, nu, u)
        w = alpha2 * momenta * momenta
        ln_env = 0.5 * nu * np.log1p(-w)
        if l > 0:
            ln_env = ln_env + 0.5 * l * np.log(w)
        return ln_env, special.eval_jacobi(n, a, b, 2.0 * w - 1.0)


def _mp_value(p: dict, nu: float, a: float, b: float, ln_norm2: float, momentum: float) -> float:
    with mpmath.workdps(30):
        n, l, dim, alpha2 = p["n"], p["l"], p["dim"], mpmath.mpf(p["alpha2"])
        pm = mpmath.mpf(momentum)
        if dim == 1:
            u = mpmath.sqrt(alpha2) * pm
            value = (1 - u * u) ** (mpmath.mpf(nu) / 2) * mpmath.gegenbauer(n, nu, u)
        else:
            w = alpha2 * pm * pm
            value = (1 - w) ** (mpmath.mpf(nu) / 2) * w ** (mpmath.mpf(l) / 2) * mpmath.jacobi(n, a, b, 2 * w - 1)
        return float(mpmath.exp(mpmath.mpf(ln_norm2) / 2) * value)


def check_wavefunction(op: dict) -> list[str]:
    p = op["params"]
    meta, _, data = read_table(op["files"][0])
    momenta, psi = data[:, 0], data[:, 1]
    if psi.size != p["p_count"] or not np.all(np.isfinite(psi)):
        return [f"wavefunction-layout: {psi.size} finite samples expected {p['p_count']}"]
    nu, a, b, ln_measure, ln_norm2 = _state(p)
    ln_env, poly = _shape(p, nu, a, b, momenta)
    with np.errstate(under="ignore"):
        ref = np.where(np.isneginf(ln_env), 0.0, np.exp(0.5 * ln_norm2 + ln_env)) * poly
    fails = []
    scale = float(np.max(np.abs(ref)))
    worst = _worst(psi, ref, WF_TOL * scale)
    peak = int(np.argmax(np.abs(psi)))
    for i in sorted({peak, psi.size // 3, (2 * psi.size) // 3}):
        worst = max(worst, abs(psi[i] - _mp_value(p, nu, a, b, ln_norm2, momenta[i])) / (WF_TOL * scale))
    if worst > 1.0:
        fails.append(f"wavefunction-samples: worst error {worst:.3g} x tolerance")

    # norm of the output's own state: its amplitude at the peak sample times
    # the unnormalized shape, integrated on scipy's Gauss-Jacobi nodes
    ln_amp2 = 2.0 * (math.log(abs(psi[peak])) - ln_env[peak] - math.log(abs(poly[peak])))
    nodes, weights = special.roots_jacobi(p["n"] + 2, a, b)
    poly_nodes = (special.eval_gegenbauer(p["n"], nu, nodes) if p["dim"] == 1
                  else special.eval_jacobi(p["n"], a, b, nodes))
    norm = math.exp(ln_amp2 + ln_measure) * float(np.dot(weights, poly_nodes * poly_nodes))
    if abs(norm - 1.0) > NORM_TOL:
        fails.append(f"wavefunction-norm-quadrature: norm {norm!r}")
    if abs(meta.get("norm_check", math.nan) - 1.0) > NORM_TOL:
        fails.append(f"wavefunction-norm-header: norm_check {meta.get('norm_check')!r}")
    if p["dim"] == 1:
        mirror = psi[::-1] * (-1.0) ** p["n"]
        if not np.allclose(momenta, -momenta[::-1], rtol=0, atol=4 * EPS * np.max(np.abs(momenta))) or \
                _worst(psi, mirror, 1e-11 * scale) > 1.0:
            fails.append("wavefunction-parity: psi(-p) != (-1)^n psi(p)")
    return fails


CHECKS = {
    "spectrum": check_spectrum,
    "figure1": check_figure1,
    "thermo": check_thermo,
    "wavefunction": check_wavefunction,
}


def check_op(op: dict) -> list[str]:
    try:
        return CHECKS[op["kind"]](op)
    except Exception as exc:  # noqa: BLE001 - an output no check can read fails its operation
        return [f"unreadable-output: {type(exc).__name__}: {exc}"]


def serve() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps([check_op(op) for op in json.loads(line)]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
