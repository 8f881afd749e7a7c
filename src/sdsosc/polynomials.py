"""Orthogonal-polynomial kernel: Gegenbauer, Jacobi and Hermite recurrences,
a domain-checked log-gamma, closed-form weighted norms in log space, and
Gauss-Jacobi quadrature rules.

All polynomial evaluation goes through the forward three-term recurrences in
double precision (O(n) per value, stable on [-1, 1]); no Gamma-function ratios
appear inside loops.  Normalization constants elsewhere in the package are
assembled from ``log_gamma`` and exponentiated last, because the Gamma values
themselves overflow once the envelope exponent passes ~85.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, check_above, check_count

LN2 = math.log(2.0)
LNPI = math.log(math.pi)
LN2PI = math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (the C library's lgamma, a few ulp accurate)."""
    check_above(x, 0.0, "log_gamma argument")
    return math.lgamma(x)


def gegenbauer(n: int, nu: float, x):
    """Gegenbauer polynomial C_n^nu(x) by the three-term recurrence.

    Accepts scalars or numpy arrays for ``x``.  Requires nu > -1/2; n = 0
    gives 1 and n = 1 gives 2 nu x.
    """
    n = check_count(n, "degree")
    check_above(nu, -0.5, "gegenbauer nu")
    if n == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    prev = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    cur = 2.0 * nu * x
    for k in range(1, n):
        prev, cur = cur, (2.0 * (k + nu) * x * cur - (k + 2.0 * nu - 1.0) * prev) / (k + 1.0)
    return cur


def jacobi(n: int, a: float, b: float, z):
    """Jacobi polynomial P_n^(a,b)(z), a, b > -1, by the three-term recurrence."""
    n = check_count(n, "degree")
    check_above(a, -1.0, "jacobi a")
    check_above(b, -1.0, "jacobi b")
    if n == 0:
        return np.ones_like(z) if isinstance(z, np.ndarray) else 1.0
    prev = np.ones_like(z) if isinstance(z, np.ndarray) else 1.0
    cur = 0.5 * (a - b + (a + b + 2.0) * z)
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 2.0) * (2.0 * k + a + b - 1.0) * (2.0 * k + a + b)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        prev, cur = cur, ((c2 + c3 * z) * cur - c4 * prev) / c1
    return cur


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x); H_0 = 1, H_1 = 2x."""
    n = check_count(n, "degree")
    if n == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    prev = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    cur = 2.0 * x
    for k in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur


def gegenbauer_norm_log(n: int, nu: float) -> float:
    """ln of int_{-1}^{1} (1-x^2)^(nu-1/2) [C_n^nu(x)]^2 dx (closed form); nu > 0, where ln Gamma(nu) is real."""
    n = check_count(n, "degree")
    check_above(nu, 0.0, "gegenbauer norm nu")
    return (
        LNPI
        + (1.0 - 2.0 * nu) * LN2
        + log_gamma(2.0 * nu + n)
        - log_gamma(n + 1.0)
        - math.log(n + nu)
        - 2.0 * log_gamma(nu)
    )


def jacobi_norm_log(n: int, a: float, b: float) -> float:
    """ln of int_{-1}^{1} (1-y)^a (1+y)^b [P_n^(a,b)(y)]^2 dy (closed form)."""
    n = check_count(n, "degree")
    check_above(a, -1.0, "jacobi norm a")
    check_above(b, -1.0, "jacobi norm b")
    if n == 0:  # the weight's mass 2^(a+b+1) B(a+1, b+1); the form below takes ln(a + b + 1)
        return (a + b + 1.0) * LN2 + log_gamma(a + 1.0) + log_gamma(b + 1.0) - log_gamma(a + b + 2.0)
    return (
        (a + b + 1.0) * LN2
        - math.log(2.0 * n + a + b + 1.0)
        + log_gamma(n + a + 1.0)
        + log_gamma(n + b + 1.0)
        - log_gamma(n + 1.0)
        - log_gamma(n + a + b + 1.0)
    )


def log_term_sum(pairs) -> float:
    """Sum of coefficient * term over (coefficient, log-term) pairs.

    Coefficients of equal terms are added *before* they multiply the term,
    so an identity whose coefficients cancel to zero yields a residual that
    measures genuine cancellation instead of the rounding noise of products
    with astronomically large log-gamma values; that keeps the normalization
    identity checks meaningful up to exponents ~1e8.
    """
    coeff: dict = {}
    for c, term in pairs:
        coeff[term] = coeff.get(term, 0.0) + c
    return sum(c * term for term, c in coeff.items())


def _jacobi_recurrence(n: int, a: float, b: float):
    """Coefficients alpha_k, beta_k of the measure normalized to unit mass,
    plus ln of the true mass 2^(a+b+1) B(a+1, b+1)."""
    alpha = np.zeros(n)
    beta = np.zeros(n)
    apb = a + b
    alpha[0] = (b - a) / (apb + 2.0)
    beta[0] = 1.0
    log_mass = jacobi_norm_log(0, a, b)
    if n > 1:
        beta[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
    for k in range(1, n):
        den = 2.0 * k + apb
        alpha[k] = (b * b - a * a) / (den * (den + 2.0))
        if k >= 2:
            beta[k] = (
                4.0 * k * (k + a) * (k + b) * (k + apb)
                / (den * den * (den + 1.0) * (den - 1.0))
            )
    return alpha, beta, log_mass


def _orthonormal_eval(x, order: int, alpha, beta):
    """p_order and p_order' of the orthonormal polynomials at x (vectorized),
    plus the Christoffel sum p_0^2 + ... + p_(order-1)^2."""
    x = np.asarray(x, dtype=float)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(beta[0]))
    d_prev = np.zeros_like(x)
    d = np.zeros_like(x)
    sumsq = np.zeros_like(x)
    for k in range(order):
        sumsq += p * p
        sb_next = math.sqrt(beta[k + 1])
        p_next = ((x - alpha[k]) * p - (math.sqrt(beta[k]) * p_prev if k > 0 else 0.0)) / sb_next
        d_next = ((x - alpha[k]) * d + p - (math.sqrt(beta[k]) * d_prev if k > 0 else 0.0)) / sb_next
        p_prev, p = p, p_next
        d_prev, d = d, d_next
    return p, d, sumsq


def gauss_jacobi_scaled(n: int, a: float, b: float):
    """(nodes, unit-mass weights, log_mass) of the N-point Gauss-Jacobi rule.

    The weights returned here sum to one; the true weights are these times
    exp(log_mass).  Keeping the scale in log space makes the rule usable even
    when the weight's total mass overflows double precision (strongly
    asymmetric exponents).  Nodes start from the eigenvalues of the symmetric
    recurrence matrix and are polished by Newton iteration on the orthonormal
    recurrence (tolerance 1e-14, at most 100 sweeps); weights come from the
    Christoffel function, which stays O(1) for any exponents.
    """
    n = check_count(n, "rule size", low=1)
    check_above(a, -1.0, "quadrature a")
    check_above(b, -1.0, "quadrature b")
    alpha, beta, log_mass = _jacobi_recurrence(n + 1, a, b)
    if n == 1:
        nodes = np.array([alpha[0]])
    else:
        off = np.sqrt(beta[1:n])
        t = np.diag(alpha[:n]) + np.diag(off, 1) + np.diag(off, -1)
        nodes = np.linalg.eigvalsh(t)
    # Newton polish on p_n (roots of the degree-n orthonormal polynomial)
    for _ in range(100):
        p_n, deriv = _orthonormal_eval(nodes, n, alpha, beta)[:2]
        step = p_n / deriv
        nodes = nodes - step
        largest = float(np.max(np.abs(step)))
        if not largest >= 1e-14:  # converged, or NaN: stop sweeping either way
            break
    if not largest < 1e-14:
        raise NumericError(
            f"Gauss-Jacobi node polish did not converge for N={n}, a={a}, b={b}; "
            f"last max step {largest:.3e}"
        )
    nodes = np.sort(nodes)
    weights = 1.0 / _orthonormal_eval(nodes, n, alpha, beta)[2]
    if not (np.all(np.diff(nodes) > 0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
        raise NumericError(f"Gauss-Jacobi nodes invalid for N={n}, a={a}, b={b}")
    if not np.all(weights > 0):
        raise NumericError(f"Gauss-Jacobi produced nonpositive weights for N={n}, a={a}, b={b}")
    return nodes, weights, log_mass


def log_weighted_dot(weights, u, v) -> tuple[float, float]:
    """(sign, ln |sum_i w_i u_i v_i|) without overflow in the products.

    Each vector is divided by its largest magnitude before the product and
    the logs of the two scales are added back, so u * v stays O(1) even when
    the polynomial values sit near the top of the double range.  A zero sum
    gives (0.0, -inf); a non-finite input gives a NaN log.
    """
    su, sv = float(np.max(np.abs(u))), float(np.max(np.abs(v)))
    s = 0.0 if su == 0.0 or sv == 0.0 else float(np.dot(weights, (u / su) * (v / sv)))
    if s == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, s), math.log(abs(s)) + math.log(su) + math.log(sv)


def scaled_dot(weights, u, v, log_scale: float) -> float:
    """exp(log_scale) * sum_i w_i u_i v_i through ``log_weighted_dot``, so that
    neither the products nor the scale overflow on the way; +-inf once the
    result itself leaves double precision."""
    sign, log_s = log_weighted_dot(weights, u, v)
    log_value = log_scale + log_s
    return math.copysign(math.exp(log_value) if log_value < 709.78 else math.inf, sign)


def gauss_jacobi_rule(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the N-point Gauss-Jacobi rule with true-scale weights,
    the format of numpy's ``leggauss`` and ``hermgauss``.

    Raises when the weight's total mass is not representable in double
    precision; such cases must go through ``gauss_jacobi_scaled``.
    """
    nodes, unit_weights, log_mass = gauss_jacobi_scaled(n, a, b)
    mass = math.exp(log_mass) if log_mass < 709.0 else math.inf
    if not (0.0 < mass < math.inf):
        raise NumericError(f"total weight mass exp({log_mass:.1f}) for (a, b) = ({a}, {b}) is not "
                           "representable; use gauss_jacobi_scaled")
    return nodes, unit_weights * mass
