import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer, eval_hermite, eval_jacobi, roots_jacobi

from conftest import fd1, fd2, jacobi_weight_moments, ode_residual_scale
from sdsosc.errors import ParameterDomainError
from sdsosc.polynomials import (
    gauss_jacobi_rule,
    gegenbauer,
    gegenbauer_norm_log,
    hermite,
    jacobi,
    jacobi_norm_log,
    log_gamma,
    log_weighted_dot,
)


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert gegenbauer(0, 3.7, 0.2) == 1.0

    def test_degree_one(self):
        assert gegenbauer(1, 2.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_degree_two_explicit(self):
        # 2 nu (nu + 1) x^2 - nu at nu = 1.5, x = 0.3
        assert gegenbauer(2, 1.5, 0.3) == pytest.approx(0.675 - 1.5, rel=1e-14)

    @pytest.mark.parametrize("nu", [0.7, 1.5, 5.25, 40.0])
    def test_matches_scipy(self, nu):
        xs = np.linspace(-1.0, 1.0, 21)
        for n in (0, 1, 2, 3, 8, 17):
            mine = np.asarray(gegenbauer(n, nu, xs))
            ref = eval_gegenbauer(n, nu, xs)
            scale = max(float(np.max(np.abs(ref))), 1.0)
            assert np.max(np.abs(mine - ref)) / scale < 1e-12

    def test_parity(self):
        for n in range(8):
            left = gegenbauer(n, 2.25, -0.37)
            right = gegenbauer(n, 2.25, 0.37)
            assert left == pytest.approx((-1.0) ** n * right, rel=1e-13)

    def test_domain_validation(self):
        with pytest.raises(ParameterDomainError):
            gegenbauer(-1, 1.0, 0.0)
        with pytest.raises(ParameterDomainError):
            gegenbauer(2, -0.5, 0.0)


class TestJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi(0, 0.5, 1.5, -0.3) == 1.0

    def test_legendre_degree_one(self):
        assert jacobi(1, 0.0, 0.0, 0.42) == pytest.approx(0.42, rel=1e-15)

    def test_endpoint_value(self):
        # P_n^(a,b)(1) = Gamma(a+n+1) / (n! Gamma(a+1))
        assert jacobi(2, 1.0, 1.0, 1.0) == pytest.approx(3.0, rel=1e-14)
        for n in (0, 1, 4, 9):
            for a, b in ((0.25, 2.0), (3.0, 0.5)):
                expected = math.exp(log_gamma(a + n + 1) - log_gamma(n + 1.0) - log_gamma(a + 1))
                assert jacobi(n, a, b, 1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 1.5), (0.0, 0.0), (2.0, 0.25), (-0.5, 3.0)])
    def test_matches_scipy(self, a, b):
        zs = np.linspace(-1.0, 1.0, 17)
        for n in (0, 1, 2, 6, 15):
            mine = np.asarray(jacobi(n, a, b, zs))
            ref = eval_jacobi(n, a, b, zs)
            scale = max(float(np.max(np.abs(ref))), 1.0)
            assert np.max(np.abs(mine - ref)) / scale < 1e-11

    def test_domain_validation(self):
        with pytest.raises(ParameterDomainError):
            jacobi(1, -1.0, 0.0, 0.0)


class TestHermite:
    def test_low_degrees(self):
        assert hermite(0, 1.3) == 1.0
        assert hermite(1, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert hermite(2, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_matches_scipy(self):
        xs = np.linspace(-3.0, 3.0, 13)
        for n in (0, 1, 2, 5, 12, 30):
            mine = np.asarray(hermite(n, xs))
            ref = eval_hermite(n, xs)
            scale = max(float(np.max(np.abs(ref))), 1.0)
            assert np.max(np.abs(mine - ref)) / scale < 1e-12

    def test_gegenbauer_limit_pointwise(self):
        # nu^(-n/2) C_n^(nu/2)(x sqrt(2/nu)) -> H_n(x) / (sqrt(2^n) n!) as nu grows
        n, x, nu = 6, 0.7, 1e8
        left = nu ** (-n / 2.0) * gegenbauer(n, nu / 2.0, x * math.sqrt(2.0 / nu))
        right = hermite(n, x) / (math.sqrt(2.0**n) * math.factorial(n))
        assert left == pytest.approx(right, rel=1e-6)

    def test_gegenbauer_limit_sup_decreases(self):
        xs = np.linspace(-3.0, 3.0, 31)
        sups = []
        for nu in (1e3, 1e5, 1e7):
            worst = 0.0
            for n in range(9):
                left = nu ** (-n / 2.0) * np.asarray(gegenbauer(n, nu / 2.0, xs * math.sqrt(2.0 / nu)))
                right = np.asarray(hermite(n, xs)) / (math.sqrt(2.0**n) * math.factorial(n))
                worst = max(worst, float(np.max(np.abs(left - right))))
            sups.append(worst)
        assert sups[0] > sups[1] > sups[2]


class TestLogWeightedDot:
    def test_squares_beyond_double_range(self):
        # 0.25 * 1e600 + 0.75 * 4e600 = 3.25e600, far above the double range
        sign, log_s = log_weighted_dot(np.array([0.25, 0.75]), np.array([1e300, -2e300]), np.array([1e300, -2e300]))
        assert sign == 1.0 and log_s == pytest.approx(math.log(3.25) + 600.0 * math.log(10.0), rel=1e-15)

    def test_sign_and_zero(self):
        w = np.array([0.5, 0.5])
        assert log_weighted_dot(w, np.array([1.0, 2.0]), np.array([-3.0, 1.0]))[0] == -1.0
        assert log_weighted_dot(w, np.array([1.0, 1.0]), np.array([1.0, -1.0])) == (0.0, -math.inf)
        assert log_weighted_dot(w, np.zeros(2), np.ones(2)) == (0.0, -math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_values_give_nan(self, bad):
        u = np.array([1.0, bad])
        with np.errstate(invalid="ignore"):
            assert math.isnan(log_weighted_dot(np.array([0.5, 0.5]), u, u)[1])


class TestLogGamma:
    def test_special_values(self):
        assert abs(log_gamma(1.0)) < 5e-15
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    @pytest.mark.parametrize("nu", [0.7, 3.2, 50.0])
    def test_doubling_formula(self, nu):
        left = log_gamma(2.0 * nu)
        right = (2.0 * nu - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi) + log_gamma(nu) + log_gamma(nu + 0.5)
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left))

    # log_gamma is the C library's lgamma, so the oracle is mpmath, not math.lgamma
    def test_against_mpmath_over_contract_range(self):
        for x in np.geomspace(0.01, 1e6, 4001):
            mine, ref = log_gamma(float(x)), float(mpmath.loggamma(mpmath.mpf(float(x))))
            assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_small_arguments(self):
        for x in (0.01, 0.2, 0.49):
            assert log_gamma(x) == pytest.approx(float(mpmath.loggamma(mpmath.mpf(x))), rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ParameterDomainError):
            log_gamma(0.0)
        with pytest.raises(ParameterDomainError):
            log_gamma(-3.0)


class TestJacobiNormLog:
    # at n = 0 the norm is the weight's mass 2^(a+b+1) B(a+1, b+1), finite also where a + b <= -1
    @pytest.mark.parametrize("a,b", [(-0.9, -0.9), (-0.99, -0.5), (-0.5, -0.5), (0.25, -0.99), (1.75, 0.5)])
    def test_degree_zero_against_mpmath(self, a, b):
        with mpmath.workdps(30):
            ref = mpmath.log(2 ** (mpmath.mpf(a) + b + 1) * mpmath.beta(mpmath.mpf(a) + 1, mpmath.mpf(b) + 1))
        assert jacobi_norm_log(0, a, b) == pytest.approx(float(ref), rel=1e-13)


class TestGaussJacobiRule:
    def test_single_node_legendre(self):
        nodes, weights = gauss_jacobi_rule(1, 0.0, 0.0)
        assert nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert weights[0] == pytest.approx(2.0, rel=1e-14)

    def test_legendre_second_moment(self):
        nodes, weights = gauss_jacobi_rule(20, 0.0, 0.0)
        assert abs(np.dot(weights, nodes**2) - 2.0 / 3.0) < 1e-14

    @pytest.mark.parametrize("a,b,size", [(0.0, 0.0, 6), (1.5, 0.25, 8), (-0.5, -0.5, 7), (0.0, 3.0, 10)])
    def test_moments_exact_to_degree(self, a, b, size):
        nodes, weights = gauss_jacobi_rule(size, a, b)
        moments = jacobi_weight_moments(a, b, 2 * size - 1)
        for k in range(2 * size):
            assert abs(np.dot(weights, nodes**k) - moments[k]) <= 1e-12 * moments[0]

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (2.0, 0.5), (4999.5, 4999.5)])
    def test_weights_sum_to_total_mass(self, a, b):
        _, weights = gauss_jacobi_rule(24, a, b)
        mass = math.exp((a + b + 1) * math.log(2.0) + log_gamma(a + 1) + log_gamma(b + 1) - log_gamma(a + b + 2))
        assert np.sum(weights) == pytest.approx(mass, rel=1e-12)

    def test_matches_scipy_rule(self):
        ref_nodes, ref_weights = roots_jacobi(24, 2.0, 0.5)
        nodes, weights = gauss_jacobi_rule(24, 2.0, 0.5)
        assert np.max(np.abs(nodes - ref_nodes)) < 1e-13
        assert np.max(np.abs(weights - ref_weights)) < 1e-13

    @pytest.mark.parametrize("nu", [1.2, 5.0, 100.0])
    def test_reproduces_gegenbauer_norm(self, nu):
        nodes, weights = gauss_jacobi_rule(64, nu - 0.5, nu - 0.5)
        for n in range(11):
            poly = np.asarray(gegenbauer(n, nu, nodes))
            closed = math.exp(gegenbauer_norm_log(n, nu))
            assert np.dot(weights, poly * poly) == pytest.approx(closed, rel=1e-10)

    def test_reproduces_jacobi_norm(self):
        a, b = 1.75, 0.5
        nodes, weights = gauss_jacobi_rule(48, a, b)
        for n in range(11):
            poly = np.asarray(jacobi(n, a, b, nodes))
            closed = math.exp(jacobi_norm_log(n, a, b))
            assert np.dot(weights, poly * poly) == pytest.approx(closed, rel=1e-11)

    @given(
        a=st.floats(min_value=-0.9, max_value=6.0),
        b=st.floats(min_value=-0.9, max_value=6.0),
        size=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rule_invariants(self, a, b, size):
        nodes, weights = gauss_jacobi_rule(size, a, b)
        assert nodes[0] > -1.0 and nodes[-1] < 1.0
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)
        mass = math.exp((a + b + 1) * math.log(2.0) + log_gamma(a + 1) + log_gamma(b + 1) - log_gamma(a + b + 2))
        assert np.sum(weights) == pytest.approx(mass, rel=1e-11)

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            gauss_jacobi_rule(0, 0.0, 0.0)
        with pytest.raises(ParameterDomainError):
            gauss_jacobi_rule(4, -1.0, 0.0)


class TestOrthogonality:
    def test_gegenbauer_pairs_vanish(self):
        for nu in (0.8, 2.5):
            nodes, weights = gauss_jacobi_rule(40, nu - 0.5, nu - 0.5)
            polys = [np.asarray(gegenbauer(n, nu, nodes)) for n in range(21)]
            for n in range(21):
                norm_n = np.dot(weights, polys[n] * polys[n])
                for m in range(n + 1, 21):
                    cross = np.dot(weights, polys[n] * polys[m])
                    norm_m = np.dot(weights, polys[m] * polys[m])
                    assert abs(cross) <= 1e-10 * math.sqrt(norm_n * norm_m)

    def test_jacobi_pairs_vanish(self):
        for a, b in ((0.5, 1.5), (2.0, 0.0)):
            nodes, weights = gauss_jacobi_rule(40, a, b)
            polys = [np.asarray(jacobi(n, a, b, nodes)) for n in range(21)]
            for n in range(21):
                norm_n = np.dot(weights, polys[n] * polys[n])
                for m in range(n + 1, 21):
                    cross = np.dot(weights, polys[n] * polys[m])
                    norm_m = np.dot(weights, polys[m] * polys[m])
                    assert abs(cross) <= 1e-10 * math.sqrt(norm_n * norm_m)

    def test_hermite_pairs_vanish(self):
        # Gaussian weight handled by a wide scaled Legendre rule: the integrand
        # decays below 1e-35 by |x| = 9 for the degrees used here.
        nodes, weights = gauss_jacobi_rule(256, 0.0, 0.0)
        span = 9.0
        xs = span * nodes
        weight = np.exp(-xs * xs)
        polys = [np.asarray(hermite(n, xs)) for n in range(21)]
        for n in range(21):
            norm_n = span * np.dot(weights, weight * polys[n] * polys[n])
            for m in range(n + 1, 21):
                cross = span * np.dot(weights, weight * polys[n] * polys[m])
                norm_m = span * np.dot(weights, weight * polys[m] * polys[m])
                assert abs(cross) <= 1e-10 * math.sqrt(norm_n * norm_m)


def grid_ode_residual(f, term_fns, xs, h):
    """max residual over the sample grid, relative to the max term magnitude there."""
    worst_residual = 0.0
    worst_scale = 0.0
    for x in xs:
        terms = [fn(f, x, h) for fn in term_fns]
        residual, scale = ode_residual_scale(terms)
        worst_residual = max(worst_residual, residual)
        worst_scale = max(worst_scale, scale)
    return worst_residual / worst_scale


class TestDefiningOdes:
    H = 1e-4

    @pytest.mark.parametrize("nu", [0.6, 2.5, 7.0])
    def test_gegenbauer_ode(self, nu):
        xs = np.linspace(-0.85, 0.85, 7)
        for n in (1, 5, 13, 30):
            f = lambda t: gegenbauer(n, nu, t)
            rel = grid_ode_residual(
                f,
                (
                    lambda g, x, h: (1 - x * x) * fd2(g, x, h),
                    lambda g, x, h: -(2 * nu + 1) * x * fd1(g, x, h),
                    lambda g, x, h: n * (n + 2 * nu) * g(x),
                ),
                xs,
                self.H,
            )
            assert rel <= 1e-6

    @pytest.mark.parametrize("a,b", [(0.5, 1.5), (3.0, 0.0)])
    def test_jacobi_ode(self, a, b):
        xs = np.linspace(-0.85, 0.85, 7)
        for n in (1, 6, 18, 30):
            f = lambda t: jacobi(n, a, b, t)
            rel = grid_ode_residual(
                f,
                (
                    lambda g, x, h: (1 - x * x) * fd2(g, x, h),
                    lambda g, x, h: (b - a - (a + b + 2) * x) * fd1(g, x, h),
                    lambda g, x, h: n * (n + a + b + 1) * g(x),
                ),
                xs,
                self.H,
            )
            assert rel <= 1e-6

    def test_hermite_ode(self):
        xs = np.linspace(-2.0, 2.0, 7)
        for n in (1, 4, 11, 30):
            f = lambda t: hermite(n, t)
            rel = grid_ode_residual(
                f,
                (
                    lambda g, x, h: fd2(g, x, h),
                    lambda g, x, h: -2 * x * fd1(g, x, h),
                    lambda g, x, h: 2 * n * g(x),
                ),
                xs,
                self.H,
            )
            assert rel <= 1e-6
