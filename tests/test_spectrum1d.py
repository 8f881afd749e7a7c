import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import fd1, fd2, ode_residual_scale
from sdsosc.errors import (
    NumericError,
    ParameterDomainError,
    UndeformedLimitError,
    UnsupportedRepresentationError,
)
from sdsosc.model import OscillatorConfig, derive_params
from sdsosc.polynomials import gegenbauer
from sdsosc.spectrum1d import (
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

ALPHA_GRID = [0.0, 1e-6, 1e-4, 1e-2, 1.0]


class TestNuExponent:
    def test_symmetric_half_percent(self, natural, params_half_percent):
        assert nu_exponent(params_half_percent, natural) == pytest.approx(100.0, rel=1e-15)

    def test_pure_momentum(self, natural):
        assert nu_exponent(derive_params(0.01, 0.0, natural), natural) == pytest.approx(100.0, rel=1e-15)

    def test_boundary_huge_deformation(self, natural):
        # k^2 = 2 m w hbar: both roots coincide at 1/2
        assert nu_exponent(derive_params(1.0, 1.0, natural), natural) == pytest.approx(0.5, rel=1e-15)

    def test_undeformed_raises(self, natural):
        with pytest.raises(UndeformedLimitError):
            nu_exponent(derive_params(0.0, 0.0, natural), natural)

    def test_matches_radical_form(self, natural):
        # the explicit root of nu (nu - 1) = (m w hbar)^2 / k^4 ... cross-check
        for a1, a2 in ((1e-8, 1e-8), (0.005, 0.005), (0.3, 0.7), (2.0, 3.0)):
            p = derive_params(a1, a2, natural)
            g = 1.0 / p.k_squared
            radical = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * (g * g - g)))
            assert nu_exponent(p, natural) == pytest.approx(radical, rel=1e-12)

    def test_defining_quadratic(self, natural):
        for a1, a2 in ((0.005, 0.005), (0.0, 0.01), (1.5, 0.25)):
            p = derive_params(a1, a2, natural)
            nu = nu_exponent(p, natural)
            eta_over_k2 = 1.0 / p.k_squared**2 - 1.0 / p.k_squared
            assert nu * (nu - 1.0) == pytest.approx(eta_over_k2, rel=1e-11, abs=1e-13)


class TestEnergy1d:
    def test_ground_state_is_rest_energy(self, natural, params_half_percent):
        assert energy_1d(0, params_half_percent, natural) == 1.0
        assert energy_1d(0, params_half_percent, natural, branch=-1) == -1.0

    def test_first_level_deformed(self, natural, params_half_percent):
        assert energy_1d(1, params_half_percent, natural) == pytest.approx(math.sqrt(3.01), rel=1e-15)

    def test_first_level_undeformed(self, natural):
        p = derive_params(0.0, 0.0, natural)
        assert energy_1d(1, p, natural) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_undeformed_closed_form_exact(self, natural):
        p = derive_params(0.0, 0.0, natural)
        for n in range(0, 50, 3):
            assert energy_1d(n, p, natural) == natural.mc2 * math.sqrt(1.0 + 2.0 * n)

    def test_monotone_in_quantum_number_and_deformation(self, natural):
        for a1, a2 in ((0.005, 0.005), (0.1, 0.0)):
            p = derive_params(a1, a2, natural)
            energies = [energy_1d(n, p, natural) for n in range(30)]
            assert all(b > a for a, b in zip(energies, energies[1:]))
        for n in (1, 5, 20):
            e0 = energy_1d(n, derive_params(0.001, 0.001, natural), natural)
            assert energy_1d(n, derive_params(0.002, 0.001, natural), natural) > e0
            assert energy_1d(n, derive_params(0.001, 0.002, natural), natural) > e0

    def test_validation(self, natural, params_half_percent):
        with pytest.raises(ParameterDomainError):
            energy_1d(-1, params_half_percent, natural)
        with pytest.raises(ParameterDomainError):
            energy_1d(1, params_half_percent, natural, branch=2)


class TestTwoPathAgreement:
    def test_oracle_examples(self, natural, params_half_percent):
        assert energy_1d_oracle(0, params_half_percent, natural) == pytest.approx(1.0, rel=1e-14)
        assert energy_1d_oracle(5, params_half_percent, natural) == pytest.approx(
            energy_1d(5, params_half_percent, natural), rel=1e-12
        )
        p = derive_params(0.02, 0.0, natural)
        assert energy_1d_oracle(1, p, natural) == pytest.approx(math.sqrt(3.02), rel=1e-13)

    def test_agreement_over_parameter_grid(self, natural):
        ns = sorted({int(v) for v in np.geomspace(1, 10_000, 40)} | {0})
        for a1 in ALPHA_GRID:
            for a2 in ALPHA_GRID:
                if a1 == 0.0 and a2 == 0.0:
                    continue
                p = derive_params(a1, a2, natural)
                for n in ns:
                    closed = energy_1d(n, p, natural)
                    assert abs(closed - energy_1d_oracle(n, p, natural)) <= 1e-12 * closed


class TestSpacing:
    def test_asymptote_value(self, natural, params_half_percent):
        assert spacing_asymptote(params_half_percent, natural) == pytest.approx(0.1, rel=1e-15)

    def test_zero_without_deformation(self, natural):
        assert spacing_asymptote(derive_params(0.0, 0.0, natural), natural) == 0.0

    def test_equivalent_theta_form(self, natural):
        rng = np.random.default_rng(7)
        for a1, a2 in rng.uniform(1e-6, 0.5, size=(25, 2)):
            p = derive_params(a1, a2, natural)
            alt = natural.hbar * natural.omega * natural.m * natural.c**2 * math.sqrt(p.theta)
            assert spacing_asymptote(p, natural) == pytest.approx(alt, rel=1e-14)

    def test_monotone_approach_from_above(self, natural):
        # spacing decreases toward the asymptote and stays above it; the 0.1%
        # band opens around n ~ 21 m w hbar / k^2
        p = derive_params(1e-8, 1e-8, natural)
        asym = spacing_asymptote(p, natural)
        gaps = []
        for n in (10**4, 10**6, 10**8, 2 * 10**9):
            gaps.append(energy_1d(n + 1, p, natural) - energy_1d(n, p, natural))
        assert all(g > asym for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert abs(gaps[-1] - asym) / asym <= 1e-3


class TestFirstOrderDeviation:
    def test_ground_state_unshifted(self, natural, params_half_percent):
        e0, shift = energy_deviation_first_order(0, params_half_percent, natural)
        assert e0 == natural.mc2 and shift == 0.0

    def test_tenth_level_value(self, natural):
        p = derive_params(0.0, 1e-6, natural)  # theta = 1e-6
        _, shift = energy_deviation_first_order(10, p, natural)
        assert shift == pytest.approx(100.0 * 1e-6 / (2.0 * math.sqrt(21.0)), rel=1e-13)

    def test_linear_in_theta(self, natural):
        _, s1 = energy_deviation_first_order(7, derive_params(0.0, 1e-6, natural), natural)
        _, s2 = energy_deviation_first_order(7, derive_params(0.0, 2e-6, natural), natural)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)

    def test_quadratic_remainder(self, natural):
        # |E0 + shift - exact| must shrink like theta^2
        n = 12
        errors = []
        for theta in (1e-4, 5e-5, 2.5e-5):
            p = derive_params(0.0, theta, natural)
            e0, shift = energy_deviation_first_order(n, p, natural)
            errors.append(abs(e0 + shift - energy_1d(n, p, natural)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)


class TestNonrelativisticLimit:
    def test_ground_state(self, natural, params_half_percent):
        assert energy_nonrelativistic(0, params_half_percent, natural) == 0.0

    def test_harmonic_level_without_deformation(self, natural):
        p = derive_params(0.0, 0.0, natural)
        assert energy_nonrelativistic(1, p, natural) == pytest.approx(1.0, rel=1e-15)

    def test_second_level_deformed(self, natural, params_half_percent):
        assert energy_nonrelativistic(2, params_half_percent, natural) == pytest.approx(2.02, rel=1e-14)

    def test_difference_shrinks_like_inverse_c_squared(self):
        n = 3
        diffs = []
        for c in (10.0, 100.0):
            cfg = OscillatorConfig(m=1.0, omega=1.0, c=c, hbar=1.0)
            p = derive_params(0.002, 0.003, cfg)
            diffs.append(abs(energy_1d(n, p, cfg) - cfg.mc2 - energy_nonrelativistic(n, p, cfg)))
        assert diffs[0] / diffs[1] == pytest.approx(100.0, rel=0.3)


class TestWavefunction1d:
    def test_boundary_decay(self, natural, params_half_percent):
        pmax = 1.0 / math.sqrt(0.005)
        tail = wavefunction_1d(0, params_half_percent, natural, pmax * (1.0 - 1e-9))
        assert abs(tail) < 1e-3 * abs(wavefunction_1d(0, params_half_percent, natural, 0.0))

    def test_odd_levels_vanish_at_origin(self, natural, params_half_percent):
        for n in (1, 3, 7):
            assert wavefunction_1d(n, params_half_percent, natural, 0.0) == 0.0

    def test_quadrature_norm_is_one(self, natural, params_half_percent):
        for n in (0, 1, 5, 15):
            assert wavefunction_norm_1d(n, params_half_percent, natural) == pytest.approx(1.0, abs=1e-10)

    def test_inner_product_is_the_identity_gram(self, natural, params_half_percent):
        for n in range(9):
            # the norm is the diagonal entry, float for float
            assert wavefunction_norm_1d(n, params_half_percent, natural) == inner_product_1d(
                n, n, params_half_percent, natural)
            for m in range(9):
                g = inner_product_1d(n, m, params_half_percent, natural)
                assert g == pytest.approx(1.0 if n == m else 0.0, abs=1e-12)

    def test_norm_against_adaptive_integration(self, natural, params_half_percent):
        # fully independent route: generic adaptive quadrature of |psi|^2
        pmax = 1.0 / math.sqrt(0.005)
        value, _ = quad(
            lambda p: wavefunction_1d(3, params_half_percent, natural, p) ** 2
            / math.sqrt(1.0 - 0.005 * p * p),
            -pmax * (1 - 1e-12),
            pmax * (1 - 1e-12),
            limit=200,
        )
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self, natural, params_half_percent):
        pmax = 1.0 / math.sqrt(0.005)
        with pytest.raises(ParameterDomainError):
            wavefunction_1d(0, params_half_percent, natural, pmax)
        with pytest.raises(UnsupportedRepresentationError):
            wavefunction_1d(0, derive_params(0.01, 0.0, natural), natural, 0.1)
        for n1, n2 in ((1, 1), (0, 2)):  # the quadrature oracles need the bounded representation too
            with pytest.raises(UnsupportedRepresentationError):
                inner_product_1d(n1, n2, derive_params(0.01, 0.0, natural), natural)

    def test_orthogonality_under_deformed_measure(self, natural, params_half_percent):
        from sdsosc.polynomials import gauss_jacobi_rule

        # Gram_nm = (1/sqrt(a2)) int du (1-u^2)^(-1/2) psi_n psi_m; dividing out
        # the rule's own weight (1-u^2)^(nu-1/2) and the envelopes leaves
        # psi_n psi_m (1-u^2)^(-nu) as the function handed to the rule.
        nu = nu_exponent(params_half_percent, natural)
        nodes, weights = gauss_jacobi_rule(24, nu - 0.5, nu - 0.5)
        ps = nodes / math.sqrt(0.005)
        weight = (1.0 - 0.005 * ps * ps) ** (-nu)
        for n in range(9):
            fn = np.asarray(wavefunction_1d(n, params_half_percent, natural, ps))
            for m in range(n, 9):
                fm = np.asarray(wavefunction_1d(m, params_half_percent, natural, ps))
                inner = np.dot(weights, weight * fn * fm) / math.sqrt(0.005)
                assert inner == pytest.approx(1.0 if n == m else 0.0, abs=1e-8)


class TestWavefunctionUndeformed:
    def test_gaussian_peak(self, natural):
        assert wavefunction_1d_undeformed(0, natural, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)

    def test_first_level_node_at_origin(self, natural):
        assert wavefunction_1d_undeformed(1, natural, 0.0) == 0.0

    def test_unit_norm(self, natural):
        for n in (0, 1, 4):
            value, _ = quad(lambda p: wavefunction_1d_undeformed(n, natural, p) ** 2, -12.0, 12.0, limit=200)
            assert value == pytest.approx(1.0, abs=1e-10)

    # the (n + 1)-node Gauss-Hermite rule is exact for psi_n^2 until H_n overflows at its nodes (n = 206)
    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_quadrature_norm_is_exact(self, natural, units):
        cfg = natural if units == "natural" else OscillatorConfig.si(m=9.1093837015e-31, omega=1e11)
        for n in (0, 1, 7, 20, 40, 100, 150, 197):
            assert abs(wavefunction_norm_1d_undeformed(n, cfg) - 1.0) <= 1e-12, n

    def test_quadrature_norm_raises_once_hermite_overflows(self, natural):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(wavefunction_norm_1d_undeformed(205, natural) - 1.0) <= 1e-10
            with pytest.raises(NumericError, match="psi_206"):
                wavefunction_norm_1d_undeformed(206, natural)

    def test_deformed_limit_sweep(self, natural):
        grid = np.linspace(-3.0, 3.0, 41)
        sups = []
        for a2 in (1e-3, 1e-4, 1e-5):
            p = derive_params(0.0, a2, natural)
            worst = 0.0
            for n in range(5):
                diff = np.abs(
                    np.asarray(wavefunction_1d(n, p, natural, grid))
                    - np.asarray(wavefunction_1d_undeformed(n, natural, grid))
                )
                worst = max(worst, float(np.max(diff)))
            sups.append(worst)
        assert sups[0] > sups[1] > sups[2]


class TestStateAndIdentity:
    def test_state_fields(self, natural, params_half_percent):
        s = state_1d(4, params_half_percent, natural)
        assert s.nu == pytest.approx(100.0, rel=1e-14)
        assert s.energy == energy_1d(4, params_half_percent, natural)
        assert s.norm_lambda == pytest.approx(math.exp(s.log_norm_lambda), rel=1e-14)
        assert abs(s.energy) >= natural.mc2

    def test_identity_residual_small(self):
        for nu in (0.75, 1.5, 3.25, 100.0, 1e4, 1e6, 1e8):
            for n in (0, 1, 5, 15):
                assert abs(normalization_identity_residual(n, nu)) <= 1e-12

    def test_identity_residual_nondyadic_moderate(self):
        for nu in (3.7, 123.456, 9876.5):
            assert abs(normalization_identity_residual(2, nu)) <= 1e-12


class TestTransformedOde:
    def test_gegenbauer_form_of_wave_equation(self, natural, params_half_percent):
        # the u-space factor of psi solves the ultraspherical equation with
        # eigenvalue n (n + 2 nu)
        nu = nu_exponent(params_half_percent, natural)
        h = 1e-4
        xs = np.linspace(-0.8, 0.8, 7)
        for n in range(1, 11):
            f = lambda t: gegenbauer(n, nu, t)
            worst_res, worst_scale = 0.0, 0.0
            for x in xs:
                terms = (
                    (1 - x * x) * fd2(f, x, h),
                    -(2 * nu + 1) * x * fd1(f, x, h),
                    n * (n + 2 * nu) * f(x),
                )
                res, scale = ode_residual_scale(terms)
                worst_res, worst_scale = max(worst_res, res), max(worst_scale, scale)
            assert worst_res <= 1e-6 * worst_scale
