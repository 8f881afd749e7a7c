import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import fd1, fd2, ode_residual_scale
from sdsosc.errors import ParameterDomainError, QuantumNumberError, UnsupportedRepresentationError
from sdsosc.model import OscillatorConfig, derive_params, level_radicand, level_shift_first_order
from sdsosc.polynomials import jacobi
from sdsosc.spectrum1d import energy_1d, nu_exponent, spacing_asymptote
from sdsosc.spectrumnd import (
    angular_degeneracy,
    degeneracy_table,
    energy_deviation_first_order_nd,
    energy_nd,
    energy_nd_oracle,
    radial_exponents,
    radial_inner_product,
    radial_norm,
    radial_normalization_identity_residual,
    radial_wavefunction,
    state_nd,
)


class TestExponents:
    def test_matches_one_dimensional_exponent(self, natural3, params_half_percent):
        mu, a, b = radial_exponents(params_half_percent, natural3, l=2, dim=3)
        assert mu == nu_exponent(params_half_percent, natural3)
        assert a == mu - 0.5
        assert b == 2 - 1 + 1.5

    def test_validation(self, natural3, params_half_percent):
        with pytest.raises(QuantumNumberError):
            radial_exponents(params_half_percent, natural3, l=-1, dim=3)
        with pytest.raises(QuantumNumberError):
            radial_exponents(params_half_percent, natural3, l=0, dim=0)


class TestEnergyNd:
    def test_ground_state(self, natural3, params_half_percent):
        for dim in (2, 3, 7):
            assert energy_nd(0, 0, dim, params_half_percent, natural3) == 1.0

    def test_second_level_s_wave(self, natural3, params_half_percent):
        # bracket = 4 + 4 - 0 = 8 at n = 2, l = 0, D = 3
        assert energy_nd(2, 0, 3, params_half_percent, natural3) == pytest.approx(math.sqrt(5.08), rel=1e-15)

    def test_second_level_l_two(self, natural3, params_half_percent):
        # bracket = 4 + 4 - 2*3 = 2, so the l term lowers the level: sqrt(5.02)
        assert energy_nd(2, 2, 3, params_half_percent, natural3) == pytest.approx(math.sqrt(5.02), rel=1e-15)

    def test_degeneracy_lifting(self, natural3, params_half_percent):
        assert energy_nd(2, 0, 3, params_half_percent, natural3) > energy_nd(2, 2, 3, params_half_percent, natural3)

    def test_quantum_number_validation(self, natural3, params_half_percent):
        with pytest.raises(QuantumNumberError):
            energy_nd(2, 1, 3, params_half_percent, natural3)  # parity violation
        with pytest.raises(QuantumNumberError):
            energy_nd(1, 2, 3, params_half_percent, natural3)  # l > n

    def test_reduces_to_one_dimension(self, natural, params_half_percent):
        for n in range(0, 40, 2):
            assert energy_nd(n, 0, 1, params_half_percent, natural) == energy_1d(n, params_half_percent, natural)

    def test_undeformed_limit_degenerate(self, natural3):
        zero = derive_params(0.0, 0.0, natural3)
        for n in range(0, 13, 2):
            values = {energy_nd(n, l, 3, zero, natural3) for l in range(0, n + 1, 2)}
            assert len(values) == 1
            assert values.pop() == natural3.mc2 * math.sqrt(1.0 + 2.0 * n)

    @given(
        levels=st.lists(st.tuples(st.integers(0, 10**10), st.integers(0, 10**3)), min_size=1, max_size=8),
        dim=st.integers(1, 12),
        a1=st.floats(0.0, 0.1),
        a2=st.floats(0.0, 0.1),
        consts=st.tuples(*[st.floats(0.5, 3.0)] * 4),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_array_kernel_matches_scalar_calls(self, levels, dim, a1, a2, consts):
        m, w, c, hbar = consts
        cfg = OscillatorConfig(m=m, omega=w, c=c, hbar=hbar, dim=dim)
        p = derive_params(a1, a2, cfg)
        ns = np.array([2 * nr + l for nr, l in levels])
        ls = np.array([l for _, l in levels])
        energies = cfg.mc2 * np.sqrt(level_radicand(ns, ls, dim, p, cfg))
        assert energies.tolist() == [energy_nd(n, l, dim, p, cfg) for n, l in zip(ns.tolist(), ls.tolist())]
        shifts = level_shift_first_order(ns, ls, dim, p, cfg)[1]
        assert shifts.tolist() == [energy_deviation_first_order_nd(n, l, dim, p, cfg)[1]
                                   for n, l in zip(ns.tolist(), ls.tolist())]
        energies_1d = cfg.mc2 * np.sqrt(level_radicand(ns, 0, 1, p, cfg))
        assert energies_1d.tolist() == [energy_1d(n, p, cfg) for n in ns.tolist()]

    def test_planar_case_is_the_formula_specialization(self, params_half_percent):
        # D = 2: the level bracket reduces to n^2 + n - l^2
        cfg = OscillatorConfig.natural(dim=2)
        for n, l in ((0, 0), (2, 0), (3, 1), (5, 3)):
            expected = math.sqrt(1.0 + 2.0 * n + 0.01 * (n * n + n - l * l))
            assert energy_nd(n, l, 2, params_half_percent, cfg) == pytest.approx(expected, rel=1e-15)


class TestOracleNd:
    def test_reduces_to_ground_level(self, natural, params_half_percent):
        assert energy_nd_oracle(0, 0, 1, params_half_percent, natural) == pytest.approx(1.0, rel=1e-14)

    def test_matches_closed_form_on_axis(self, natural3, params_half_percent):
        assert energy_nd_oracle(1, 0, 3, params_half_percent, natural3) == pytest.approx(
            math.sqrt(5.08), rel=1e-13
        )

    def test_matches_off_diagonal(self, natural3):
        p = derive_params(0.002, 0.008, natural3)
        cfg = OscillatorConfig.natural(dim=5)
        assert energy_nd_oracle(0, 3, 5, p, cfg) == pytest.approx(energy_nd(3, 3, 5, p, cfg), rel=1e-13)

    @pytest.mark.parametrize("alphas", [(0.005, 0.005), (0.002, 0.008), (1e-6, 1e-6)])
    def test_agreement_over_quantum_grid(self, alphas):
        for dim in (2, 3, 4, 10):
            cfg = OscillatorConfig.natural(dim=dim)
            p = derive_params(*alphas, cfg)
            for nr in (0, 1, 3, 10, 27, 50):
                for l in (0, 1, 2, 5, 10):
                    closed = energy_nd(2 * nr + l, l, dim, p, cfg)
                    oracle = energy_nd_oracle(nr, l, dim, p, cfg)
                    assert abs(closed - oracle) <= 1e-12 * closed


class TestRadialWavefunction:
    def test_centrifugal_zero_at_origin(self, natural3, params_half_percent):
        for l in (1, 2, 5):
            assert radial_wavefunction(0, l, 3, params_half_percent, natural3, 0.0) == 0.0

    def test_s_wave_finite_at_origin(self, natural3, params_half_percent):
        value = radial_wavefunction(0, 0, 3, params_half_percent, natural3, 0.0)
        assert math.isfinite(value) and value > 0.0
        # continuous with nearby points
        near = radial_wavefunction(0, 0, 3, params_half_percent, natural3, 1e-9)
        assert value == pytest.approx(near, rel=1e-12)

    def test_boundary_decay(self, natural3, params_half_percent):
        pmax = 1.0 / math.sqrt(0.005)
        mid = radial_wavefunction(0, 0, 3, params_half_percent, natural3, 0.3 * pmax)
        edge = radial_wavefunction(0, 0, 3, params_half_percent, natural3, pmax * (1 - 1e-9))
        assert abs(edge) < 1e-6 * abs(mid)

    @pytest.mark.parametrize("nr,l,dim", [(0, 0, 3), (2, 1, 3), (1, 3, 5), (0, 0, 2), (3, 2, 10)])
    def test_quadrature_norm_is_one(self, natural3, params_half_percent, nr, l, dim):
        cfg = OscillatorConfig.natural(dim=dim)
        assert radial_norm(nr, l, dim, params_half_percent, cfg) == pytest.approx(1.0, abs=1e-8)

    def test_norm_against_adaptive_integration(self, natural3, params_half_percent):
        # independent adaptive-quadrature route through the raw radial measure
        dim, l, nr = 3, 1, 2
        pmax = 1.0 / math.sqrt(0.005)
        value, _ = quad(
            lambda p: dim
            * p ** (dim - 1)
            * radial_wavefunction(nr, l, dim, params_half_percent, natural3, p) ** 2
            / math.sqrt(1.0 - 0.005 * p * p),
            0.0,
            pmax * (1 - 1e-12),
            limit=300,
        )
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality_in_radial_number(self, natural3, params_half_percent):
        for nr in range(11):
            for ms in range(nr, 11):
                g = radial_inner_product(nr, ms, 1, 3, params_half_percent, natural3)
                assert g == pytest.approx(1.0 if nr == ms else 0.0, abs=1e-8)

    def test_domain_errors(self, natural3, params_half_percent):
        pmax = 1.0 / math.sqrt(0.005)
        with pytest.raises(ParameterDomainError):
            radial_wavefunction(0, 0, 3, params_half_percent, natural3, pmax)
        with pytest.raises(ParameterDomainError):
            radial_wavefunction(0, 0, 3, params_half_percent, natural3, -0.1)
        with pytest.raises(UnsupportedRepresentationError):
            radial_wavefunction(0, 0, 3, derive_params(0.01, 0.0, natural3), natural3, 0.1)
        with pytest.raises(UnsupportedRepresentationError):
            radial_norm(1, 0, 3, derive_params(0.01, 0.0, natural3), natural3)

    def test_identity_residual_small(self):
        for mu in (0.75, 2.5, 31.0, 100.0, 1e4, 1e8):
            for nr, l, dim in ((0, 0, 3), (2, 1, 2), (5, 3, 10), (1, 0, 4)):
                assert abs(radial_normalization_identity_residual(nr, l, dim, mu)) <= 1e-12


class TestRadialOde:
    def test_transformed_jacobi_equation(self, natural3, params_half_percent):
        # f(q) = P_nr^(a,b)(2 q^2 - 1) solves
        # (1-q^2) f'' + [-(2 mu + 2l + D) q + (2l + D - 1)/q] f' + 4 nr (nr + a + b + 1) f = 0
        l, dim = 1, 3
        mu, a, b = radial_exponents(params_half_percent, natural3, l, dim)
        h = 1e-4
        for nr in range(1, 11):
            f = lambda q: jacobi(nr, a, b, 2.0 * q * q - 1.0)
            worst_res, worst_scale = 0.0, 0.0
            for q in np.linspace(0.08, 0.92, 7):
                terms = (
                    (1 - q * q) * fd2(f, q, h),
                    (-(2 * mu + 2 * l + dim) * q + (2 * l + dim - 1) / q) * fd1(f, q, h),
                    4.0 * nr * (nr + a + b + 1.0) * f(q),
                )
                res, scale = ode_residual_scale(terms)
                worst_res, worst_scale = max(worst_res, res), max(worst_scale, scale)
            assert worst_res <= 1e-6 * worst_scale


def level_index(table) -> dict:
    """Row index of each (n, l) level of a degeneracy table."""
    return {(n, l): i for i, (n, l) in enumerate(zip(table.data[0].tolist(), table.data[1].tolist()))}


class TestDegeneracyTable:
    def test_single_row_at_zero(self, natural3, params_half_percent):
        table = degeneracy_table(0, 3, params_half_percent, natural3)
        assert len(table) == 1
        assert table.data[3][0] == natural3.mc2

    def test_undeformed_degeneracy_restored(self, natural3):
        zero = derive_params(0.0, 0.0, natural3)
        table = degeneracy_table(2, 3, zero, natural3)
        energy, sharing, at = table.data[3], table.data[5], level_index(table)
        assert energy[at[(2, 0)]] == energy[at[(2, 2)]]
        # 1 s-state + 5 d-states share the n = 2 energy in 3 dimensions
        assert sharing[at[(2, 0)]] == 6 and sharing[at[(2, 2)]] == 6

    def test_deformed_splitting(self, natural3, params_half_percent):
        table = degeneracy_table(2, 3, params_half_percent, natural3)
        energy, sharing, at = table.data[3], table.data[5], level_index(table)
        assert energy[at[(2, 0)]] == pytest.approx(math.sqrt(5.08), rel=1e-14)
        assert energy[at[(2, 2)]] == pytest.approx(math.sqrt(5.02), rel=1e-14)
        assert sharing[at[(2, 0)]] == 1 and sharing[at[(2, 2)]] == 5

    def test_enumeration_order(self, natural3, params_half_percent):
        table = degeneracy_table(4, 3, params_half_percent, natural3)
        keys = list(zip(table.data[0].tolist(), table.data[1].tolist()))
        assert keys == sorted(keys)

    def test_angular_multiplicities(self):
        assert [angular_degeneracy(l, 3) for l in range(5)] == [1, 3, 5, 7, 9]
        assert [angular_degeneracy(l, 2) for l in range(4)] == [1, 2, 2, 2]
        assert angular_degeneracy(1, 4) == 4  # vector harmonics in 4 dimensions


class TestSpacingAndDeviation:
    def test_fixed_l_spacing_approaches_one_dimensional_asymptote(self, natural3, params_half_percent):
        asym = spacing_asymptote(params_half_percent, natural3)
        l = 2
        per_unit = []
        for n in (10**3, 10**5, 10**7):
            gap = energy_nd(n + 2, l, 3, params_half_percent, natural3) - energy_nd(
                n, l, 3, params_half_percent, natural3
            )
            per_unit.append(0.5 * gap)
        assert abs(per_unit[-1] - asym) / asym < 1e-3
        assert all(b < a for a, b in zip(per_unit, per_unit[1:]))

    def test_first_order_deviation_consistency(self, natural3):
        n, l, dim = 6, 2, 3
        errors = []
        for theta in (1e-4, 5e-5):
            p = derive_params(0.0, theta, natural3)
            e0, shift = energy_deviation_first_order_nd(n, l, dim, p, natural3)
            errors.append(abs(e0 + shift - energy_nd(n, l, dim, p, natural3)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)


class TestStateNd:
    def test_fields(self, natural3, params_half_percent):
        s = state_nd(1, 2, 3, params_half_percent, natural3)
        assert s.n == 4
        assert s.mu == pytest.approx(100.0, rel=1e-14)
        assert s.a == s.mu - 0.5
        assert s.energy == energy_nd(4, 2, 3, params_half_percent, natural3)
        assert s.norm == pytest.approx(math.exp(s.log_norm), rel=1e-14)
