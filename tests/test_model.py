import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdsosc.errors import ParameterDomainError, UnitSystemError
from sdsosc.model import (
    PUBLISHED_DELTA_P_BOUND,
    PUBLISHED_DELTA_X_BOUND,
    PUBLISHED_THETA_BOUND,
    OscillatorConfig,
    deformation_bounds,
    derive_params,
    min_uncertainties,
)

alphas = st.floats(min_value=1e-12, max_value=10.0, allow_nan=False)


class TestOscillatorConfig:
    def test_natural_preset(self):
        cfg = OscillatorConfig.natural(dim=3)
        assert (cfg.m, cfg.omega, cfg.c, cfg.hbar, cfg.dim) == (1.0, 1.0, 1.0, 1.0, 3)

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            OscillatorConfig(m=-1.0, omega=1.0, c=1.0, hbar=1.0)
        with pytest.raises(ParameterDomainError):
            OscillatorConfig(m=1.0, omega=1.0, c=1.0, hbar=1.0, dim=0)

    @pytest.mark.parametrize("field", ["m", "omega", "c", "hbar", "dim"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, field, value):
        kwargs = {"m": 1.0, "omega": 1.0, "c": 1.0, "hbar": 1.0, "dim": 1, field: value}
        with pytest.raises(ParameterDomainError):
            OscillatorConfig(**kwargs)

    def test_si_preset_constants(self):
        cfg = OscillatorConfig.si(m=9.1093837015e-31, omega=1e12)
        assert cfg.c == 299792458.0
        assert cfg.units == "si"


class TestDeriveParams:
    def test_symmetric_half_percent(self, natural):
        p = derive_params(0.005, 0.005, natural)
        assert p.lam == pytest.approx(0.5, rel=1e-15)
        assert p.k_squared == pytest.approx(0.01, rel=1e-15)
        assert p.theta == pytest.approx(0.01, rel=1e-15)
        assert p.gamma_abs_squared == pytest.approx(2.0, rel=1e-15)

    def test_undeformed(self, natural):
        p = derive_params(0.0, 0.0, natural)
        assert p.theta == 0.0 and p.k_squared == 0.0
        assert p.lam is None and p.gamma_abs_squared is None
        assert not p.deformed

    def test_pure_momentum_deformation(self, natural):
        p = derive_params(0.01, 0.0, natural)
        assert p.lam == pytest.approx(1.0, rel=1e-15)
        assert p.k_squared == pytest.approx(0.01, rel=1e-15)
        assert p.theta == pytest.approx(0.01, rel=1e-15)

    def test_pure_position_deformation(self, natural):
        p = derive_params(0.0, 0.02, natural)
        assert p.lam == 0.0 and p.gamma_abs_squared is None
        assert p.k_squared == pytest.approx(0.02, rel=1e-15)

    def test_negative_rejected(self, natural):
        with pytest.raises(ParameterDomainError):
            derive_params(-1e-3, 0.0, natural)
        with pytest.raises(ParameterDomainError):
            derive_params(0.0, -1e-3, natural)

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, natural, position, value):
        alphas = [0.005, 0.005]
        alphas[position] = value
        with pytest.raises(ParameterDomainError):
            derive_params(*alphas, natural)

    @given(a1=alphas, a2=alphas)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_mixing_gamma_identity(self, a1, a2):
        cfg = OscillatorConfig.natural()
        p = derive_params(a1, a2, cfg)
        assert p.lam * p.gamma_abs_squared == pytest.approx(1.0, rel=1e-14)

    @given(a1=alphas, a2=alphas, m=st.floats(0.5, 3.0), w=st.floats(0.5, 3.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_k_squared_two_routes(self, a1, a2, m, w):
        cfg = OscillatorConfig(m=m, omega=w, c=1.0, hbar=1.0)
        p = derive_params(a1, a2, cfg)
        via_gamma = cfg.hbar**2 * a1 * p.gamma_abs_squared
        assert via_gamma == pytest.approx(p.k_squared, rel=1e-13)

    @given(a1=alphas, a2=alphas, m=st.floats(0.5, 3.0), w=st.floats(0.5, 3.0), c=st.floats(0.5, 3.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_theta_from_k_squared(self, a1, a2, m, w, c):
        cfg = OscillatorConfig(m=m, omega=w, c=c, hbar=1.0)
        p = derive_params(a1, a2, cfg)
        assert p.theta == pytest.approx(p.k_squared / (cfg.hbar**2 * m**2 * w**2 * c**2), rel=1e-13)


class TestMinUncertainties:
    def test_no_deformation(self, natural):
        assert min_uncertainties(derive_params(0.0, 0.0, natural), natural) == (0.0, 0.0)

    def test_square_roots(self, natural):
        dx, dp = min_uncertainties(derive_params(0.01, 0.01, natural), natural)
        assert dx == pytest.approx(0.1, rel=1e-15)
        assert dp == pytest.approx(0.1, rel=1e-15)

    @given(a1=alphas, a2=alphas, bump=st.floats(1e-6, 1.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_monotone_in_each_parameter(self, a1, a2, bump):
        cfg = OscillatorConfig.natural()
        dx0, dp0 = min_uncertainties(derive_params(a1, a2, cfg), cfg)
        dx1, dp1 = min_uncertainties(derive_params(a1 + bump, a2, cfg), cfg)
        dx2, dp2 = min_uncertainties(derive_params(a1, a2 + bump, cfg), cfg)
        assert dp1 > dp0 and dx1 == dx0
        assert dx2 > dx0 and dp2 == dp0


class TestPenningTrapBounds:
    def test_requires_si(self, natural):
        with pytest.raises(UnitSystemError):
            deformation_bounds(natural, 6.0, 10**10)

    def test_input_validation(self):
        cfg = OscillatorConfig.si(m=9.1093837015e-31, omega=1e12)
        with pytest.raises(ParameterDomainError):
            deformation_bounds(cfg, -6.0, 10**10)
        with pytest.raises(ParameterDomainError):
            deformation_bounds(cfg, 6.0, 0)

    def test_reproduces_published_bounds(self):
        cfg = OscillatorConfig.si(m=9.1093837015e-31, omega=1e12)
        b = deformation_bounds(cfg, 6.0, 10**10)
        assert b.theta_bound == pytest.approx(PUBLISHED_THETA_BOUND, rel=0.02)
        assert b.delta_x_bound == pytest.approx(PUBLISHED_DELTA_X_BOUND, rel=0.02)
        assert b.delta_p_bound == pytest.approx(PUBLISHED_DELTA_P_BOUND, rel=0.02)
        # raw inversion sits ~5% above the one-significant-figure quote
        assert b.theta_exact == pytest.approx(1.047e33, rel=1e-3)

    def test_scaling_in_field_strength(self):
        cfg = OscillatorConfig.si(m=9.1093837015e-31, omega=1e12)
        b6 = deformation_bounds(cfg, 6.0, 10**10)
        b12 = deformation_bounds(cfg, 12.0, 10**10)
        # deep in the relativistic regime the bound scales like B^(-1/2)
        assert -1.0 < b6.scaling_exponent < 0.0
        measured = math.log(b12.theta_exact / b6.theta_exact) / math.log(2.0)
        assert measured == pytest.approx(b6.scaling_exponent, abs=0.02)
