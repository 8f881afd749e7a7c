import math
import tracemalloc

import numpy as np
import pytest

from sdsosc.errors import OutOfRegimeError, ParameterDomainError
from sdsosc.model import OscillatorConfig, derive_params
from sdsosc.thermo import (
    BoltzmannMoments,
    ThermoParams,
    _moment_tail,
    _numeric_ucs,
    entropy,
    free_energy,
    mean_energy,
    partition_direct,
    partition_em_series,
    partition_highT,
    partition_moments,
    specific_heat,
    thermo_curve,
    thermo_params,
)


def make(theta=0.0, dim=1, l=0):
    """Natural-unit ensemble at a target theta via a pure position deformation."""
    cfg = OscillatorConfig.natural(dim=dim)
    params = derive_params(0.0, theta, cfg)
    return thermo_params(params, cfg, l=l), cfg


class TestThermoParams:
    def test_coefficients(self):
        tp, _ = make(theta=1e-4, dim=3, l=2)
        assert tp.a3 == pytest.approx(1e-4, rel=1e-15)
        assert tp.a2 == pytest.approx(2.0 + 2e-4, rel=1e-15)
        assert tp.a1 == pytest.approx(1.0 - 1e-4 * 2 * 3, rel=1e-12)

    def test_a3_identity(self):
        cfg = OscillatorConfig(m=1.7, omega=0.6, c=2.5, hbar=1.2, dim=3)
        p = derive_params(0.003, 0.004, cfg)
        tp = thermo_params(p, cfg)
        lhs = tp.a3 * (cfg.m * cfg.c) ** 2 / cfg.hbar**2
        assert lhs == pytest.approx(0.003 + (cfg.m * cfg.omega) ** 2 * 0.004, rel=1e-14)

    def test_delta_combination(self):
        tp, _ = make(theta=1e-6, dim=3)
        assert tp.delta(20.0) == pytest.approx(3.0 * 400.0 + 1.0, rel=1e-15)

    def test_ground_coefficient_guard(self):
        cfg = OscillatorConfig.natural(dim=3)
        p = derive_params(0.0, 0.5, cfg)
        with pytest.raises(ParameterDomainError):
            thermo_params(p, cfg, l=10)


class TestPartitionDirect:
    def test_low_temperature_collapse(self):
        # ground term exp(-m c^2 sqrt(a1) / kB T) dominates as T -> 0
        tp, cfg = make()
        z = partition_direct(0.01, tp, cfg)
        assert 0.0 < z < 1e-40
        assert z == pytest.approx(math.exp(-100.0 * math.sqrt(tp.a1)), rel=1e-15)

    def test_high_temperature_square_law(self):
        tp, cfg = make()
        z = partition_direct(20.0, tp, cfg)
        assert abs(z - 400.0) / 400.0 < 0.05

    def test_tolerance_self_consistency(self):
        tp, cfg = make(theta=1e-6, dim=3)
        z1 = partition_direct(20.0, tp, cfg, tol=1e-10)
        z2 = partition_direct(20.0, tp, cfg, tol=1e-12)
        assert abs(z1 - z2) / z2 < 1e-9

    def test_quadratic_branch_matches_linear_branch_continuously(self):
        # tiny a3 > 0 must approach the a3 = 0 sum
        tp0, cfg = make()
        tp1, _ = make(theta=1e-14)
        assert partition_direct(20.0, tp1, cfg) == pytest.approx(partition_direct(20.0, tp0, cfg), rel=1e-6)

    def test_validation(self):
        tp, cfg = make()
        for t in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterDomainError):
                partition_direct(t, tp, cfg)
        for tol in (0.0, math.nan):
            with pytest.raises(ParameterDomainError):
                partition_direct(1.0, tp, cfg, tol=tol)


def fsum_moments(t, theta, start, stop):
    """math.fsum of dE^k exp(-dE / t), k = 0, 1, 2, over start <= n < stop, with
    dE = sqrt(1 + (2 + 2 theta) n + theta n^2) - 1 (natural units, D = 3, l = 0)."""
    parts = ([], [], [])
    for lo in range(start, stop, 1 << 18):
        n = np.arange(lo, min(lo + (1 << 18), stop), dtype=float)
        de = np.sqrt(1.0 + (2.0 + 2.0 * theta) * n + theta * n * n) - 1.0
        w = np.exp(-de / t)
        for k, part in enumerate(parts):
            part.append(math.fsum(memoryview(w * de**k)))
    return [math.fsum(part) for part in parts]


class TestPartitionMoments:
    # the first point is a hard case for finite differences of ln Z (C off by 1.9e-3 there);
    # the last one stops after the first block
    POINTS = [(49.61628691582124, 0.0)] + [(x, th) for x in (15.0, 30.0, 50.0) for th in (0.0, 1e-6, 1e-5)] + [
        (0.05, 1e-5)]

    @pytest.mark.parametrize("x,theta", POINTS)
    def test_canonical_moments_match_fsum_brute_force(self, x, theta):
        tp, cfg = make(theta=theta, dim=3)
        res = partition_moments(x, tp, cfg)
        # brute force over twice the summed range; past it dE >= sqrt(2) dE_terms, so what
        # is left out is negligible next to the remainder over [terms, 2 terms)
        head = fsum_moments(x, theta, 0, res.terms)
        rest = fsum_moments(x, theta, res.terms, 2 * res.terms)
        s0, s1, s2 = (a + b for a, b in zip(head, rest))
        mean = s1 / s0
        u, c = 1.0 + mean, (s2 / s0 - mean * mean) / (x * x)
        s = math.log(s0) - 1.0 / x + u / x
        assert res.u == pytest.approx(u, rel=1e-10)
        assert res.c == pytest.approx(c, rel=1e-10)
        assert res.s == pytest.approx(s, rel=1e-10)
        assert res.z == pytest.approx(s0 * math.exp(-1.0 / x), rel=1e-10)
        assert all(tail >= remainder for tail, remainder in zip(res.tails, rest))


def whole_block_moments(t, tp, cfg, tol=1e-10):
    """The moment pass as written before it went to chunks: each block of levels is
    one fresh array, and NumPy sums it whole.  The reference for bit-identity."""
    beta = cfg.mc2 / (tp.kB * t)
    e0, s0, s1, s2 = math.sqrt(tp.a1), 0.0, 0.0, 0.0
    start, block = 0, 8192
    while True:
        with np.errstate(all="ignore"):
            w = np.arange(start, start + block, dtype=float)
            de = (w * tp.a3 + tp.a2) * w
            np.sqrt(np.add(de, tp.a1, out=w), out=w)
            w += e0
            de /= w
            np.exp(np.multiply(de, -beta, out=w), out=w)
            s0 += float(w.sum())
            w *= de
            s1 += float(w.sum())
            w *= de
            s2 += float(w.sum())
        start, block = start + block, min(2 * block, 1 << 20)
        tails = tuple(_moment_tail(k, start, beta, e0, tp) for k in range(3))
        if all(tail <= tol * s for tail, s in zip(tails, (s0, s1, s2))):
            mean, log_s0 = s1 / s0, math.log(s0)
            return BoltzmannMoments(s0 * math.exp(-beta * e0), cfg.mc2 * e0 - tp.kB * t * log_s0,
                                    cfg.mc2 * (e0 + mean), beta * beta * (s2 / s0 - mean * mean),
                                    log_s0 + beta * mean, tails, start)


class TestChunkedMomentPass:
    # kBT = 120 at theta = 0 runs past the 2^20-level block cap (9 428 992 terms)
    @pytest.mark.parametrize("dim,l", [(1, 0), (1, 1), (3, 0), (3, 1)])
    @pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-5])
    @pytest.mark.parametrize("x", [0.05, 15.0, 50.0, 120.0])
    def test_bit_identical_to_whole_block_pass(self, x, theta, dim, l):
        tp, cfg = make(theta=theta, dim=dim, l=l)
        assert repr(partition_moments(x, tp, cfg)) == repr(whole_block_moments(x, tp, cfg))

    def test_memory_is_fixed(self):
        tp, cfg = make(dim=3)
        tracemalloc.start()
        try:
            res = partition_moments(50.0, tp, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.terms == 2088960  # every block up to the 2^20 cap
        assert peak < 1 << 20


class TestPartitionHighT:
    def test_undeformed_value(self):
        tp, cfg = make()
        res = partition_highT(20.0, tp, cfg)
        assert res.value == 400.0
        assert res.in_regime

    def test_deformed_value(self):
        tp, cfg = make(theta=1e-6, dim=3)
        assert partition_highT(20.0, tp, cfg).value == pytest.approx(400.0 * (1.0 - 1e-6 * 1201.0), rel=1e-14)

    def test_monotone_decreasing_in_theta(self):
        zs = [partition_highT(20.0, *make(theta=t, dim=3)).value for t in (0.0, 1e-6, 1e-5)]
        assert zs[0] > zs[1] > zs[2]

    def test_out_of_regime_flag_and_error(self):
        tp, cfg = make(theta=1e-6, dim=3)
        assert not partition_highT(2.0, tp, cfg).in_regime  # kB T < 5 m c^2
        tp_big, _ = make(theta=1e-3, dim=3)
        with pytest.raises(OutOfRegimeError):
            partition_highT(40.0, tp_big, cfg)  # theta * delta > 1

    def test_leading_term_dimension_independent(self):
        zs = {dim: partition_highT(20.0, *make(dim=dim)).value for dim in (1, 3, 10)}
        assert zs[1] == zs[3] == zs[10] == 400.0


class TestPartitionEmSeries:
    def test_sigma_zero_single_term_matches_high_t(self):
        tp, cfg = make()
        em = partition_em_series(20.0, tp, cfg)
        assert em.value == pytest.approx(partition_highT(20.0, tp, cfg).value, rel=1e-12)
        assert em.terms_used <= 2

    def test_term_count_difference(self):
        tp, cfg = make(theta=1e-5, dim=3)
        one = partition_em_series(30.0, tp, cfg, n_terms=1)
        two = partition_em_series(30.0, tp, cfg, n_terms=2)
        disc = tp.a2**2 - 4.0 * tp.a1 * tp.a3
        sigma = 900.0 * 4.0 * tp.a3 / disc
        pref = 2.0 * 900.0 / math.sqrt(disc)
        assert one.value - two.value == pytest.approx(3.0 * sigma * pref, rel=1e-12)

    def test_direct_sum_within_estimate(self):
        for x in (15.0, 20.0, 30.0, 50.0):
            for theta in (0.0, 1e-6, 1e-5):
                for dim in (1, 3):
                    tp, cfg = make(theta=theta, dim=dim)
                    em = partition_em_series(x, tp, cfg)
                    zd = partition_direct(x, tp, cfg, 1e-11)
                    assert abs(em.value - zd) <= em.truncation_estimate
                    assert abs(em.value - zd) <= max(3.0 * em.truncation_estimate, 0.02 * zd)

    def test_partial_sums_bracket_direct_value(self):
        # meaningful once the series terms dominate the dropped boundary pieces
        tp, cfg = make(theta=1e-5, dim=3)
        x = 30.0
        zd = partition_direct(x, tp, cfg, 1e-11)
        disc = tp.a2**2 - 4.0 * tp.a1 * tp.a3
        sigma = (x / cfg.mc2) ** 2 * 4.0 * tp.a3 / disc
        pref = 2.0 * (x / cfg.mc2) ** 2 / math.sqrt(disc)
        term, partial, partials = 1.0, 0.0, []
        for k in range(4):
            partial += term if k % 2 == 0 else -term
            partials.append(pref * partial)
            term *= (2 * k + 1) * (2 * k + 3) * sigma
        assert partials[1] <= zd <= partials[0]
        assert partials[1] <= zd <= partials[2]

    def test_asymptotic_regime_errors(self):
        tp, cfg = make(theta=1e-5, dim=3)
        with pytest.raises(OutOfRegimeError):
            partition_em_series(600.0, tp, cfg)  # sigma > 1/3


class TestClosedForms:
    def test_free_energy_undeformed(self):
        tp, cfg = make()
        assert free_energy(20.0, tp, cfg) == pytest.approx(-20.0 * math.log(400.0), rel=1e-14)

    def test_free_energy_increases_with_theta(self):
        f0 = free_energy(20.0, *make(dim=3))
        f1 = free_energy(20.0, *make(theta=1e-6, dim=3))
        assert f1 > f0

    def test_log_partition_identity(self):
        tp, cfg = make(theta=1e-6, dim=3)
        f = free_energy(20.0, tp, cfg)
        assert -f / 20.0 == pytest.approx(math.log(partition_highT(20.0, tp, cfg).value), rel=1e-14)

    def test_mean_energy_undeformed(self):
        tp, cfg = make()
        assert mean_energy(20.0, tp, cfg) == pytest.approx(40.0, rel=1e-14)

    def test_mean_energy_decreases_with_theta(self):
        u0 = mean_energy(20.0, *make(dim=3))
        u1 = mean_energy(20.0, *make(theta=1e-6, dim=3))
        assert u1 < u0

    def test_specific_heat_undeformed_constant(self):
        tp, cfg = make()
        for t in (10.0, 20.0, 40.0):
            assert specific_heat(t, tp, cfg) == pytest.approx(2.0, rel=1e-14)

    def test_specific_heat_below_two_when_deformed(self):
        tp, cfg = make(theta=1e-6, dim=3)
        assert specific_heat(20.0, tp, cfg) < 2.0

    def test_entropy_undeformed(self):
        tp, cfg = make()
        assert entropy(20.0, tp, cfg) == pytest.approx(2.0 + math.log(400.0), rel=1e-14)

    def test_entropy_decreases_with_theta(self):
        s0 = entropy(20.0, *make(dim=3))
        s1 = entropy(20.0, *make(theta=1e-6, dim=3))
        assert s1 < s0

    def test_thermodynamic_identity(self):
        tp, cfg = make()
        f, u, s = free_energy(20.0, tp, cfg), mean_energy(20.0, tp, cfg), entropy(20.0, tp, cfg)
        assert f == pytest.approx(u - 20.0 * s, rel=1e-12)
        tp, cfg = make(theta=1e-5, dim=3)
        f, u, s = free_energy(20.0, tp, cfg), mean_energy(20.0, tp, cfg), entropy(20.0, tp, cfg)
        assert abs(f - (u - 20.0 * s)) <= 1e-4 * abs(f)

    def test_theta_to_zero_limits(self):
        tp, cfg = make()
        x = 20.0
        z = x * x
        assert free_energy(x, tp, cfg) == pytest.approx(-x * math.log(z), rel=1e-13)
        assert mean_energy(x, tp, cfg) == pytest.approx(2.0 * x, rel=1e-13)
        assert specific_heat(x, tp, cfg) == pytest.approx(2.0, rel=1e-13)
        assert entropy(x, tp, cfg) == pytest.approx(2.0 + math.log(z), rel=1e-13)


class TestDerivativeCrossChecks:
    def test_exact_at_zero_deformation(self):
        tp, cfg = make()
        u_n, c_n, s_n = _numeric_ucs("highT", 20.0, tp, cfg)
        assert mean_energy(20.0, tp, cfg) == pytest.approx(u_n, rel=1e-6)
        assert specific_heat(20.0, tp, cfg) == pytest.approx(c_n, rel=1e-6)
        assert entropy(20.0, tp, cfg) == pytest.approx(s_n, rel=1e-6)

    def test_small_residue_when_deformed(self):
        tp, cfg = make(theta=1e-7, dim=3)
        u_n, c_n, s_n = _numeric_ucs("highT", 20.0, tp, cfg)
        assert abs(mean_energy(20.0, tp, cfg) - u_n) / abs(u_n) <= 1e-4
        assert abs(specific_heat(20.0, tp, cfg) - c_n) / abs(c_n) <= 1e-3
        assert abs(entropy(20.0, tp, cfg) - s_n) / abs(s_n) <= 1e-6

    def test_direct_chain_within_five_percent(self):
        for x in (15.0, 30.0, 50.0):
            for theta in (0.0, 1e-6, 1e-5):
                for dim in (1, 3):
                    tp, cfg = make(theta=theta, dim=dim)
                    zd = partition_direct(x, tp, cfg)
                    zh = partition_highT(x, tp, cfg).value
                    assert abs(zd - zh) / zd <= 0.05

    def test_sign_structure_by_finite_theta_differences(self):
        x = 20.0
        f, u, c, s = [], [], [], []
        for theta in (0.0, 1e-6, 1e-5):
            tp, cfg = make(theta=theta, dim=3)
            f.append(free_energy(x, tp, cfg))
            u.append(mean_energy(x, tp, cfg))
            c.append(specific_heat(x, tp, cfg))
            s.append(entropy(x, tp, cfg))
        assert f[0] < f[1] < f[2]
        assert u[0] > u[1] > u[2]
        assert c[0] > c[1] > c[2]
        assert s[0] > s[1] > s[2]


class TestThermoCurve:
    def test_constant_specific_heat_column(self):
        tp, cfg = make()
        curve = thermo_curve(np.linspace(15.0, 50.0, 8), tp, cfg, methods=("highT",))
        assert np.allclose(curve.data["highT"]["C"], 2.0, rtol=1e-13)

    def test_free_energy_ordering_preserved(self):
        grid = np.linspace(15.0, 50.0, 8)
        f_small = thermo_curve(grid, *make(theta=1e-6, dim=3), methods=("highT",)).data["highT"]["F"]
        f_large = thermo_curve(grid, *make(theta=1e-5, dim=3), methods=("highT",)).data["highT"]["F"]
        assert np.all(f_large > f_small)

    def test_empty_methods_preserves_grid(self):
        tp, cfg = make()
        curve = thermo_curve([1.0, 2.0, 3.0], tp, cfg, methods=())
        assert curve.data == {} and list(curve.temperatures) == [1.0, 2.0, 3.0]

    def test_out_of_regime_points_flagged_not_dropped(self):
        tp, cfg = make(theta=1e-6, dim=3)
        curve = thermo_curve([2.0, 20.0], tp, cfg, methods=("highT",))
        assert not curve.flags["highT"][0] and curve.flags["highT"][1]
        assert math.isfinite(curve.data["highT"]["Z"][0])

    def test_direct_column_is_the_per_point_moment_pass(self):
        grid = np.linspace(15.0, 40.0, 6)
        tp, cfg = make(theta=1e-6, dim=3)
        curve = thermo_curve(grid, tp, cfg, methods=("direct", "highT"))
        for i, t in enumerate(grid):
            expected = partition_moments(float(t), tp, cfg)[:5]
            got = tuple(float(curve.data["direct"][q][i]) for q in ("Z", "F", "U", "C", "S"))
            assert repr(got) == repr(expected)

    def test_validation(self):
        tp, cfg = make()
        with pytest.raises(ParameterDomainError):
            thermo_curve([2.0, 1.0], tp, cfg)
        with pytest.raises(ParameterDomainError):
            thermo_curve([1.0, 2.0], tp, cfg, methods=("bogus",))
