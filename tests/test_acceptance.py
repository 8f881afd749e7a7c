"""Acceptance suite: every criterion runs standalone at its stated tolerance
and prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sdsosc.model import (
    PUBLISHED_DELTA_P_BOUND,
    PUBLISHED_DELTA_X_BOUND,
    PUBLISHED_THETA_BOUND,
    OscillatorConfig,
    deformation_bounds,
    derive_params,
)
from sdsosc.spectrum1d import (
    energy_1d,
    energy_1d_oracle,
    log_norm_constant_1d,
    normalization_identity_residual,
    nu_exponent,
    spacing_asymptote,
    wavefunction_norm_1d,
)
from sdsosc.spectrumnd import (
    energy_nd,
    energy_nd_oracle,
    radial_inner_product,
    radial_normalization_identity_residual,
)
from sdsosc.polynomials import gauss_jacobi_rule, gegenbauer, jacobi
from sdsosc.thermo import (
    _numeric_ucs,
    entropy,
    free_energy,
    mean_energy,
    partition_direct,
    partition_em_series,
    partition_highT,
    specific_heat,
    thermo_params,
)
from conftest import fd1, fd2, ode_residual_scale

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "test_artifacts"

ALPHA_GRID = (0.0, 1e-6, 1e-4, 1e-2, 1.0)
GRAM_ALPHAS = ((1e-4, 1e-4), (0.005, 0.005), (0.0, 0.01))


def report(name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.2f}s >= {budget}s"


def theta_ensemble(theta, dim, l=0):
    cfg = OscillatorConfig.natural(dim=dim)
    return thermo_params(derive_params(0.0, theta, cfg), cfg, l=l), cfg


def test_criterion_1_penning_trap_bounds():
    start = time.perf_counter()
    cfg = OscillatorConfig.si(m=9.1093837015e-31, omega=1.0)
    b = deformation_bounds(cfg, 6.0, 10**10)
    errs = (
        abs(b.theta_bound - PUBLISHED_THETA_BOUND) / PUBLISHED_THETA_BOUND,
        abs(b.delta_x_bound - PUBLISHED_DELTA_X_BOUND) / PUBLISHED_DELTA_X_BOUND,
        abs(b.delta_p_bound - PUBLISHED_DELTA_P_BOUND) / PUBLISHED_DELTA_P_BOUND,
    )
    report(
        "criterion-1 penning-trap-bounds",
        all(e <= 0.02 for e in errs),
        f"theta/dx/dp rel err {errs[0]:.3%}/{errs[1]:.3%}/{errs[2]:.3%} vs published, tol 2%",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_two_path_spectrum_agreement():
    start = time.perf_counter()
    cfg = OscillatorConfig.natural()
    ns = sorted({int(v) for v in np.geomspace(1, 10_000, 340)} | {0})
    worst = 0.0
    evals = 0
    for a1 in ALPHA_GRID:
        for a2 in ALPHA_GRID:
            if a1 == 0.0 and a2 == 0.0:
                continue
            p = derive_params(a1, a2, cfg)
            for n in ns:
                e = energy_1d(n, p, cfg)
                worst = max(worst, abs(e - energy_1d_oracle(n, p, cfg)) / e)
                evals += 1
    for dim in (2, 3, 4, 10):
        cfgd = OscillatorConfig.natural(dim=dim)
        p = derive_params(0.005, 0.005, cfgd)
        for nr in range(51):
            for l in range(11):
                e = energy_nd(2 * nr + l, l, dim, p, cfgd)
                worst = max(worst, abs(e - energy_nd_oracle(nr, l, dim, p, cfgd)) / e)
                evals += 1
    report(
        "criterion-2 two-path-agreement",
        worst <= 1e-12,
        f"worst rel diff {worst:.3e} over {evals} evaluations, tol 1e-12",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_3_undeformed_limit_recovery():
    start = time.perf_counter()
    cfg = OscillatorConfig.natural()
    zero = derive_params(0.0, 0.0, cfg)
    exact = all(
        energy_1d(n, zero, cfg) == cfg.mc2 * math.sqrt(1.0 + 2.0 * n) for n in range(0, 2001, 13)
    )
    worst_split = 0.0
    for dim in (2, 3, 4, 10):
        cfgd = OscillatorConfig.natural(dim=dim)
        for n in range(0, 21):
            es = [energy_nd(n, l, dim, zero, cfgd) for l in range(n % 2, n + 1, 2)]
            worst_split = max(worst_split, max(es) - min(es))
    report(
        "criterion-3 undeformed-limit",
        exact and worst_split <= 1e-14 * cfg.mc2,
        f"1d exact: {exact}; max degeneracy split {worst_split:.3e}, tol 1e-14 mc^2",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_4_orthonormality_gram_matrices():
    start = time.perf_counter()
    cfg = OscillatorConfig.natural()
    worst_diag = worst_off = 0.0
    for a1, a2 in GRAM_ALPHAS:
        p = derive_params(a1, a2, cfg)
        nu = nu_exponent(p, cfg)
        nodes, weights = gauss_jacobi_rule(40, nu - 0.5, nu - 0.5)
        polys = [np.asarray(gegenbauer(n, nu, nodes)) for n in range(16)]
        lnorms = [log_norm_constant_1d(n, nu, a2) for n in range(16)]
        scale = math.exp(-0.5 * math.log(a2))
        for n in range(16):
            for m in range(n, 16):
                g = math.exp(lnorms[n] + lnorms[m]) * scale * np.dot(weights, polys[n] * polys[m])
                if n == m:
                    worst_diag = max(worst_diag, abs(g - 1.0))
                else:
                    worst_off = max(worst_off, abs(g))
        for l, dim in ((0, 3), (2, 4)):
            cfgd = OscillatorConfig.natural(dim=dim)
            for n in range(16):
                for m in range(n, 16):
                    g = radial_inner_product(n, m, l, dim, p, cfgd)
                    if n == m:
                        worst_diag = max(worst_diag, abs(g - 1.0))
                    else:
                        worst_off = max(worst_off, abs(g))
    report(
        "criterion-4 orthonormality",
        worst_diag <= 1e-10 and worst_off <= 1e-8,
        f"worst diag dev {worst_diag:.3e} (tol 1e-10), worst off-diag {worst_off:.3e} (tol 1e-8)",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_5_ode_residuals():
    start = time.perf_counter()
    h = 1e-4
    cfg = OscillatorConfig.natural(dim=3)
    worst = 0.0
    for a1, a2 in ((0.005, 0.005), (0.0, 0.01)):
        p = derive_params(a1, a2, cfg)
        nu = nu_exponent(p, cfg)
        for n in range(1, 11):
            f = lambda u: gegenbauer(n, nu, u)
            res = scale = 0.0
            for x in np.linspace(-0.8, 0.8, 7):
                terms = (
                    (1 - x * x) * fd2(f, x, h),
                    -(2 * nu + 1) * x * fd1(f, x, h),
                    n * (n + 2 * nu) * f(x),
                )
                r, s = ode_residual_scale(terms)
                res, scale = max(res, r), max(scale, s)
            worst = max(worst, res / scale)
        l, dim = 1, 3
        mu = nu
        a, b = mu - 0.5, l - 1.0 + dim / 2.0
        for nr in range(1, 11):
            f = lambda q: jacobi(nr, a, b, 2.0 * q * q - 1.0)
            res = scale = 0.0
            for q in np.linspace(0.08, 0.92, 7):
                terms = (
                    (1 - q * q) * fd2(f, q, h),
                    (-(2 * mu + 2 * l + dim) * q + (2 * l + dim - 1) / q) * fd1(f, q, h),
                    4.0 * nr * (nr + a + b + 1.0) * f(q),
                )
                r, s = ode_residual_scale(terms)
                res, scale = max(res, r), max(scale, s)
            worst = max(worst, res / scale)
    report(
        "criterion-5 ode-residuals",
        worst <= 1e-6,
        f"worst residual/scale {worst:.3e}, tol 1e-6",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_6a_spacing_asymptote_deformed():
    start = time.perf_counter()
    cfg = OscillatorConfig.natural()
    p = derive_params(0.005, 0.005, cfg)
    asym = spacing_asymptote(p, cfg)
    gaps = [
        energy_1d(n + 1, p, cfg) - energy_1d(n, p, cfg)
        for n in sorted({int(v) for v in np.geomspace(1, 10_000, 25)})
    ]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    final = abs(gaps[-1] - asym) / asym
    report(
        "criterion-6a spacing-asymptote",
        final <= 0.01 and monotone,
        f"|dE(1e4) - 0.1|/0.1 = {final:.3e} (tol 1e-2), monotone approach: {monotone}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_6b_undeformed_spacing_below_one_percent():
    # The zero-deformation spacing collapses while the deformed one saturates
    # at 0.1.  Undeformed, E_n = sqrt(1 + 2n), so the spacing is exactly
    # 2 / (sqrt(2n + 3) + sqrt(2n + 1)) ~ 1/sqrt(2n): 7.07e-3 (7.07% of the
    # asymptote) at n = 1e4, and it first drops below 1% of the asymptote at
    # n = 5e5.  The < 1% claim is therefore evaluated at n = 1e6 (7.07e-4,
    # 0.71%), the first power of ten past the crossing.  At n = 1e4 the
    # spacing is pinned to that subtraction-free closed form instead, so any
    # deformation leaking into the zero-deformation spectrum fails both.
    start = time.perf_counter()
    cfg = OscillatorConfig.natural()
    zero = derive_params(0.0, 0.0, cfg)
    deformed_asym = spacing_asymptote(derive_params(0.005, 0.005, cfg), cfg)
    gap_1e4 = energy_1d(10_001, zero, cfg) - energy_1d(10_000, zero, cfg)
    closed_1e4 = 2.0 / (math.sqrt(20_003) + math.sqrt(20_001))
    residual = abs(gap_1e4 - closed_1e4) / closed_1e4
    gap_1e6 = energy_1d(1_000_001, zero, cfg) - energy_1d(1_000_000, zero, cfg)
    report(
        "criterion-6b undeformed-spacing",
        residual <= 1e-9 and gap_1e6 < 0.01 * deformed_asym,
        f"dE(1e4) vs closed form rel err {residual:.3e} (tol 1e-9); "
        f"dE(1e6)/asymptote = {gap_1e6 / deformed_asym:.3%} (tol < 1%)",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_7_thermodynamics_oracle_chain():
    start = time.perf_counter()
    worst_chain = 0.0
    worst_cover = 0.0
    for x in (15.0, 20.0, 30.0, 40.0, 50.0):
        for theta in (0.0, 1e-6, 1e-5):
            for dim in (1, 3):
                tp, cfg = theta_ensemble(theta, dim)
                zd = partition_direct(x, tp, cfg, tol=1e-10)
                zh = partition_highT(x, tp, cfg).value
                worst_chain = max(worst_chain, abs(zd - zh) / zd)
                em = partition_em_series(x, tp, cfg)
                worst_cover = max(worst_cover, abs(em.value - zd) / em.truncation_estimate)
    report(
        "criterion-7 partition-oracle-chain",
        worst_chain <= 0.05 and worst_cover <= 1.0,
        f"direct-vs-highT worst {worst_chain:.3%} (tol 5%); "
        f"|em - direct|/estimate worst {worst_cover:.3f} (tol 1)",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_8_closed_form_vs_numeric_derivatives():
    start = time.perf_counter()
    x = 20.0
    tp0, cfg0 = theta_ensemble(0.0, 3)
    u_n, c_n, s_n = _numeric_ucs("highT", x, tp0, cfg0)
    base = (
        abs(mean_energy(x, tp0, cfg0) - u_n) / abs(u_n),
        abs(specific_heat(x, tp0, cfg0) - c_n) / abs(c_n),
        abs(entropy(x, tp0, cfg0) - s_n) / abs(s_n),
    )
    residues = {}
    worst_ratio = 0.0
    c_scale = 1.0
    for theta in (1e-7, 1e-6, 1e-5):
        tp, cfg = theta_ensemble(theta, 3)
        u_num, c_num, s_num = _numeric_ucs("highT", x, tp, cfg)
        tol = max(1e-4, c_scale * theta**2 * x**4)
        for key, closed, numeric in (
            ("U", mean_energy(x, tp, cfg), u_num),
            ("C", specific_heat(x, tp, cfg), c_num),
            ("S", entropy(x, tp, cfg), s_num),
        ):
            rel = abs(closed - numeric) / abs(numeric)
            residues[f"{key}[theta={theta:g}]"] = rel
            worst_ratio = max(worst_ratio, rel / tol)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / "derivative_residues.json").write_text(
        json.dumps(
            {
                "kB_T": x,
                "dim": 3,
                "tolerance": "max(1e-4, theta^2 (kB T)^4)",
                "theta_zero_residues": {"U": base[0], "C": base[1], "S": base[2]},
                "residues": residues,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    report(
        "criterion-8 derivative-cross-check",
        max(base) <= 1e-6 and worst_ratio <= 1.0,
        f"theta=0 worst rel {max(base):.3e} (tol 1e-6); deformed worst residue/tol {worst_ratio:.3f}; "
        f"residues recorded in {ARTIFACT_DIR / 'derivative_residues.json'}",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_9_figure_sign_structure():
    start = time.perf_counter()
    x = 20.0
    f, u, c, s = [], [], [], []
    for theta in (0.0, 1e-6, 1e-5):
        tp, cfg = theta_ensemble(theta, 3)
        f.append(free_energy(x, tp, cfg))
        u.append(mean_energy(x, tp, cfg))
        c.append(specific_heat(x, tp, cfg))
        s.append(entropy(x, tp, cfg))
    ordering = (
        f[0] < f[1] < f[2]
        and u[0] > u[1] > u[2]
        and c[0] > c[1] > c[2]
        and s[0] > s[1] > s[2]
    )
    tp0, cfg0 = theta_ensemble(0.0, 3)
    heat = [specific_heat(t, tp0, cfg0) for t in np.linspace(15.0, 50.0, 12)]
    constant = max(abs(v - 2.0) for v in heat) <= 1e-13
    report(
        "criterion-9 sign-structure",
        ordering and constant,
        f"F increasing / U,C,S decreasing in theta: {ordering}; theta=0 heat constant 2 kB: {constant}",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_10_normalization_identity():
    start = time.perf_counter()
    worst = 0.0
    for nu in (0.75, 1.5, 3.25, 100.0, 1e4, 1e6, 1e8):
        for n in (0, 1, 5, 15):
            worst = max(worst, abs(normalization_identity_residual(n, nu)))
    for mu in (0.75, 2.5, 31.0, 1e4, 1e8):
        for nr, l, dim in ((0, 0, 3), (2, 1, 2), (5, 3, 10), (1, 0, 4)):
            worst = max(worst, abs(radial_normalization_identity_residual(nr, l, dim, mu)))
    report(
        "criterion-10 normalization-identity",
        worst <= 1e-12,
        f"worst |log residual| {worst:.3e} for envelope exponents up to 1e8, tol 1e-12",
        time.perf_counter() - start,
        1.0,
    )
