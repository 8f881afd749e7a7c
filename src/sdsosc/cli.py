"""Command-line surface: spectra, wavefunctions, thermodynamic curves,
experimental bounds, and the verification-suite runner.

Output is deterministic: identical configurations produce byte-identical
files (fixed 17-significant-digit formatting, '#'-prefixed metadata with the
effective configuration echoed as JSON).  Exit codes: 0 success, 2 usage or
validation, 3 I/O failure, 4 out of regime or a numerical procedure that
failed (NumericError).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import (
    MAX_COUNT,
    NumericError,
    OutOfRegimeError,
    ParameterDomainError,
    QuantumNumberError,
    SdsError,
    UnsupportedRepresentationError,
)
from .model import (
    NATURAL,
    SI,
    OscillatorConfig,
    PUBLISHED_DELTA_P_BOUND,
    PUBLISHED_DELTA_X_BOUND,
    PUBLISHED_THETA_BOUND,
    deformation_bounds,
    derive_params,
    level_radicand,
    level_shift_first_order,
)
from .tables import SpectrumTable, format_number
from . import spectrum1d as s1
from . import spectrumnd as snd
from . import thermo as th

USAGE_ERROR = 2
IO_ERROR = 3
REGIME_ERROR = 4

FIGURE_THETAS = (0.0, 1e-6, 1e-5)
FIGURE_QUANTITY = {2: "F", 3: "U", 4: "C", 5: "S"}


@dataclass
class RunConfig:
    """Effective run configuration; JSON config files use these exact keys."""

    units: str = NATURAL
    alpha1: float = 0.005
    alpha2: float = 0.005
    m: float = 1.0
    omega: float = 1.0
    dim: int = 1
    l: int = 0
    n_min: int = 0
    n_max: int = 10
    t_min: float = 15.0
    t_max: float = 50.0
    t_count: int = 36
    t_scale: str = "linear"
    format: str = "csv"
    out: str | None = None
    method: str = "highT"

    def oscillator(self, dim: int | None = None) -> OscillatorConfig:
        d = self.dim if dim is None else dim
        if self.units == NATURAL:
            return OscillatorConfig.natural(dim=d)
        return OscillatorConfig.si(m=self.m, omega=self.omega, dim=d)

    def echo(self) -> dict:
        """Effective configuration; the destination path is not part of it,
        so identical computations emit identical bytes wherever they land."""
        return {k: v for k, v in asdict(self).items() if k != "out"}


# closed value sets and upper bounds of the RunConfig options; config-file
# values meet the same checks as flags
CHOICES = {
    "units": (NATURAL, SI),
    "format": ("csv", "json"),
    "t_scale": ("linear", "log"),
    "method": th.METHODS + ("all",),
}
LIMITS = {"dim": MAX_COUNT, "l": MAX_COUNT, "n_min": MAX_COUNT, "n_max": MAX_COUNT, "t_count": 10_000}
MAX_ROWS = 1_000_000  # spectrum table rows
MAX_P_COUNT = 1_000_000
MAX_WAVEFUNCTION_N = 5000  # its norm check solves an (n + 1)-node rule in O(n^3)
SPECTRUM_OVERFLOW = "spectrum: the level radicand (k^2 / m^2 c^2) n^2 overflows double precision"


def _field_type(key: str) -> type:
    """Type of a run option: that of its default (``out`` is a path)."""
    default = RunConfig.__dataclass_fields__[key].default
    return str if default is None else type(default)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 JSON, an integer too long to parse
        raise ParameterDomainError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterDomainError("config file must hold a JSON object")
    unknown = set(data) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ParameterDomainError(f"unknown config keys: {sorted(unknown)}")
    return data


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then preset defaults, then config-file values, then flags.

    A config value is read as the text of its flag: JSON null leaves the key
    unset, true/false, lists and objects are rejected, and 3.0 for an integer
    key fails just as ``--dim 3.0`` does.
    """
    # --figure1's point is the large-n saturation, so its table reaches n = 1e4 by default
    values = {"n_max": 10_000} if getattr(args, "figure1", False) else {}
    values.update({k: v for k, v in (load_config(args.config) if args.config else {}).items() if v is not None})
    values.update({k: v for k in RunConfig.__dataclass_fields__ if (v := getattr(args, k, None)) is not None})
    for key, value in values.items():
        kind = _field_type(key)
        try:
            if type(value) not in (str, int, float):  # JSON true/false, lists, objects
                raise ValueError
            value = values[key] = kind(str(value))
        except ValueError:
            raise ParameterDomainError(f"{key}: expected {kind.__name__}, got {value!r}") from None
        if key in CHOICES and value not in CHOICES[key]:
            raise ParameterDomainError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
        if key in LIMITS and value > LIMITS[key]:
            raise ParameterDomainError(f"{key} must be at most {LIMITS[key]}, got {value}")
    return RunConfig(**values)


def _write(write, out: str | None) -> None:
    """``write(fh)`` with stdout for no path or "-", else with ``out`` opened for text."""
    if out is None or out == "-":
        write(sys.stdout)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        write(fh)


def _emit(table: SpectrumTable, run: RunConfig, out: str | None) -> None:
    table.meta.setdefault("version", f"sdsosc {__version__}")
    table.meta.setdefault("config", run.echo())
    _write(functools.partial(table.write, fmt=run.format), out)


def _levels(run: RunConfig):
    """Integer arrays (n, l) of the table rows: l = 0 in 1D, every l of n's parity otherwise."""
    lo = max(run.n_min, 0)
    if run.n_max < run.n_min or run.n_max < 0:
        raise QuantumNumberError(f"empty quantum-number range [{run.n_min}, {run.n_max}]")
    rows = run.n_max - lo + 1
    if run.dim > 1:  # n // 2 + 1 rows per n; sum_{k <= n} k // 2 = (n // 2) ((n + 1) // 2)
        rows += (run.n_max // 2) * ((run.n_max + 1) // 2) - ((lo - 1) // 2) * (lo // 2)
    if rows > MAX_ROWS:
        raise ParameterDomainError(f"spectrum table would have {rows} rows; the limit is {MAX_ROWS}")
    if run.dim == 1:
        ns = np.arange(lo, run.n_max + 1)
        return ns, np.zeros_like(ns)
    return snd.level_pairs(lo, run.n_max)


def cmd_spectrum(args: argparse.Namespace) -> int:
    run = build_run_config(args)
    cfg = run.oscillator()
    params = derive_params(run.alpha1, run.alpha2, cfg)

    if args.figure1:
        deformations = [derive_params(0.0, 0.0, cfg), params]
        grid = np.array(sorted({int(v) for v in np.geomspace(1, max(run.n_max, 2), 60)}))
        columns = ["n"] + [f"dE[alpha1={p.alpha1:g}][alpha2={p.alpha2:g}]" for p in deformations]
        with np.errstate(all="ignore"):
            spacings = [_energies(grid + 1, 0, 1, p, cfg) - _energies(grid, 0, 1, p, cfg) for p in deformations]
        _check_finite(SPECTRUM_OVERFLOW, *spacings)
        meta = {"kind": "spectrum-spacing", "units": run.units,
                "asymptotes": {f"{p.alpha1:g},{p.alpha2:g}": s1.spacing_asymptote(p, cfg) for p in deformations}}
        _emit(SpectrumTable(columns=columns, data=[grid, *spacings], meta=meta), run, run.out)
        return 0

    ns, ls = _levels(run)
    step = 1 if run.dim == 1 else 2
    with np.errstate(all="ignore"):
        energy = _energies(ns, ls, run.dim, params, cfg)
        spacing = _energies(ns + step, ls, run.dim, params, cfg) - energy
        _, dev = level_shift_first_order(ns, ls, run.dim, params, cfg)
    _check_finite(SPECTRUM_OVERFLOW, energy, spacing, dev)
    data = [ns, ls, np.full(ns.size, run.dim), energy, spacing, dev]
    meta = {"kind": "spectrum", "units": run.units, "alpha1": run.alpha1, "alpha2": run.alpha2,
            "spacing_asymptote": s1.spacing_asymptote(params, cfg)}
    columns = ("n", "l", "dim", "energy", "spacing", "deviation_first_order")
    _emit(SpectrumTable(columns=columns, data=data, meta=meta), run, run.out)
    return 0


def _energies(ns, ls, dim: int, params, cfg: OscillatorConfig) -> np.ndarray:
    """Positive-branch energies of the levels (ns, ls), one array call."""
    return cfg.mc2 * np.sqrt(level_radicand(ns, ls, dim, params, cfg))


def _check_finite(what: str, *columns) -> None:
    if not all(np.all(np.isfinite(c)) for c in columns):
        raise NumericError(what)


def cmd_wavefunction(args: argparse.Namespace) -> int:
    run = build_run_config(args)
    if not 2 <= args.p_count <= MAX_P_COUNT:
        raise ParameterDomainError(f"p-count must be between 2 and {MAX_P_COUNT}, got {args.p_count}")
    if args.n > MAX_WAVEFUNCTION_N:
        raise ParameterDomainError(f"n must be at most {MAX_WAVEFUNCTION_N}, got {args.n}")
    # overflow shows up as inf/NaN samples, rejected as one error line before the O(n^3) norm rule
    # is built: psi overflows first (undeformed from n = 144, at the grid's edge)
    with np.errstate(all="ignore"):
        grid, values, meta, norm = _wavefunction_samples(run, args.n, args.p_count, args.undeformed)
        _check_finite(f"wavefunction n={args.n}: psi samples overflow double precision", values)
        meta["norm_check"] = norm()
    if not math.isfinite(meta["norm_check"]):
        raise NumericError(f"wavefunction n={args.n}: norm_check is {meta['norm_check']!r} in double precision")
    _emit(SpectrumTable(columns=("p", "psi"), data=[grid, values], meta=meta), run, run.out)
    return 0


def _wavefunction_samples(run: RunConfig, n: int, count: int, undeformed: bool):
    """(momentum grid, psi samples, metadata, the call that returns the quadrature norm_check)."""
    cfg = run.oscillator()
    if undeformed:
        sigma = cfg.m * cfg.omega * cfg.hbar
        span = 6.0 * math.sqrt(sigma * (n + 1.0))
        grid = np.linspace(-span, span, count)
        values = s1.wavefunction_1d_undeformed(n, cfg, grid)
        meta = {"kind": "wavefunction-undeformed", "n": n, "units": run.units}
        return grid, values, meta, functools.partial(s1.wavefunction_norm_1d_undeformed, n, cfg)

    params = derive_params(run.alpha1, run.alpha2, cfg)
    if run.alpha2 <= 0.0:
        raise UnsupportedRepresentationError(
            "undeformed p-representation: use --undeformed to emit the Gaussian-Hermite profile"
        )
    pmax = s1.momentum_cutoff(params)
    clip = pmax * (1.0 - 1e-9)
    if run.dim == 1:
        grid = np.linspace(-clip, clip, count)
        values = s1.wavefunction_1d(n, params, cfg, grid)
        meta = {"kind": "wavefunction", "n": n}
        norm = functools.partial(s1.wavefunction_norm_1d, n, params, cfg)
    else:
        grid = np.linspace(0.0, clip, count)
        values = snd.radial_wavefunction(n, run.l, run.dim, params, cfg, grid)
        meta = {"kind": "radial-wavefunction", "nr": n, "l": run.l, "dim": run.dim}
        norm = functools.partial(snd.radial_norm, n, run.l, run.dim, params, cfg)
    meta.update(units=run.units, alpha1=run.alpha1, alpha2=run.alpha2, momentum_cutoff=pmax)
    return grid, values, meta, norm


def _theta_params(theta: float, cfg: OscillatorConfig):
    """Realize a target theta with a pure position-space deformation."""
    return derive_params(0.0, theta * cfg.c**2, cfg)


def cmd_thermo(args: argparse.Namespace) -> int:
    run = build_run_config(args)
    figure = next((k for k in FIGURE_QUANTITY if getattr(args, f"figure{k}")), None)
    cfg = run.oscillator(dim=3 if figure else None)
    if run.t_count < 2 or not 0.0 < run.t_min < run.t_max < math.inf:
        raise ParameterDomainError("temperature grid needs finite 0 < t_min < t_max and t_count >= 2")
    if run.out is None:
        raise ParameterDomainError("thermo writes one file per quantity; --out prefix is required")
    grid = (np.geomspace if run.t_scale == "log" else np.linspace)(run.t_min, run.t_max, run.t_count)
    methods = th.METHODS if run.method == "all" else (run.method,)
    thetas = list(FIGURE_THETAS) if figure else [derive_params(run.alpha1, run.alpha2, cfg).theta]
    quantities = (FIGURE_QUANTITY[figure],) if figure else th.QUANTITIES
    curves = []
    for theta in thetas:
        tp = th.thermo_params(_theta_params(theta, cfg), cfg, l=run.l)
        curves.append((theta, th.thermo_curve(grid, tp, cfg, methods=methods)))

    any_ok = False
    for q in quantities:
        columns, data = ["T"], [grid]
        for theta, curve in curves:
            for m in methods:
                columns += [f"{q}[theta={theta:g}][{m}]", f"in_regime[theta={theta:g}][{m}]"]
                data += [curve.data[m][q], curve.flags[m].astype(int)]  # 0/1, not json's false/true
                any_ok = any_ok or bool(np.any(curve.flags[m] & ~np.isnan(curve.data[m][q])))
        meta = {"kind": f"thermo-{q}", "units": run.units, "l": run.l,
                "dim": cfg.dim, "thetas": [float(t) for t in thetas], "methods": list(methods)}
        _emit(SpectrumTable(columns=columns, data=data, meta=meta), run, f"{run.out}.{q}.{run.format}")
    if not any_ok:
        raise OutOfRegimeError("every grid point is out of the high-temperature regime; use --method direct, "
                               "or a smaller --alpha1/--alpha2 so that theta*delta <= 0.5")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    run = build_run_config(args)
    cfg = run.oscillator()
    bounds = deformation_bounds(cfg, args.b_field, args.n_level)
    lines = [
        f"# version: sdsosc {__version__}",
        f"# config: {json.dumps(run.echo(), sort_keys=True)}",
        f"B_field_T: {format_number(bounds.b_field)}",
        f"n_level: {bounds.n_level}",
        f"theta_exact_c2units: {format_number(bounds.theta_exact)}",
        f"theta_bound_c2units: {format_number(bounds.theta_bound)}",
        f"theta_reference_c2units: {format_number(PUBLISHED_THETA_BOUND)}",
        f"delta_x_bound_m: {format_number(bounds.delta_x_bound)}",
        f"delta_x_reference_m: {format_number(PUBLISHED_DELTA_X_BOUND)}",
        f"delta_p_bound_kgms: {format_number(bounds.delta_p_bound)}",
        f"delta_p_reference_kgms: {format_number(PUBLISHED_DELTA_P_BOUND)}",
        f"theta_scaling_exponent_in_B: {format_number(bounds.scaling_exponent)}",
    ]
    _write(lambda fh: fh.write("\n".join(lines) + "\n"), run.out)
    return 0


def _suite_oracles() -> list[dict]:
    checks = []
    cfg1 = OscillatorConfig.natural(dim=1)
    worst = 0.0
    for a1, a2 in ((0.005, 0.005), (0.02, 0.0), (1e-6, 1e-4)):
        params = derive_params(a1, a2, cfg1)
        for n in (0, 1, 7, 100, 5000):
            e, o = s1.energy_1d(n, params, cfg1), s1.energy_1d_oracle(n, params, cfg1)
            worst = max(worst, abs(e - o) / e)
    checks.append({"name": "energy-two-path-1d", "passed": worst <= 1e-12, "detail": f"worst rel {worst:.3e}"})
    worst = 0.0
    for dim in (2, 3, 10):
        cfg = OscillatorConfig.natural(dim=dim)
        params = derive_params(0.005, 0.005, cfg)
        for nr in (0, 2, 11):
            for l in (0, 1, 5):
                e = snd.energy_nd(2 * nr + l, l, dim, params, cfg)
                o = snd.energy_nd_oracle(nr, l, dim, params, cfg)
                worst = max(worst, abs(e - o) / e)
    checks.append({"name": "energy-two-path-nd", "passed": worst <= 1e-12, "detail": f"worst rel {worst:.3e}"})
    worst = 0.0
    for nu in (0.75, 100.0, 1e6, 1e8):
        for n in (0, 3):
            worst = max(worst, abs(s1.normalization_identity_residual(n, nu)))
    for mu in (2.5, 1e4, 1e8):
        worst = max(worst, abs(snd.radial_normalization_identity_residual(1, 2, 3, mu)))
    checks.append({"name": "normalization-identity", "passed": worst <= 1e-12, "detail": f"worst |residual| {worst:.3e}"})
    return checks


def _suite_orthonormality() -> list[dict]:
    cfg = OscillatorConfig.natural(dim=3)
    params = derive_params(0.005, 0.005, cfg)
    grams = (("gram-1d", 9, lambda n, m: s1.inner_product_1d(n, m, params, cfg)),
             ("gram-nd", 5, lambda n, m: snd.radial_inner_product(n, m, 1, 3, params, cfg)))
    checks = []
    for name, size, inner in grams:
        worst = max(abs(inner(n, m) - float(n == m)) for n in range(size) for m in range(n, size))
        checks.append({"name": name, "passed": worst <= 1e-8, "detail": f"worst |G - I| {worst:.3e}"})
    return checks


def _suite_limits() -> list[dict]:
    checks = []
    cfg = OscillatorConfig.natural(dim=1)
    zero = derive_params(0.0, 0.0, cfg)
    worst = max(
        abs(s1.energy_1d(n, zero, cfg) - math.sqrt(1.0 + 2.0 * n)) for n in range(0, 200, 7)
    )
    checks.append({"name": "undeformed-spectrum", "passed": worst == 0.0, "detail": f"max |diff| {worst:.3e}"})
    cfg3 = OscillatorConfig.natural(dim=3)
    worst = 0.0
    for n in range(0, 12, 2):
        es = [snd.energy_nd(n, l, 3, zero, cfg3) for l in range(n % 2, n + 1, 2)]
        worst = max(worst, max(es) - min(es))
    checks.append({"name": "undeformed-degeneracy", "passed": worst <= 1e-14, "detail": f"max split {worst:.3e}"})
    worst = max(abs(s1.wavefunction_norm_1d_undeformed(n, cfg) - 1.0) for n in (0, 7, 20, 100))
    checks.append({"name": "undeformed-norm", "passed": worst <= 1e-12, "detail": f"worst |norm - 1| {worst:.3e}"})
    sups = []
    for a2 in (1e-3, 1e-4, 1e-5):
        params = derive_params(0.0, a2, cfg)
        grid = np.linspace(-3.0, 3.0, 61)
        sup = 0.0
        for n in range(4):
            d = np.abs(np.asarray(s1.wavefunction_1d(n, params, cfg, grid)) -
                       np.asarray(s1.wavefunction_1d_undeformed(n, cfg, grid)))
            sup = max(sup, float(np.max(d)))
        sups.append(sup)
    ok = sups[0] > sups[1] > sups[2]
    checks.append({"name": "wavefunction-limit-sweep", "passed": ok, "detail": f"sups {['%.3e' % s for s in sups]}"})
    params = derive_params(0.005, 0.005, cfg)
    asym = s1.spacing_asymptote(params, cfg)
    gap4 = s1.energy_1d(10001, params, cfg) - s1.energy_1d(10000, params, cfg)
    checks.append({
        "name": "spacing-asymptote",
        "passed": abs(gap4 - asym) / asym <= 0.01,
        "detail": f"|dE - asym|/asym at n=1e4: {abs(gap4 - asym) / asym:.3e}",
    })
    return checks


def _suite_thermo() -> list[dict]:
    checks = []
    worst = 0.0
    residues = {}
    for x in (20.0, 40.0):
        for theta in (0.0, 1e-6, 1e-5):
            cfg = OscillatorConfig.natural(dim=3)
            tp = th.thermo_params(_theta_params(theta, cfg), cfg)
            zd = th.partition_direct(x, tp, cfg, 1e-10)
            zh = th.partition_highT(x, tp, cfg).value
            worst = max(worst, abs(zd - zh) / zd)
            u_c = th.mean_energy(x, tp, cfg)
            u_n, c_n, s_n = th._numeric_ucs("highT", x, tp, cfg)
            residues[f"U[x={x:g},theta={theta:g}]"] = abs(u_c - u_n) / abs(u_n)
    checks.append({"name": "partition-chain", "passed": worst <= 0.05, "detail": f"worst direct-vs-highT rel {worst:.3e}"})
    worst_res = max(residues.values())
    checks.append({
        "name": "derivative-residues",
        "passed": worst_res <= 1e-4,
        "detail": json.dumps({k: f"{v:.3e}" for k, v in sorted(residues.items())}),
    })
    cfg = OscillatorConfig.natural(dim=3)
    fs, us, cs, ss = [], [], [], []
    for theta in (0.0, 1e-6, 1e-5):
        tp = th.thermo_params(_theta_params(theta, cfg), cfg)
        fs.append(th.free_energy(20.0, tp, cfg))
        us.append(th.mean_energy(20.0, tp, cfg))
        cs.append(th.specific_heat(20.0, tp, cfg))
        ss.append(th.entropy(20.0, tp, cfg))
    ok = fs[0] < fs[1] < fs[2] and us[0] > us[1] > us[2] and cs[0] > cs[1] > cs[2] and ss[0] > ss[1] > ss[2]
    checks.append({"name": "sign-structure", "passed": ok, "detail": f"F {fs}, U {us}"})
    return checks


VERIFY_SUITES = {
    "oracles": _suite_oracles,
    "orthonormality": _suite_orthonormality,
    "limits": _suite_limits,
    "thermo": _suite_thermo,
}


def cmd_verify(args: argparse.Namespace) -> int:
    run = build_run_config(args)
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        for check in VERIFY_SUITES[name]():
            checks.append({"suite": name, **check})
    passed = all(c["passed"] for c in checks)
    report = {"suite": args.suite, "passed": passed, "version": f"sdsosc {__version__}", "checks": checks}
    _write(lambda fh: fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n"), run.out)
    return 0 if passed else 1


def _add_options(parser: argparse.ArgumentParser, *keys: str) -> None:
    """One flag per RunConfig field, typed and restricted as the field is."""
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_field_type(key), choices=CHOICES.get(key))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdsosc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sdsosc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its keys")
    _add_options(common, "units", "alpha1", "alpha2", "m", "omega", "dim", "l", "format", "out")

    p = sub.add_parser("spectrum", parents=[common], help="energy tables and spacing series")
    _add_options(p, "n_min", "n_max")
    p.add_argument("--figure1", action="store_true", help="emit (n, spacing) series with and without deformation")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", parents=[common], help="momentum-space wavefunction samples")
    p.add_argument("--n", type=int, required=True, help="level (1D) or radial number (dim > 1)")
    p.add_argument("--p-count", dest="p_count", type=int, default=201)
    p.add_argument("--undeformed", action="store_true", help="emit the zero-deformation profile")
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("thermo", parents=[common], help="thermodynamic curves per method and theta")
    _add_options(p, "t_min", "t_max", "t_count", "t_scale", "method")
    for k, q in FIGURE_QUANTITY.items():
        p.add_argument(f"--figure{k}", action="store_true", help=f"preset: {q} curves at theta in {FIGURE_THETAS}, 3D")
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("bounds", parents=[common], help="Penning-trap deformation bounds (SI)")
    p.add_argument("--b-field", dest="b_field", type=float, default=6.0)
    p.add_argument("--n-level", dest="n_level", type=float, default=1e10)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite, report JSON")
    p.add_argument("--suite", choices=tuple(VERIFY_SUITES) + ("all",), default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SdsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            return IO_ERROR
        return USAGE_ERROR if isinstance(exc, ValueError) else REGIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
