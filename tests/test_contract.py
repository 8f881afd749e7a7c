"""The library's argument contract, as a property over its public functions.

A count (a quantum number, a degree, a rule size, a dimension) is an integer
in [low, 2^53]; an integral float such as 3.0 stands for the int 3 and gives
exactly the same result.  An exponent (nu, a, b, the log-gamma argument) must
exceed its bound, and NaN never does.  Every violation raises
ParameterDomainError (QuantumNumberError is a subclass), never a bare
ValueError, OverflowError, TypeError or LinAlgError, and never returns NaN.
"""

import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, note, settings

from sdsosc import spectrum1d as s1
from sdsosc import spectrumnd as snd
from sdsosc import thermo as th
from sdsosc.errors import MAX_COUNT, ParameterDomainError
from sdsosc.model import OscillatorConfig, deformation_bounds, derive_params
from sdsosc.polynomials import (
    gauss_jacobi_rule,
    gauss_jacobi_scaled,
    gegenbauer,
    gegenbauer_norm_log,
    hermite,
    jacobi,
    jacobi_norm_log,
    log_gamma,
)

NAN, INF = math.nan, math.inf
CFG1, CFG3 = OscillatorConfig.natural(dim=1), OscillatorConfig.natural(dim=3)
P1, P3 = derive_params(0.005, 0.005, CFG1), derive_params(0.005, 0.005, CFG3)
TP3 = th.thermo_params(derive_params(0.0, 1e-6, CFG3), CFG3)
SI = OscillatorConfig.si(m=9.1093837015e-31, omega=1e11)

N = st.integers(0, 6)
DIM = st.integers(1, 5)
EXPONENT = st.floats(0.25, 12.0)
# Jacobi exponents reach down to their bound, where a + b <= -1 has a finite norm
JACOBI_EXPONENT = st.floats(-1.0, 12.0, exclude_min=True)


def count(low=0):
    return "count", low


def above(bound):
    return "above", bound


def bad_values(kind, edge):
    if kind == "count":
        return [NAN, INF, -INF, -1, edge - 1, 2.5, MAX_COUNT + 1, 10**400]
    return [NAN, -INF, edge]


def pair(draw):
    """(n, l) with n = 2 n_r + l."""
    nr, l = draw(N), draw(N)
    return [2 * nr + l, l]


# name: (function, {argument position: kind}, valid arguments from a draw)
CASES = {
    "log_gamma": (log_gamma, {0: above(0.0)}, lambda d: [d(st.floats(0.1, 50.0))]),
    "gegenbauer": (gegenbauer, {0: count(), 1: above(-0.5)}, lambda d: [d(N), d(EXPONENT), 0.3]),
    "jacobi": (jacobi, {0: count(), 1: above(-1.0), 2: above(-1.0)},
               lambda d: [d(N), d(JACOBI_EXPONENT), d(JACOBI_EXPONENT), -0.4]),
    "hermite": (hermite, {0: count()}, lambda d: [d(N), 0.7]),
    "gegenbauer_norm_log": (gegenbauer_norm_log, {0: count(), 1: above(0.0)}, lambda d: [d(N), d(EXPONENT)]),
    "jacobi_norm_log": (jacobi_norm_log, {0: count(), 1: above(-1.0), 2: above(-1.0)},
                        lambda d: [d(N), d(JACOBI_EXPONENT), d(JACOBI_EXPONENT)]),
    "gauss_jacobi_scaled": (gauss_jacobi_scaled, {0: count(1), 1: above(-1.0), 2: above(-1.0)},
                            lambda d: [d(st.integers(1, 8)), d(JACOBI_EXPONENT), d(JACOBI_EXPONENT)]),
    "gauss_jacobi_rule": (gauss_jacobi_rule, {0: count(1), 1: above(-1.0), 2: above(-1.0)},
                          lambda d: [d(st.integers(1, 8)), d(JACOBI_EXPONENT), d(JACOBI_EXPONENT)]),
    **{f.__name__: (f, {0: count()}, lambda d: [d(N), P1, CFG1])
       for f in (s1.energy_1d, s1.energy_1d_oracle, s1.energy_deviation_first_order,
                 s1.energy_nonrelativistic, s1.state_1d, s1.wavefunction_norm_1d)},
    "inner_product_1d": (s1.inner_product_1d, {0: count(), 1: count()}, lambda d: [d(N), d(N), P1, CFG1]),
    "wavefunction_norm_1d_undeformed": (s1.wavefunction_norm_1d_undeformed, {0: count()}, lambda d: [d(N), CFG1]),
    "wavefunction_1d": (s1.wavefunction_1d, {0: count()}, lambda d: [d(N), P1, CFG1, 0.5]),
    "wavefunction_1d_undeformed": (s1.wavefunction_1d_undeformed, {0: count()}, lambda d: [d(N), CFG1, 0.5]),
    **{f.__name__: (f, {0: count(), 1: count(), 2: count(1)}, lambda d: pair(d) + [d(DIM), P3, CFG3])
       for f in (snd.energy_nd, snd.energy_deviation_first_order_nd)},
    **{f.__name__: (f, {0: count(), 1: count(), 2: count(1)}, lambda d: [d(N), d(N), d(DIM), P3, CFG3])
       for f in (snd.energy_nd_oracle, snd.state_nd, snd.radial_norm)},
    "radial_wavefunction": (snd.radial_wavefunction, {0: count(), 1: count(), 2: count(1)},
                            lambda d: [d(N), d(N), d(DIM), P3, CFG3, 0.5]),
    "radial_inner_product": (snd.radial_inner_product, {0: count(), 1: count(), 2: count(), 3: count(1)},
                             lambda d: [d(N), d(N), d(N), d(DIM), P3, CFG3]),
    "radial_exponents": (snd.radial_exponents, {2: count(), 3: count(1)}, lambda d: [P3, CFG3, d(N), d(DIM)]),
    "angular_degeneracy": (snd.angular_degeneracy, {0: count(), 1: count(1)}, lambda d: [d(N), d(DIM)]),
    "degeneracy_table": (snd.degeneracy_table, {0: count(), 1: count(1)}, lambda d: [d(N), d(DIM), P3, CFG3]),
    "thermo_params": (th.thermo_params, {2: count()}, lambda d: [P3, CFG3, d(N)]),
    "partition_em_series": (th.partition_em_series, {3: count(1)},
                            lambda d: [20.0, TP3, CFG3, d(st.integers(1, 30))]),
    "OscillatorConfig": (OscillatorConfig, {4: count(1)}, lambda d: [1.0, 1.0, 1.0, 1.0, d(DIM)]),
    "deformation_bounds": (deformation_bounds, {2: count(1)}, lambda d: [SI, 6.0, d(st.integers(1, 10**12))]),
}


def replaced(args, i, value):
    return args[:i] + [value] + args[i + 1:]


def same(x, y) -> bool:
    """Equal in structure and in every value (3 and 3.0 are equal values)."""
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and same(vars(x), vars(y))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(same, x, y))
    return bool(np.array_equal(x, y))


@given(name=st.sampled_from(sorted(CASES)), data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bad_count_or_exponent_is_a_domain_error(name, data):
    fn, kinds, valid = CASES[name]
    args = valid(data.draw)
    for i, (kind, edge) in kinds.items():
        for bad in bad_values(kind, edge):
            note(f"{name}: argument {i} = {bad!r}")
            try:
                result = fn(*replaced(args, i, bad))
            except ParameterDomainError:
                continue
            raise AssertionError(f"{name}: argument {i} = {bad!r} returned {result!r}")


@given(name=st.sampled_from(sorted(CASES)), data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integral_float_count_gives_the_int_result(name, data):
    fn, kinds, valid = CASES[name]
    args = valid(data.draw)
    expected = fn(*args)
    for i, (kind, _) in kinds.items():
        if kind == "count":
            note(f"{name}: argument {i} = {float(args[i])!r}")
            assert same(fn(*replaced(args, i, float(args[i]))), expected)
