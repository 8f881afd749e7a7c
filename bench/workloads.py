"""Operation generators for the three benchmark workloads.

A run is a sequence of rounds.  Every round issues the same number of
operations of each kind, with inputs drawn inside fixed strata from a stream
seeded by (workload, seed, round), so the work per round is about the same
for every seed and no input repeats within a run.  Round -1 is the untimed
warm-up.  Each operation is the argv of one in-process ``sdsosc.cli.main``
call plus the parameters the independent checks need.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# Three temperature bands over the paper's range kBT in [15, 50].  An odd
# number of bands puts the per-operation median inside the middle band.
THERMO_BANDS = ((15.0, 26.5), (26.5, 38.0), (38.0, 50.0))
THERMO_POINTS = 3
# Deformation strata k^2 = alpha1 + alpha2 for the spectrum tables.
K2_BANDS = ((1e-4, 1e-3), (1e-3, 5e-3), (5e-3, 2e-2))
# Table sizes: D = 1 has n_max + 1 rows, D > 1 has (n_max/2 + 1)^2 rows.  A
# D = 1 row costs about 0.8 of a D > 1 row, so its table is longer and every
# table op costs about the same; the per-operation median then does not sit
# on the boundary between two kinds of operation.
TABLE_CENTRE = {1: 25_000, 3: 280, 5: 280}
TABLE_JITTER = 0.04
# Wavefunction strata: quantum-number bands and envelope-exponent bands.
LEVEL_BANDS = ((0, 25), (25, 50), (50, 75), (75, 100))
NU_BANDS = ((15.0, 30.0), (30.0, 60.0), (60.0, 120.0), (120.0, 200.0))
WAVE_KINDS = (1, 2, 3, 5)  # dimension; 1 is the 1D Gegenbauer state
P_COUNT = 401
# thermo --figureK writes one quantity
QUANTITY = {2: "F", 3: "U", 4: "C", 5: "S"}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _split(rng: random.Random, k2: float, lo: float, hi: float) -> tuple[float, float]:
    """Split k^2 = alpha1 + alpha2 (natural units) with alpha2 / k^2 in [lo, hi]."""
    alpha2 = k2 * rng.uniform(lo, hi)
    return k2 - alpha2, alpha2


def _thermo_ops(rng: random.Random) -> list[tuple[str, dict]]:
    figures = rng.sample(tuple(QUANTITY), len(THERMO_BANDS))
    ops = []
    for (lo, hi), figure in zip(THERMO_BANDS, figures):
        t_min = lo + rng.uniform(0.0, 0.5)
        t_max = hi - rng.uniform(0.0, 0.5)
        ops.append(("thermo", {"figure": figure, "t_min": t_min, "t_max": t_max, "t_count": THERMO_POINTS}))
    return ops


def _spectrum_ops(rng: random.Random) -> list[tuple[str, dict]]:
    band = rng.randrange(len(K2_BANDS))
    ops = []
    for dim, centre in TABLE_CENTRE.items():
        # an antithetic pair keeps the rows per round nearly constant
        x = rng.uniform(0.0, TABLE_JITTER)
        for sign in (1.0, -1.0):
            lo, hi = K2_BANDS[band % len(K2_BANDS)]
            band += 1
            alpha1, alpha2 = _split(rng, _log_uniform(rng, lo, hi), 0.1, 0.9)
            n_max = int(round(centre * (1.0 + sign * x)))
            ops.append(("spectrum", {"dim": dim, "n_max": n_max, "alpha1": alpha1, "alpha2": alpha2}))
    for _ in range(2):
        lo, hi = K2_BANDS[band % len(K2_BANDS)]
        band += 1
        alpha1, alpha2 = _split(rng, _log_uniform(rng, lo, hi), 0.1, 0.9)
        n_max = int(_log_uniform(rng, 1e4, 1e5))
        ops.append(("figure1", {"n_max": n_max, "alpha1": alpha1, "alpha2": alpha2}))
    return ops


def _wavefunction_ops(rng: random.Random) -> list[tuple[str, dict]]:
    ops = []
    for _ in range(2):
        for dim in WAVE_KINDS:
            # Latin assignment: each level band meets each exponent band once
            nu_order = list(range(len(NU_BANDS)))
            rng.shuffle(nu_order)
            for (n_lo, n_hi), nu_band in zip(LEVEL_BANDS, nu_order):
                n = rng.randrange(n_lo, n_hi)
                nu = _log_uniform(rng, *NU_BANDS[nu_band])
                alpha1, alpha2 = _split(rng, 1.0 / nu, 0.2, 0.9)
                l = 0 if dim == 1 else rng.randrange(0, 4)
                ops.append(("wavefunction", {"n": n, "l": l, "dim": dim, "alpha1": alpha1, "alpha2": alpha2,
                                             "p_count": P_COUNT}))
    return ops


GENERATORS = {
    "thermo-curves": _thermo_ops,
    "spectrum-tables": _spectrum_ops,
    "wavefunction-norms": _wavefunction_ops,
}


def make_op(kind: str, params: dict, outdir: Path, op_id: int) -> dict:
    """One operation: the CLI argv for ``params``, writing under ``outdir``,
    and the file it writes."""
    p = params
    stem = outdir / f"op{op_id:05d}"
    if kind == "thermo":
        argv = ["thermo", f"--figure{p['figure']}", "--method", "all", "--t-min", repr(p["t_min"]),
                "--t-max", repr(p["t_max"]), "--t-count", str(p["t_count"]), "--out", str(stem)]
        return {"id": op_id, "kind": kind, "params": p, "argv": argv,
                "files": [f"{stem}.{QUANTITY[p['figure']]}.csv"]}
    if kind == "spectrum":
        argv = ["spectrum", "--dim", str(p["dim"]), "--n-max", str(p["n_max"])]
    elif kind == "figure1":
        argv = ["spectrum", "--figure1", "--n-max", str(p["n_max"])]
    else:
        argv = ["wavefunction", "--n", str(p["n"])]
    argv += ["--alpha1", repr(p["alpha1"]), "--alpha2", repr(p["alpha2"])]
    if kind == "wavefunction":
        argv += ["--p-count", str(p["p_count"])]
        if p["dim"] > 1:
            argv += ["--dim", str(p["dim"]), "--l", str(p["l"])]
    return {"id": op_id, "kind": kind, "params": p, "argv": argv + ["--out", f"{stem}.csv"],
            "files": [f"{stem}.csv"]}


def round_ops(workload: str, seed: int, round_index: int, outdir: Path, first_id: int) -> list[dict]:
    """Operations of one round, each writing under ``outdir``.

    ``round_index`` -1 is the warm-up round.  Output names carry a run-wide
    operation id starting at ``first_id``.
    """
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    return [make_op(kind, params, outdir, first_id + i)
            for i, (kind, params) in enumerate(GENERATORS[workload](rng))]
