"""Byte-identity of fixed natural-unit CLI outputs.

Each case runs one CLI command and compares the sha256 of the file it writes
with a recorded digest.  A refactor that keeps every output byte passes; any
change of a digit, a row, a column or the metadata fails and has to be
explained and re-recorded on purpose.
"""

import hashlib
import json

import pytest

from sdsosc.cli import main
from sdsosc.model import OscillatorConfig, derive_params
from sdsosc.spectrumnd import degeneracy_table

GOLDEN = {
    "spectrum-d1": (
        ["spectrum", "--n-max", "3000"],
        "b66ba13f8440ad7ba8f22988743af012d070bc7d1bb5f4dfc91e100532237c1d",
    ),
    "spectrum-d3": (
        ["spectrum", "--dim", "3", "--n-max", "120"],
        "c6f4d96333db4a04ede20acd4a43e31f14538ad17a64bc92148f6efaa4926eca",
    ),
    "spectrum-d5": (
        ["spectrum", "--dim", "5", "--n-max", "120"],
        "4a13f7612a424d29a17848a30769cdba79b7d05fff72a650de6000b3392dc5ea",
    ),
    # re-recorded when the spacing columns became dE[alpha1=...][alpha2=...] (a
    # plain CSV reader split the old dE[alpha1=...,alpha2=...] names in two) and
    # the preset's n_max = 10000 default moved into the echoed config; every
    # other line is byte-identical
    "figure1": (
        ["spectrum", "--figure1"],
        "8fd337fdf8621ad45faaa8e9de195bed39bfa0544c404d60762886b103027576",
    ),
    "thermo-figure4": (
        ["thermo", "--figure4", "--method", "all", "--t-min", "15", "--t-max", "16", "--t-count", "2"],
        "c6f9246516172c228dd02957a02c1714a4224ce967b22fc8149d4cc327d380c5",
    ),
    # re-recorded when the norm check became one exact 8-node rule: only the
    # norm_check line moved, 0.9999999999996753 -> 1.0000000000000142, whose
    # distance to the exact value 1 (mpmath, 40 digits) fell from 3.2e-13 to 1.4e-14
    "wavefunction-n7": (
        ["wavefunction", "--n", "7"],
        "c290d606acd916a8a4b8ef69e7db46feb49b706041556e274a948890238f0b91",
    ),
    # recorded when the undeformed norm check became the exact 21-node
    # Gauss-Hermite rule; only the norm_check line differs from the output of
    # the fixed 160-node Legendre check before it, 0.8824961236335362 -> 0.9999999999999978
    "wavefunction-undeformed-n20": (
        ["wavefunction", "--n", "20", "--undeformed"],
        "f3e682ca527de24c8d5b8207e74d2a9a31dfb0c153c441581eda4a796b090d60",
    ),
    # the three below and DEGENERACY_DIGEST were recorded before CSV rows went
    # through one % template per table, to pin output paths no other digest covered
    "spectrum-d3-json": (
        ["spectrum", "--dim", "3", "--n-max", "40", "--format", "json"],
        "cdfee95e0b1b33dba12aac6190c5d6a54fc2994b2715df982214b0cd47fb12c7",
    ),
    "wavefunction-radial-d3-n12": (
        ["wavefunction", "--n", "12", "--dim", "3", "--l", "1"],
        "c2291ae0f38b9cf41441eeb2875b67f0d61c349b4ccf8c39f2eb1f052e74f4fc",
    ),
    "thermo-figure2-json": (
        ["thermo", "--figure2", "--method", "all", "--t-min", "15", "--t-max", "16", "--t-count", "2",
         "--format", "json"],
        "ce2ead28f968617d313cee25891d256be11b87d0ed4691a2bf473e11185a37a6",
    ),
    # the two below were recorded before the direct moment pass went to fixed-size
    # chunks: at theta = 0 and kBT = 45..50 the sum reaches the 2^20-level block
    # cap (2 088 960 terms at kBT = 50), and at a3 > 0 the geometric tail bound
    # stops it; the second writes all five quantity files
    "thermo-figure4-direct-block-cap": (
        ["thermo", "--figure4", "--method", "direct", "--t-min", "45", "--t-max", "50", "--t-count", "2"],
        "8a12e0bea12d66f39d53bc8cc1be8f8ba17f7f0858737c8d4e37e42ff39d86ac",
    ),
    "thermo-direct-d1-geometric-tail": (
        ["thermo", "--method", "direct", "--dim", "1", "--alpha1", "1e-5", "--alpha2", "2e-5",
         "--t-min", "0.5", "--t-max", "200", "--t-count", "6"],
        "e5dfc93dd27b58b82b45e4e1c268db1d1d000d2fd8b1d7a69265c91d952886f0",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    # thermo takes --out as a prefix and writes one file per quantity; the digest
    # covers the written files joined in name order (one file: that file's digest)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    written = b"".join(path.read_bytes() for path in sorted(tmp_path.iterdir()))
    assert hashlib.sha256(written).hexdigest() == digest


DEGENERACY_DIGEST = "770084251079ac5087a68812fd774b8b299a966ca459992e69cc5075b7d3902f"


def test_degeneracy_table_digest():
    cfg = OscillatorConfig.natural(dim=3)
    csv = degeneracy_table(12, 3, derive_params(0.005, 0.005, cfg), cfg).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == DEGENERACY_DIGEST


# an SI config file plus one overriding flag: pins the merge of defaults,
# file values and flags byte for byte (recorded before the option table
# replaced the hand-typed flags)
CONFIG_RUN = {"units": "si", "dim": 3, "n_max": 6, "m": 9.1093837015e-31, "omega": 1e11, "alpha1": 1e-60}
CONFIG_DIGEST = "3366537540aa6b17aa97249567439be4e956f5d3a80c95049aef9d0de52fcb6d"


def test_config_file_digest(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG_RUN))
    written = tmp_path / "out.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--alpha2", "1e-30", "--out", str(written)]) == 0
    assert hashlib.sha256(written.read_bytes()).hexdigest() == CONFIG_DIGEST
