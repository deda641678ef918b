"""Golden-byte pins on CLI outputs.

A change that shifts float rounding anywhere in compilation, replay or the
noise lab changes these hashes.  Such a change must update the pins on purpose
and say why; a faster kernel must leave them as they are.
"""

import hashlib

import pytest

from ionsynth.cli import main

GHZ4_SCHEDULE = "97dba55b0584ca11df1d8c9e0479deb0add3feb03c8a923bde8d04430d497f90"
CORR8_SCHEDULE = "d56087cb5facf4be441a81b60ef13ecabaf6869aa22dfd2229aba7d8598179c4"
CORR8_SWEEP_SEED42 = "9ef08f33587e4f98ba6f754d16227d6c1a80609c285945e2f010eb4b6d2bc9c9"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    ghz, corr, csv = d / "ghz4.json", d / "corr8.json", d / "sweep.csv"
    assert main(["compile", "--target", "ghz", "--jmax", "4", "--out", str(ghz)]) == 0
    assert main(["compile", "--target", "corr", "--jmax", "8", "--out", str(corr)]) == 0
    assert main([
        "sweep", "--schedule", str(corr), "--target", "corr", "--trials", "4",
        "--delta-grid", "0:0.01:4", "--seed", "42", "--out", str(csv),
    ]) == 0
    return ghz, corr, csv


def test_ghz_schedule_bytes(outputs):
    assert sha256(outputs[0]) == GHZ4_SCHEDULE


def test_corr_schedule_bytes(outputs):
    assert sha256(outputs[1]) == CORR8_SCHEDULE


def test_sweep_csv_bytes(outputs):
    assert len(outputs[2].read_text().splitlines()) == 5
    assert sha256(outputs[2]) == CORR8_SWEEP_SEED42
