"""Golden-byte pins on CLI outputs.

A change that shifts float rounding anywhere in compilation, replay or the
noise lab changes these hashes.  Such a change must update the pins on purpose
and say why; a faster kernel must leave them as they are.
"""

import hashlib

import pytest

from ionsynth import Truncation, deevolve, target_corr, target_ghz
from ionsynth.cli import main

GHZ4_SCHEDULE = "97dba55b0584ca11df1d8c9e0479deb0add3feb03c8a923bde8d04430d497f90"
CORR8_SCHEDULE = "d56087cb5facf4be441a81b60ef13ecabaf6869aa22dfd2229aba7d8598179c4"
CORR8_SWEEP_SEED42 = "9ef08f33587e4f98ba6f754d16227d6c1a80609c285945e2f010eb4b6d2bc9c9"

# The writer's other paths and the compiler away from the default working point.
EXTRA_SCHEDULES = {
    "ghz6-deevolution": (
        ["--target", "ghz", "--jmax", "6", "--direction", "deevolution"],
        "77d1ec98f758d965f92eddd76565a2007f00a772058eee50b1c89c21114a70a0",
    ),
    "corr8-pruned": (
        ["--target", "corr", "--jmax", "8", "--prune-noops"],
        "7e7ad087d457f5430b70791287e688336c6ff70bd171642605e68c58d626bfa9",
    ),
    # The one pin whose notes hold two-digit occupations.
    "corr12": (
        ["--target", "corr", "--jmax", "12"],
        "a5e1ef96bb9bb8b14390dff243f71102768d1c54897cd3396495cb587174da2d",
    ),
    "corr8-eps": (
        ["--target", "corr", "--jmax", "8", "--eps", "0.45,0.15,0.25", "--eps-carrier", "0.15"],
        "c3452d084fa52263dcaae2b75e9812cd39c88516715aee1ce9666875c216e623",
    ),
}


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


@pytest.mark.parametrize("name", list(EXTRA_SCHEDULES))
def test_extra_schedule_bytes(name, tmp_path, capsys):
    flags, digest = EXTRA_SCHEDULES[name]
    out = tmp_path / f"{name}.json"
    assert main(["compile", *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out) == digest


# channel, x, theta and note bytes of corr(1) and ghz(1), both directions, at
# every J_max 0-12 and the default point, in that nesting order.
SCHEDULE_COLUMNS_0_TO_12 = "66a702b96b422e97115329a4109383944208e87d7001b7816266a68fdd691d75"


def test_schedule_column_bytes_at_every_cutoff_to_12():
    digest = hashlib.sha256()
    for j_max in range(13):
        for make in (target_corr, target_ghz):
            result = deevolve(make(1, Truncation(j_max)).state)
            for schedule in (result.deevolution, result.preparation):
                for column in (schedule.channel, schedule.x, schedule.theta, schedule.note):
                    digest.update(column.tobytes())
    assert digest.hexdigest() == SCHEDULE_COLUMNS_0_TO_12
