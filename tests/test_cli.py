import json

import pytest

from ionsynth import load_schedule
from ionsynth.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def ghz_schedule(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    code, out, _ = run(
        capsys, "compile", "--target", "ghz", "--jmax", "4", "--out", str(path)
    )
    assert code == 0
    return path


def test_compile_reports_residual(tmp_path, capsys):
    out_path = tmp_path / "s.json"
    code, out, err = run(
        capsys, "compile", "--target", "corr", "--jmax", "6", "--out", str(out_path)
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "target: corr(alpha=1.0)"
    assert any(line.startswith("truncated mass:") for line in lines)
    assert "pulses: 482" in lines
    residual = next(line for line in lines if line.startswith("residual:"))
    assert float(residual.split()[1]) <= 1e-9
    assert out_path.exists()


def test_verify_accepts_good_schedule(ghz_schedule, capsys):
    code, out, _ = run(
        capsys, "verify", "--schedule", str(ghz_schedule), "--target", "ghz"
    )
    assert code == 0
    assert "status: ok" in out
    fid = float(next(l.split()[1] for l in out.splitlines() if l.startswith("fidelity:")))
    assert fid >= 1 - 1e-9


def test_verify_flags_corrupted_schedule(ghz_schedule, tmp_path, capsys):
    doc = json.loads(ghz_schedule.read_text())
    slot = max(range(len(doc["pulses"])), key=lambda k: doc["pulses"][k]["x"])
    doc["pulses"][slot]["theta"] += 0.7853981633974483
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))

    code, out, _ = run(capsys, "verify", "--schedule", str(bad), "--target", "ghz")
    assert code == 2
    assert "below tolerance" in out


def test_verify_deevolution_direction(tmp_path, capsys):
    path = tmp_path / "de.json"
    code, _, _ = run(
        capsys,
        "compile", "--target", "ghz", "--jmax", "4",
        "--direction", "deevolution", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--schedule", str(path), "--target", "ghz")
    assert code == 0
    assert "(deevolution" in out


def test_pruned_schedule_still_verifies(tmp_path, capsys):
    path = tmp_path / "pruned.json"
    code, out, _ = run(
        capsys,
        "compile", "--target", "ghz", "--jmax", "4",
        "--prune-noops", "--out", str(path),
    )
    assert code == 0
    assert "pulses written (pruned):" in out
    sched = load_schedule(path)
    assert all(p.x > 0 for p in sched.pulses)
    code, out, _ = run(capsys, "verify", "--schedule", str(path), "--target", "ghz")
    assert code == 0


def test_sweep_writes_deterministic_csv(ghz_schedule, tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = [
        "sweep", "--schedule", str(ghz_schedule), "--target", "ghz",
        "--trials", "5", "--delta-grid", "0:0.02:3",
    ]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 4


def test_sweep_rejects_deevolution_schedule(tmp_path, capsys):
    path = tmp_path / "de.json"
    run(
        capsys,
        "compile", "--target", "ghz", "--jmax", "3",
        "--direction", "deevolution", "--out", str(path),
    )
    code, _, err = run(
        capsys, "sweep", "--schedule", str(path), "--target", "ghz", "--trials", "2"
    )
    assert code == 2
    assert "preparation" in err


def test_file_target_round_trip(tmp_path, capsys):
    target_file = tmp_path / "bell.json"
    a = 0.7071067811865476
    target_file.write_text(
        json.dumps(
            [
                {"n": [0, 0, 0], "re": a, "im": 0.0},
                {"n": [1, 1, 0], "re": 0.0, "im": a},
            ]
        )
    )
    sched = tmp_path / "s.json"
    code, out, _ = run(
        capsys,
        "compile", "--target", f"file:{target_file}", "--jmax", "3", "--out", str(sched),
    )
    assert code == 0
    assert "target: file:bell.json" in out
    code, _, _ = run(
        capsys, "verify", "--schedule", str(sched), "--target", f"file:{target_file}"
    )
    assert code == 0


def test_targets_lists_builtins(capsys):
    code, out, _ = run(capsys, "targets")
    assert code == 0
    for name in ("ghz", "corr", "diag", "file:<path>"):
        assert name in out


def test_sweep_rejects_negative_seed(ghz_schedule, tmp_path, capsys):
    code, _, err = run(
        capsys, "sweep", "--schedule", str(ghz_schedule), "--target", "ghz",
        "--trials", "2", "--seed", "-1", "--out", str(tmp_path / "s.csv"),
    )
    assert code == 2
    assert "seed" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("target", ["ghz", "corr"])
def test_compile_rejects_non_finite_alpha(target, alpha, tmp_path, capsys):
    code, _, err = run(
        capsys, "compile", "--target", target, "--jmax", "3", "--alpha", alpha,
        "--out", str(tmp_path / "s.json"),
    )
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--target", "nonesuch", "--jmax", "2", "--out", "x.json"],
        ["compile", "--target", "diag", "--jmax", "5", "--out", "x.json"],
        ["compile", "--target", "ghz", "--eps", "0.3,0.1", "--out", "x.json"],
        ["sweep", "--schedule", "missing.json", "--target", "ghz"],
        ["frobnicate"],
        [],
    ],
)
def test_error_paths_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    capsys.readouterr()
