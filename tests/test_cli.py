import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionsynth import cli, load_schedule
from ionsynth.cli import main

from conftest import OVERFLOWING_X


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


def test_grid_spec_admits_its_edges():
    """The count cap itself, and a grid whose last value is just finite."""
    assert cli._grid_spec("0:0.01:10000") == (0.0, 0.01, 10000)
    assert cli._grid_spec("1e308:0:10000") == (1e308, 0.0, 10000)
    assert cli._grid_spec("0:8e307:2") == (0.0, 8e307, 2)


def test_targets_lists_builtins(capsys):
    code, out, _ = run(capsys, "targets")
    assert code == 0
    assert out == (
        "ghz   even cat of three-mode coherent states (uses --alpha)\n"
        "corr  Poissonian superposition of |n,n,n> (uses --alpha)\n"
        "diag  equal superposition of |n,n,n> for n = 0..4 (needs --jmax >= 12)\n"
        "file:<path>  component list from a JSON file\n"
    )


@pytest.mark.parametrize("command", ["compile", "verify", "sweep"])
def test_usage_names_every_target(command, capsys):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    usage = " ".join(out.split("\n\n")[0].split())  # the usage lines, unwrapped
    assert " --target ghz|corr|diag|file:<path> " in usage


@pytest.mark.parametrize("tol", ["0", "0.5", "0.999"])
def test_verify_accepts_tolerance_in_range(ghz_schedule, tol, capsys):
    code, out, err = run(
        capsys, "verify", "--schedule", str(ghz_schedule), "--target", "ghz", "--tol", tol
    )
    assert err == "" and "fidelity:" in out
    if tol != "0":  # tol 0 demands a fidelity of exactly 1
        assert code == 0 and "status: ok" in out


def test_overflowing_lamb_dicke_point_replays_without_nan(ghz_schedule, tmp_path, capsys):
    """A schedule file at eps_x 1e200 loads; its exchange pairs on x have
    Omega 0 there, so verify reports a finite fidelity and sweep finite rows."""
    doc = json.loads(ghz_schedule.read_text())
    doc["lamb_dicke"]["ex"] = 1e200
    ghz_schedule.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--schedule", str(ghz_schedule), "--target", "ghz")
    assert code == 2 and err == ""
    assert "status: below tolerance" in out and "nan" not in out
    csv = tmp_path / "rows.csv"
    argv = ["--target", "ghz", "--trials", "2", "--delta-grid", "0:0.01:2", "--out", str(csv)]
    code, out, err = run(capsys, "sweep", "--schedule", str(ghz_schedule), *argv)
    assert code == 0 and err == ""
    assert "nan" not in csv.read_text() and "nan" not in out


def test_verify_replays_exactly_past_a_zero(ghz_schedule, capsys):
    """The ghz J_max 4 preparation with its header moved to eps_x 1.3, where
    x-exchange pairs have negative Omega: the fidelity of the exact dynamics
    (the one-component-at-a-time propagator agrees to 1e-12 in test_pulses)."""
    doc = json.loads(ghz_schedule.read_text())
    doc["lamb_dicke"]["ex"] = 1.3
    ghz_schedule.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--schedule", str(ghz_schedule), "--target", "ghz")
    assert code == 2 and err == ""
    assert "fidelity: 0.013605835747" in out.splitlines()


HUGE = 10**400  # a JSON integer past the float range


# Any JSON value: null, bools, ints (two of them past the float range), floats
# with NaN and the infinities (json writes them as NaN/Infinity, which it
# reads), short strings, and small nested lists and objects.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([HUGE, -HUGE])
    | st.floats()
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
# Target entries that get past the shape checks often enough to reach the later ones.
TARGET_ENTRIES = st.fixed_dictionaries(
    {
        "n": st.lists(st.integers(0, 1), min_size=3, max_size=3) | JSON_VALUES,
        "re": st.floats(-1, 1) | SCALARS,
        "im": st.floats(-1, 1) | SCALARS,
    },
    optional={"tag": JSON_VALUES},
)


def quiet_main(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def key_paths(node, path=()):
    """Every path of keys and list positions in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from key_paths(child, path + (key,))


@pytest.fixture(scope="module")
def ghz2(tmp_path_factory):
    """A compiled ghz J_max 2 schedule, as a path and as its parsed document."""
    path = tmp_path_factory.mktemp("ghz2") / "ghz.json"
    assert quiet_main("compile", "--target", "ghz", "--jmax", "2", "--out", str(path)) == 0
    return path, json.loads(path.read_text())


class Draws:
    """Stands in for ``st.data()`` in an ``@example``: gives the listed draws in turn."""

    def __init__(self, *draws):
        self.draws, self.count = draws, 0

    def draw(self, strategy):
        self.count += 1
        return self.draws[(self.count - 1) % len(self.draws)]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=SCALARS | JSON_VALUES)
@example(data=Draws(("pulses", 0, "x"), 17), value=OVERFLOWING_X)
def test_no_schedule_file_reaches_exit_1(ghz2, data, value):
    """A compiled schedule with any JSON value spliced in at any key path is
    either accepted or refused by name: verify and sweep return 0 or 2."""
    path, doc = ghz2
    # Paths are drawn with the pulse list cut to one entry, so that each
    # field is as likely as any other, and then aimed at a drawn pulse.
    where = data.draw(st.sampled_from(list(key_paths({**doc, "pulses": doc["pulses"][:1]}))))
    if where[:2] == ("pulses", 0):
        where = ("pulses", data.draw(st.integers(0, len(doc["pulses"]) - 1))) + where[2:]
    if where:
        doc = copy.deepcopy(doc)
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    else:
        doc = value
    edited = path.with_name("edited.json")
    edited.write_text(json.dumps(doc))
    assert quiet_main("verify", "--schedule", str(edited), "--target", "ghz") in (0, 2)
    csv = str(path.with_name("sweep.csv"))
    argv = ["--target", "ghz", "--trials", "1", "--delta-grid", "0:0.01:1", "--out", csv]
    assert quiet_main("sweep", "--schedule", str(edited), *argv) in (0, 2)


@settings(max_examples=100, deadline=None)
@given(doc=JSON_VALUES | st.lists(TARGET_ENTRIES | JSON_VALUES, max_size=4))
def test_no_target_file_reaches_exit_1(ghz2, doc):
    """compile --target file: returns 0 or 2 for any JSON target document."""
    target = ghz2[0].with_name("target.json")
    target.write_text(json.dumps(doc))
    argv = ["--target", f"file:{target}", "--jmax", "2", "--out", str(target.with_name("out.json"))]
    assert quiet_main("compile", *argv) in (0, 2)
