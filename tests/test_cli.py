import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1", "2", "abc"])
def test_verify_rejects_bad_tolerance(tmp_path, tol, capsys):
    """A NaN tolerance used to pass a corr schedule checked against ghz."""
    path = tmp_path / "corr.json"
    assert run(capsys, "compile", "--target", "corr", "--jmax", "4", "--out", str(path))[0] == 0
    code, out, err = run(
        capsys, "verify", "--schedule", str(path), "--target", "ghz", "--tol", tol
    )
    assert code == 2
    assert "--tol" in err
    assert "status: ok" not in out


@pytest.mark.parametrize("tol", ["0", "0.5", "0.999"])
def test_verify_accepts_tolerance_in_range(ghz_schedule, tol, capsys):
    code, out, err = run(
        capsys, "verify", "--schedule", str(ghz_schedule), "--target", "ghz", "--tol", tol
    )
    assert err == "" and "fidelity:" in out
    if tol != "0":  # tol 0 demands a fidelity of exactly 1
        assert code == 0 and "status: ok" in out


def test_verify_rejects_note_outside_cutoff(ghz_schedule, capsys):
    doc = json.loads(ghz_schedule.read_text())
    doc["pulses"][0]["note"] = [50, 0, 0, "a"]
    ghz_schedule.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--schedule", str(ghz_schedule), "--target", "ghz")
    assert code == 2
    assert "pulses[0].note" in err and "status" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--target", "corr", "--alpha", "1000", "--jmax", "4"],
        ["--target", "ghz", "--alpha", "40"],
    ],
)
def test_compile_rejects_large_alpha_by_name(argv, tmp_path, capsys):
    out_path = tmp_path / "s.json"
    code, _, err = run(capsys, "compile", *argv, "--out", str(out_path))
    assert code == 2
    assert "alpha" in err and "nan" not in err and "Warning" not in err
    assert not out_path.exists()


def test_verify_rejects_note_on_uncoupled_level(tmp_path, capsys):
    """An H2 (a <-> b) pulse cannot have nulled a level-d component."""
    path = tmp_path / "ghz2.json"
    assert run(capsys, "compile", "--target", "ghz", "--jmax", "2", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    i = next(k for k, p in enumerate(doc["pulses"]) if p["channel"] == "H2")
    doc["pulses"][i]["note"] = [0, 0, 0, "d"]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--schedule", str(path), "--target", "ghz")
    assert code == 2
    assert f"pulses[{i}].note" in err and "status" not in out


@pytest.mark.parametrize(
    "argv, channel",
    [
        (["--eps", "0.6,0.1,0.2", "--jmax", "12"], "H5"),
        (["--eps", "1.3,0.1,0.2", "--jmax", "4"], "H5"),
        (["--eps-carrier", "1.4142", "--jmax", "4"], "H4"),
        (["--eps", "1e200,0.1,0.2", "--jmax", "3"], "H5"),  # eps_x**2 overflows
    ],
)
def test_compile_rejects_uncoupled_pair_by_name(argv, channel, tmp_path, capsys):
    """A Lamb-Dicke point past a Laguerre zero the program needs exits 2."""
    out_path = tmp_path / "s.json"
    code, _, err = run(capsys, "compile", "--target", "corr", *argv, "--out", str(out_path))
    assert code == 2
    assert err.startswith(f"error: channel {channel} has no coupled pair at occupation (")
    assert "LambDickeParams(" in err and "unexpected" not in err
    assert not out_path.exists()


def test_overflowing_lamb_dicke_point_replays_without_nan(ghz_schedule, tmp_path, capsys):
    """A schedule file at eps_x 1e200 loads; its exchange channels on x couple
    nothing there, so verify reports a finite fidelity and sweep finite rows."""
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


def test_jmax_over_the_cap_exits_2_by_name(tmp_path, capsys):
    out_path = tmp_path / "s.json"
    code, _, err = run(capsys, "compile", "--target", "corr", "--jmax", "41", "--out", str(out_path))
    assert code == 2
    assert "j_max 41" in err and "40" in err
    assert not out_path.exists()

    path = tmp_path / "ok.json"
    assert run(capsys, "compile", "--target", "ghz", "--jmax", "2", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["jmax"] = 41
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--schedule", str(path), "--target", "ghz")
    assert code == 2
    assert "jmax: j_max 41 exceeds the cap of 40" in err and "status" not in out


HUGE = 10**400  # a JSON integer past the float range


def edit_schedule(edit):
    def prepare(schedule, target):
        doc = json.loads(schedule.read_text())
        edit(doc)
        schedule.write_text(json.dumps(doc))

    return prepare


def write_target(data: bytes):
    return lambda schedule, target: target.write_bytes(data)


def not_utf8_schedule(schedule, target):
    schedule.write_bytes(b"\xff" + schedule.read_bytes())


def long_int_schedule(schedule, target):
    """A 5001-digit version number, past the digit limit of int()."""
    schedule.write_text(schedule.read_text().replace('"version": 1', '"version": 1' + "0" * 5000))


DEEP = b"[" * 100_000 + b"]" * 100_000  # nested past the JSON decoder's recursion limit


def untouched(schedule, target):
    pass


VERIFY = ["verify", "--schedule", "{schedule}", "--target", "ghz"]
COMPILE_FILE = ["compile", "--target", "file:{target}", "--jmax", "2", "--out", "{dir}/o.json"]
SWEEP = [
    "sweep", "--schedule", "{schedule}", "--target", "ghz", "--trials", "1", "--out", "{dir}/o.csv"
]


@pytest.mark.parametrize(
    "prepare, argv, named",
    [
        pytest.param(
            edit_schedule(lambda d: d["pulses"][1].update(x=HUGE)), VERIFY, "pulses[1].x", id="huge-x"
        ),
        pytest.param(
            edit_schedule(lambda d: d["pulses"][1].update(theta=-HUGE)),
            VERIFY, "pulses[1].theta", id="huge-theta",
        ),
        pytest.param(
            edit_schedule(lambda d: d["lamb_dicke"].update(ex=HUGE)), VERIFY, "lamb_dicke.ex", id="huge-ex"
        ),
        pytest.param(long_int_schedule, VERIFY, "{schedule}", id="int-past-digit-limit"),
        pytest.param(not_utf8_schedule, VERIFY, "{schedule}", id="schedule-not-utf8"),
        pytest.param(
            write_target(json.dumps([{"n": [0, 0, 0], "re": HUGE, "im": 0}]).encode()),
            COMPILE_FILE, "[0].re", id="huge-re",
        ),
        pytest.param(
            write_target(json.dumps([{"n": [0, 0, 0], "re": 1, "im": -HUGE}]).encode()),
            COMPILE_FILE, "[0].im", id="huge-im",
        ),
        pytest.param(
            write_target(b'[{"n": [0, 0, 0], "re": 1, "im": 0, "tag": "\xe9"}]'),
            COMPILE_FILE, "{target}", id="target-not-utf8",
        ),
        pytest.param(
            lambda schedule, target: schedule.write_bytes(DEEP), VERIFY, "{schedule}",
            id="verify-deep-nesting",
        ),
        pytest.param(
            lambda schedule, target: schedule.write_bytes(DEEP), SWEEP, "{schedule}",
            id="sweep-deep-nesting",
        ),
        pytest.param(write_target(DEEP), COMPILE_FILE, "{target}", id="compile-deep-nesting"),
        pytest.param(
            untouched, ["verify", "--schedule", "{dir}", "--target", "ghz"], "{dir}", id="schedule-is-dir"
        ),
        pytest.param(
            untouched, ["compile", "--target", "ghz", "--jmax", "2", "--out", "{dir}"], "{dir}",
            id="compile-out-is-dir",
        ),
        pytest.param(
            untouched,
            ["sweep", "--schedule", "{schedule}", "--target", "ghz", "--trials", "1", "--out", "{dir}"],
            "{dir}", id="sweep-out-is-dir",
        ),
    ],
)
def test_bad_input_exits_2_naming_it(prepare, argv, named, ghz_schedule, tmp_path, capsys):
    """Files and paths the loaders or writers cannot use exit 2 by name, not 1."""
    paths = {"schedule": ghz_schedule, "target": tmp_path / "target.json", "dir": tmp_path / "dir"}
    paths["dir"].mkdir()
    prepare(paths["schedule"], paths["target"])
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and named.format(**paths) in err
    assert "status" not in out


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


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=SCALARS | JSON_VALUES)
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
