import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ionsynth import (
    CHANNELS,
    ChannelId,
    Component,
    Direction,
    DomainError,
    LambDickeParams,
    Level,
    NoiseModel,
    Occupation,
    Pulse,
    REPORT_HEADER,
    Schedule,
    ScheduleFormatError,
    TargetFormatError,
    Truncation,
    deevolve,
    index_of,
    load_schedule,
    load_target,
    random_target,
    save_report,
    save_schedule,
    sweep,
    target_corr,
    target_ghz,
)
from ionsynth import files
from ionsynth.cli import main
from ionsynth.files import _check_components, _components, _notes, _parse_note, _parse_notes


@pytest.fixture(scope="module")
def compiled():
    t = Truncation(2)
    target = random_target(t, np.random.default_rng(55)).state
    return target, deevolve(target, description="round-trip")


def test_schedule_round_trip(compiled, tmp_path):
    _, result = compiled
    for sched in (result.deevolution, result.preparation):
        path = tmp_path / "s.json"
        save_schedule(sched, path)
        assert load_schedule(path) == sched


def test_schedule_file_is_stable(compiled, tmp_path):
    """Saving, loading, and saving again reproduces the bytes exactly."""
    _, result = compiled
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_schedule(result.preparation, first)
    save_schedule(load_schedule(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_schedule_file_layout(compiled, tmp_path):
    _, result = compiled
    path = tmp_path / "s.json"
    save_schedule(result.preparation, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert doc["jmax"] == 2
    assert doc["direction"] == "preparation"
    assert doc["target"] == "round-trip"
    assert set(doc["lamb_dicke"]) == {"ex", "ey", "ez", "exc"}
    assert [p["i"] for p in doc["pulses"]] == list(range(len(result.preparation)))
    for p in doc["pulses"]:
        assert p["channel"][0] == "H"
        nx, ny, nz, level = p["note"]
        assert nx + ny + nz <= 2 and level in "abcd"
    assert path.read_bytes().endswith(b"}\n")
    assert b"\r" not in path.read_bytes()


def json_dump_schedule(schedule, path):
    """Reference writer: the whole document through json.dump(indent=2), as
    schedule files were written before the streamed writer."""

    def pulse_doc(i, pulse):
        note = None
        if pulse.note is not None:
            occ, level = pulse.note
            note = [occ.nx, occ.ny, occ.nz, level.label]
        return {"i": i, "channel": pulse.channel.name, "x": pulse.x,
                "theta": pulse.theta, "note": note}

    ld = schedule.lamb_dicke
    doc = {
        "version": 1,
        "lamb_dicke": {"ex": ld.eps_x, "ey": ld.eps_y, "ez": ld.eps_z, "exc": ld.eps_carrier},
        "jmax": schedule.truncation.j_max,
        "direction": schedule.direction.value,
        "target": schedule.target,
        "pulses": [pulse_doc(i, p) for i, p in enumerate(schedule.pulses)],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def assert_writer_bytes(schedule, tmp_path):
    streamed, reference = tmp_path / "streamed.json", tmp_path / "reference.json"
    save_schedule(schedule, streamed)
    json_dump_schedule(schedule, reference)
    assert streamed.read_bytes() == reference.read_bytes()
    assert load_schedule(streamed) == schedule


ODD_PULSES = (
    Pulse(ChannelId.H9, 0.0, math.pi, Component(Occupation(1, 0, 0), Level.A)),
    Pulse(ChannelId.H1, 5e-324, -1e-300),
    Pulse(ChannelId.H4, 1e16, 0.1 + 0.2, None),
    Pulse(ChannelId.H7, 123456.789, -3.0, Component(Occupation(0, 2, 0), Level.D)),
)


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize(
    "target",
    ["", 'quote " and backslash \\ here', "non-ASCII: \u03c8 \u00fc \U0001f680", "tab\tnl\n"],
    ids=["blank", "quote-backslash", "non-ascii", "control"],
)
@pytest.mark.parametrize(
    "ld", [LambDickeParams(), LambDickeParams(0, 0, 0, 0), LambDickeParams(0.45, 1, 0.25, 2)]
)
@pytest.mark.parametrize("pulses", [(), ODD_PULSES], ids=["empty", "odd"])
def test_streamed_writer_matches_json_dump(pulses, ld, target, direction, tmp_path):
    """Empty schedules, null notes, escaped and non-ASCII target strings,
    integer-valued Lamb-Dicke parameters and both directions."""
    assert_writer_bytes(Schedule(pulses, ld, Truncation(2), direction, target), tmp_path)


def test_streamed_writer_matches_json_dump_on_compiled_schedules(tmp_path):
    for target in (target_corr(1.0, Truncation(6)), target_ghz(0.8, Truncation(5))):
        result = deevolve(target.state, description=target.description)
        for schedule in (result.deevolution, result.preparation):
            assert_writer_bytes(schedule, tmp_path)


def test_streamed_writer_matches_json_dump_on_pruned_cli_schedule(tmp_path, capsys):
    path = tmp_path / "pruned.json"
    argv = ["compile", "--target", "corr", "--jmax", "5", "--prune-noops", "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    schedule = load_schedule(path)
    assert 0 < len(schedule) < deevolve(target_corr(1.0, Truncation(5)).state).pulse_count
    assert_writer_bytes(schedule, tmp_path)


def _write_doc(tmp_path, mutate):
    doc = {
        "version": 1,
        "lamb_dicke": {"ex": 0.3, "ey": 0.1, "ez": 0.2, "exc": 0.1},
        "jmax": 1,
        "direction": "preparation",
        "target": "",
        "pulses": [
            {"i": 0, "channel": "H2", "x": 0.5, "theta": 0.25, "note": [0, 0, 0, "b"]}
        ],
    }
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.pop("jmax"), "jmax: missing"),
        (lambda d: d.update(jmax=-1), "jmax"),
        (lambda d: d.update(direction="sideways"), "direction"),
        (lambda d: d["pulses"][0].update(channel="H10"), "unknown channel"),
        (lambda d: d["pulses"][0].update(i=3), "expected 0, got 3"),
        (lambda d: d["pulses"][0].update(x=-0.5), "pulses[0]"),
        (lambda d: d["pulses"][0].update(x="0.5"), "pulses[0].x"),
        (lambda d: d["pulses"][0].update(theta=float("inf")), "pulses[0].theta"),
        (lambda d: d["pulses"][0].update(note=[0, 0, 0]), "note"),
        (lambda d: d["pulses"][0].update(note=[0, 0, 0, "e"]), "note"),
        (lambda d: d["pulses"][0].update(note=[2, 0, 0, "a"]), "pulses[0].note: total occupation 2"),
        (lambda d: d.update(jmax=4) or d["pulses"][0].update(note=[50, 0, 0, "a"]),
         "pulses[0].note: total occupation 50 exceeds the cutoff 4"),
        (lambda d: d["lamb_dicke"].pop("exc"), "lamb_dicke.exc"),
    ],
)
def test_load_schedule_rejects(tmp_path, mutate, fragment):
    path = _write_doc(tmp_path, mutate)
    with pytest.raises(ScheduleFormatError, match=None) as err:
        load_schedule(path)
    assert fragment in str(err.value).replace("'", "")


def _write_three_pulse_doc(tmp_path, mutate):
    doc = {
        "version": 1,
        "lamb_dicke": {"ex": 0.3, "ey": 0.1, "ez": 0.2, "exc": 0.1},
        "jmax": 2,
        "direction": "preparation",
        "target": "",
        "pulses": [
            {"i": 0, "channel": "H2", "x": 0.5, "theta": 0.25, "note": [0, 0, 0, "b"]},
            {"i": 1, "channel": "H9", "x": 0.0, "theta": -1.5, "note": None},
            {"i": 2, "channel": "H1", "x": 1.5, "theta": 3.0, "note": [0, 1, 0, "a"]},
        ],
    }
    mutate(doc["pulses"][2])
    path = tmp_path / "bad3.json"
    path.write_text(json.dumps(doc))  # a NaN is written as the NaN literal
    return path


def test_three_pulse_document_loads(tmp_path):
    schedule = load_schedule(_write_three_pulse_doc(tmp_path, lambda p: None))
    assert [p.channel for p in schedule.pulses] == [ChannelId.H2, ChannelId.H9, ChannelId.H1]


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda p: p.update(x="1.5"), "pulses[2].x: unexpected type str"),
        (lambda p: p.update(x=-1.5), "pulses[2].x: pulse length must be finite and >= 0"),
        (lambda p: p.update(theta=float("nan")), "pulses[2].theta: pulse phase must be finite"),
        (lambda p: p.update(channel="H0"), "pulses[2].channel: unknown channel H0"),
        (lambda p: p.update(i=0), "pulses[2].i: expected 2, got 0"),
        (lambda p: p.pop("i"), "pulses[2].i: missing"),
        (lambda p: p.update(note=[2, 1, 0, "a"]), "pulses[2].note: total occupation 3 exceeds"),
        (lambda p: p.update(note=[0, 1, 0, "c"]), "pulses[2].note: level c is not coupled"),
    ],
    ids=["x-string", "x-negative", "theta-nan", "channel", "index", "index-missing",
         "note-cutoff", "note-level"],
)
def test_load_schedule_names_a_bad_entry_past_the_first(tmp_path, mutate, fragment):
    path = _write_three_pulse_doc(tmp_path, mutate)
    with pytest.raises(ScheduleFormatError) as err:
        load_schedule(path)
    assert fragment in str(err.value).replace("'", "")


def test_load_schedule_checks_note_levels_after_lengths_and_phases(tmp_path):
    """``Schedule.from_columns`` refuses a note on a level its channel does not
    couple, after it checks every pulse's length and phase, so a later pulse's
    bad length is named first.  The level is named by its lower-case label."""
    path = _write_three_pulse_doc(tmp_path, lambda p: p.update(x=-1.5))
    doc = json.loads(path.read_text())
    doc["pulses"][0]["note"] = [0, 0, 0, "D"]
    for x, message in (
        (-1.5, "pulses[2].x: pulse length must be finite and >= 0, got -1.5"),
        (1.5, "pulses[0].note: level d is not coupled by channel H2"),
    ):
        doc["pulses"][2]["x"] = x
        path.write_text(json.dumps(doc))
        with pytest.raises(ScheduleFormatError) as err:
            load_schedule(path)
        assert str(err.value) == message


def test_load_schedule_rejects_a_non_object_entry_past_the_first(tmp_path):
    path = _write_three_pulse_doc(tmp_path, lambda p: None)
    doc = json.loads(path.read_text())
    doc["pulses"][2] = [2, "H1", 1.5, 3.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ScheduleFormatError, match=r"pulses\[2\]: expected an object"):
        load_schedule(path)


def test_load_schedule_rejects_jmax_over_the_cap(tmp_path):
    path = _write_doc(tmp_path, lambda d: d.update(jmax=41))
    with pytest.raises(ScheduleFormatError) as err:
        load_schedule(path)
    assert str(err.value) == "jmax: j_max 41 exceeds the cap of 40"


def test_load_schedule_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    with pytest.raises(ScheduleFormatError, match="invalid JSON"):
        load_schedule(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ScheduleFormatError, match="expected an object"):
        load_schedule(path)


def test_report_csv_format(compiled, tmp_path):
    target, result = compiled
    report = sweep(
        target,
        result.preparation,
        [NoiseModel(0.0, 0.0), NoiseModel(0.02, 0.01)],
        n=5,
        seed=42,
    )
    path = tmp_path / "sweep.csv"
    save_report(report, path)

    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 3
    for line, row in zip(lines[1:], report.rows):
        cells = line.split(",")
        assert int(cells[2]) == 5
        # repr floats must round-trip to the exact computed values
        assert float(cells[3]) == row.fid_mean
        assert float(cells[6]) == row.efficiency_mean


def test_load_target_vacuum(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps([{"n": [0, 0, 0], "re": 1.0, "im": 0.0}]))
    target = load_target(path, Truncation(2))
    assert target.description == "file:t.json"
    assert target.truncated_mass == 0.0
    assert target.state.amplitude(Component(Occupation(0, 0, 0), Level.A)) == 1.0


def test_load_target_normalizes_rounding_slack(tmp_path):
    """Norms off by less than 1e-6 are corrected exactly, not left as-is."""
    a = math.sqrt(0.5) * (1 + 2e-7)
    path = tmp_path / "t.json"
    path.write_text(
        json.dumps(
            [
                {"n": [0, 0, 0], "re": a, "im": 0.0},
                {"n": [1, 0, 0], "re": 0.0, "im": a},
            ]
        )
    )
    target = load_target(path, Truncation(3))
    assert target.state.norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ([], "no components"),
        ([{"n": [0, 0, 0], "re": 0.5, "im": 0.0}], "norm"),
        (
            [
                {"n": [0, 0, 0], "re": 1.0, "im": 0.0},
                {"n": [0, 0, 0], "re": 0.0, "im": 0.0},
            ],
            "duplicate",
        ),
        ([{"n": [3, 0, 0], "re": 1.0, "im": 0.0}], "exceeds the cutoff"),
        ([{"n": [0, 0], "re": 1.0, "im": 0.0}], "expected [nx, ny, nz]"),
        ([{"n": [0, 0, -1], "re": 1.0, "im": 0.0}], "integers >= 0"),
        ([{"n": [0, 0, 0], "re": 1.0}], "im: missing"),
        ([{"n": [0, 0, 0], "re": float("nan"), "im": 0.0}], "finite"),
        ("nope", "expected an array"),
    ],
)
def test_load_target_rejects(tmp_path, doc, fragment):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else '"nope"')
    with pytest.raises(TargetFormatError) as err:
        load_target(path, Truncation(2))
    assert fragment in str(err.value)


def test_load_target_names_a_norm_past_the_float_range(tmp_path, capsys):
    """An amplitude whose square overflows gives an infinite norm, refused by
    name without a NumPy overflow warning; the CLI exits 2."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps([{"n": [0, 0, 0], "re": 0.0, "im": 1.3407807929942597e154}]))
    with pytest.raises(TargetFormatError, match="target norm inf differs from 1"):
        load_target(path, Truncation(2))
    argv = ["compile", "--target", f"file:{path}", "--jmax", "2", "--out", str(tmp_path / "s.json")]
    assert main(argv) == 2
    assert "norm inf" in capsys.readouterr().err


@pytest.mark.parametrize("cid", list(ChannelId))
def test_load_schedule_note_must_sit_on_a_coupled_level(tmp_path, cid):
    """A note names the component its pulse nulled, which lies on one of the
    two levels the pulse's channel couples."""
    spec = CHANNELS[cid]
    for level in Level:
        path = _write_doc(
            tmp_path,
            lambda d: d["pulses"][0].update(channel=cid.name, note=[1, 0, 0, level.label]),
        )
        if level in (spec.lower_level, spec.upper_level):
            note = load_schedule(path).pulses[0].note
            assert note == Component(Occupation(1, 0, 0), level)
        else:
            with pytest.raises(ScheduleFormatError, match=r"pulses\[0\]\.note: level"):
                load_schedule(path)


NOTE_NUMBERS = st.sampled_from([0, 1, 2, 3, 7, -1, True, False, 1.0, 2**64, -(2**70), "1", None])
NOTE_LABELS = st.sampled_from(["a", "b", "c", "d", "A", "B", "D", "e", "", "ab", 0, None, ["a"]])
ANY_NOTE = st.one_of(
    st.none(),
    st.tuples(NOTE_NUMBERS, NOTE_NUMBERS, NOTE_NUMBERS, NOTE_LABELS).map(list),
    st.lists(NOTE_NUMBERS, max_size=5),
    st.sampled_from([0, "a", {"nx": 0}, [[0, 0, 0, "a"]]]),
)
# A note with at most three quanta, on any level.
SMALL_NOTE = st.tuples(*[st.integers(0, 1)] * 3, st.sampled_from("abcd")).map(list)


@settings(max_examples=150, deadline=None)
@given(
    notes=st.lists(st.one_of(SMALL_NOTE, SMALL_NOTE, SMALL_NOTE, ANY_NOTE), max_size=6),
    j_max=st.integers(0, 3),
)
def test_note_column_matches_the_per_note_parser(notes, j_max):
    """The column check accepts exactly what ``_parse_note`` accepts, note by
    note, gives the basis index of its component (-1 for null), and raises the
    first failing note's error."""
    t = Truncation(j_max)
    try:
        want = [_parse_note(note, i, j_max) for i, note in enumerate(notes)]
    except ScheduleFormatError as exc:
        with pytest.raises(ScheduleFormatError) as info:
            _notes(notes, j_max)
        assert str(info.value) == str(exc)
    else:
        got = _notes(notes, j_max)
        assert got.tolist() == [-1 if c is None else index_of(c, t) for c in want]


def occupations_up_to(j_max):
    return [list(occ) for occ in np.ndindex(j_max + 1, j_max + 1, j_max + 1) if sum(occ) <= j_max]


@st.composite
def clean_notes(draw):
    """Null notes and notes inside a small cutoff, labels in either case."""
    j_max = draw(st.integers(0, 4))
    note = st.tuples(st.sampled_from(occupations_up_to(j_max)), st.sampled_from("abcdABCD"))
    notes = draw(st.lists(st.none() | note.map(lambda drawn: [*drawn[0], drawn[1]]), max_size=8))
    return notes, j_max


@settings(max_examples=150, deadline=None)
@given(drawn=clean_notes())
def test_clean_notes_stay_on_the_column_path_and_both_paths_agree(drawn):
    """Clean notes, nulls among them, never reach the per-note path, and that
    path, called directly, gives the same index bytes."""
    notes, j_max = drawn
    with mock.patch.object(files, "_parse_notes", side_effect=AssertionError("per-note path")):
        got = _notes(notes, j_max)
    want = _parse_notes(notes, j_max)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """One directory for the hypothesis tests below, which rewrite their files."""
    return tmp_path_factory.mktemp("files")


LENGTHS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e300]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
PHASES = st.floats(allow_nan=False, allow_infinity=False)
ANY_COMPONENT = st.builds(
    Component,
    st.builds(Occupation, *[st.one_of(st.integers(0, 3), st.integers(0, 999))] * 3),
    st.sampled_from(list(Level)),
)


@st.composite
def valid_note(draw, cid, j_max):
    """A component inside the cutoff, on a level that channel ``cid`` couples."""
    nx = draw(st.integers(0, j_max))
    ny = draw(st.integers(0, j_max - nx))
    nz = draw(st.integers(0, j_max - nx - ny))
    level = draw(st.sampled_from([CHANNELS[cid].lower_level, CHANNELS[cid].upper_level]))
    return Component(Occupation(nx, ny, nz), level)


@st.composite
def written_schedules(draw):
    """A schedule from random columns, through either constructor.  Its notes
    are null or valid (inside the cutoff, on a coupled level) but for at most
    one arbitrary note: a component with up to three-digit occupations, or the
    basis index -2, dim or one inside the range.  Columns the constructor
    refuses are drawn again."""
    t = Truncation(draw(st.integers(0, 40)))
    channels = draw(st.lists(st.sampled_from(list(ChannelId)), max_size=30))
    columns = (
        channels,
        draw(st.lists(LENGTHS, min_size=len(channels), max_size=len(channels))),
        draw(st.lists(PHASES, min_size=len(channels), max_size=len(channels))),
    )
    meta = (
        draw(st.sampled_from([LambDickeParams(), LambDickeParams(0.45, 1, 0.25, 2)])),
        t,
        draw(st.sampled_from(list(Direction))),
        draw(st.text(max_size=5)),
    )
    notes = [draw(st.none() | valid_note(cid, t.j_max)) for cid in channels]
    odd = draw(st.integers(0, len(channels) - 1)) if channels and draw(st.booleans()) else None
    try:
        if draw(st.booleans()):
            if odd is not None:
                notes[odd] = draw(ANY_COMPONENT)
            return Schedule(map(Pulse, *columns, notes), *meta)
        index = [-1 if note is None else index_of(note, t) for note in notes]
        if odd is not None:
            index[odd] = draw(st.sampled_from([-2, t.dim]) | st.integers(0, t.dim - 1))
        return Schedule.from_columns(*columns, index, *meta)
    except DomainError:
        reject()


@settings(max_examples=150, deadline=None)
@given(schedule=written_schedules())
def test_writer_matches_json_dump_on_random_columns(schedule, scratch_dir):
    """Any lengths and phases, all nine channels, null notes and notes on every
    level up to the cutoff: the bytes are json.dump's, and every schedule that
    constructs loads back equal."""
    streamed, reference = scratch_dir / "streamed.json", scratch_dir / "reference.json"
    save_schedule(schedule, streamed)
    json_dump_schedule(schedule, reference)
    assert streamed.read_bytes() == reference.read_bytes()
    assert load_schedule(streamed) == schedule


def test_writer_streams_a_file_larger_than_its_peak_memory(tmp_path):
    """The J_max 16 corr preparation (6697 pulses, 1.23 MB) is written without
    holding the document: the traced allocation peak stays below 1 MiB."""
    schedule = deevolve(target_corr(1.0, Truncation(16)).state).preparation
    path = tmp_path / "corr16.json"
    save_schedule(schedule, path)
    tracemalloc.start()
    try:
        save_schedule(schedule, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1 << 20
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [[2**63 - 1, 1, 0], [2**62, 2**62, 0], [0, 2**63 - 1, 2**63 - 1]])
def test_occupations_whose_sum_wraps_intp_are_named(tmp_path, n):
    """Each occupation fits intp but their sum does not: still refused by name."""
    total = sum(n)
    path = _write_doc(tmp_path, lambda d: d["pulses"][0].update(note=[*n, "b"]))
    with pytest.raises(ScheduleFormatError) as err:
        load_schedule(path)
    assert str(err.value) == f"pulses[0].note: total occupation {total} exceeds the cutoff 1"
    path = tmp_path / "t.json"
    path.write_text(json.dumps([{"n": n, "re": 1.0, "im": 0.0}]))
    with pytest.raises(TargetFormatError) as err:
        load_target(path, Truncation(1))
    assert str(err.value) == f"[0].n: total occupation {total} exceeds the cutoff 1"


def per_entry_load_target(doc, truncation):
    """load_target's checks as the entry-by-entry loop they were first written
    as, on a decoded document; returns the normalized amplitudes."""
    if not isinstance(doc, list):
        raise TargetFormatError("top level: expected an array of components")
    entries = {}
    for i, item in enumerate(doc):
        where = f"[{i}]"
        if not isinstance(item, dict):
            raise TargetFormatError(f"{where}: expected an object")
        raw_n = item.get("n")
        if not (isinstance(raw_n, list) and len(raw_n) == 3):
            raise TargetFormatError(f"{where}.n: expected [nx, ny, nz]")
        for value in raw_n:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise TargetFormatError(f"{where}.n: occupation numbers must be integers >= 0")
        occ = Occupation(*raw_n)
        if occ.total > truncation.j_max:
            raise TargetFormatError(
                f"{where}.n: total occupation {occ.total} exceeds the cutoff {truncation.j_max}"
            )
        if occ in entries:
            raise TargetFormatError(f"{where}.n: duplicate component {tuple(occ)}")
        for key in ("re", "im"):
            if key not in item:
                raise TargetFormatError(f"{where}.{key}: missing")
            if not isinstance(item[key], (int, float)) or isinstance(item[key], bool):
                raise TargetFormatError(f"{where}.{key}: expected a number")
            if not abs(item[key]) < 2**1024 - 2**970:
                raise TargetFormatError(f"{where}.{key}: must be finite and within the float range")
        entries[occ] = complex(item["re"], item["im"])
    if not entries:
        raise TargetFormatError("target file holds no components")
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    for occ, value in entries.items():
        amps[index_of(Component(occ, Level.A), truncation)] = value
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise TargetFormatError(f"target norm {norm:.9f} differs from 1 by more than 1e-6")
    return amps / norm


def _edit_n(edit):
    """A mutation that edits an entry's n while it is still three items long."""
    def mutate(item, doc):
        if type(item.get("n")) is list and len(item["n"]) == 3:
            item["n"] = edit(item["n"])
    return mutate


def _set(key, value):
    def mutate(item, doc):
        item[key] = value
    return mutate


def _pop(key):
    def mutate(item, doc):
        item.pop(key, None)
    return mutate


def _at(k, value):
    def mutate(n):
        n = list(n)
        n[k] = value
        return n
    return mutate


TARGET_MUTATIONS = st.sampled_from([
    *[_edit_n(_at(k, v)) for k in range(3)
      for v in (True, False, 1.0, 2**1024, 2**64, 2**63 - 1, 2**62, -(2**70), -1)],
    _edit_n(lambda n: n[:2]),
    _edit_n(lambda n: [*n, 0]),
    _edit_n(lambda n: [n[0] + 4, n[1], n[2]]),
    _edit_n(lambda n: [n[0] + 1, n[1], n[2]]),
    _set("n", None),
    _set("n", "000"),
    _pop("n"),
    lambda item, doc: item.update(n=json.loads(json.dumps(doc[0].get("n")))
                                  if isinstance(doc[0], dict) else [0, 0, 0]),
    lambda item, doc: doc.append(json.loads(json.dumps(item))),
    *[_pop(key) for key in ("re", "im")],
    *[_set(key, v) for key in ("re", "im")
      for v in (True, "1", None, 2**1024, 2**1023, float("inf"), float("nan"), 1e200)],
    lambda item, doc: doc.__setitem__(doc.index(item), [0, 0, 0]),
    lambda item, doc: doc.__setitem__(doc.index(item), None),
])


@st.composite
def target_docs(draw):
    """A valid level-a target document at a small cutoff, then up to three
    mutations on random entries."""
    j_max = draw(st.integers(0, 3))
    occs = [list(occ) for occ in np.ndindex(j_max + 1, j_max + 1, j_max + 1) if sum(occ) <= j_max]
    chosen = draw(st.lists(st.sampled_from(occs), min_size=1, max_size=6, unique_by=tuple))
    a = 1.0 / math.sqrt(len(chosen))
    doc = [
        {"n": n, "re": a, "im": 0.0} if draw(st.booleans()) else {"n": n, "re": -0.0, "im": -a}
        for n in chosen
    ]
    for _ in range(draw(st.integers(0, 3))):
        mutate = draw(TARGET_MUTATIONS)
        item = doc[draw(st.integers(0, len(doc) - 1))]
        if isinstance(item, dict):
            mutate(item, doc)
    return doc, j_max


@settings(max_examples=300, deadline=None)
@given(drawn=target_docs())
def test_target_columns_match_the_per_entry_loop(drawn, scratch_dir):
    """load_target's column checks accept exactly the documents the per-entry
    loop accepts, with equal amplitude bits, and otherwise raise its error."""
    doc, j_max = drawn
    path = scratch_dir / "target.json"
    path.write_text(json.dumps(doc))
    truncation = Truncation(j_max)
    try:
        want = per_entry_load_target(json.loads(path.read_text()), truncation)
    except TargetFormatError as exc:
        with pytest.raises(TargetFormatError) as info:
            load_target(path, truncation)
        assert str(info.value) == str(exc)
    else:
        assert load_target(path, truncation).state.amplitudes.tobytes() == want.tobytes()


# Finite JSON numbers, among them ints that only just round to the largest float.
AMPLITUDE_PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**80), 2**80),
    st.sampled_from([0, -0.0, 2**1023, -(2**1024 - 2**971), 2**1024 - 2**970 - 1]),
)


@st.composite
def clean_targets(draw):
    """A target document of clean components at a small cutoff; any finite
    amplitudes, so not normalized."""
    j_max = draw(st.integers(0, 3))
    chosen = draw(st.lists(st.sampled_from(occupations_up_to(j_max)), min_size=1, max_size=6,
                           unique_by=tuple))
    doc = [{"n": n, "re": draw(AMPLITUDE_PARTS), "im": draw(AMPLITUDE_PARTS)} for n in chosen]
    return doc, Truncation(j_max)


@settings(max_examples=150, deadline=None)
@given(drawn=clean_targets())
def test_clean_targets_stay_on_the_column_path_and_both_paths_agree(drawn):
    """A clean document never reaches the per-entry checker, and that checker,
    called directly, gives the same index and amplitude bytes."""
    doc, truncation = drawn
    with mock.patch.object(files, "_check_components", side_effect=AssertionError("per entry")):
        got = _components(doc, truncation)
    want = _check_components(doc, truncation)
    assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want]
