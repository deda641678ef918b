import copy
import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
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
from ionsynth.files import _notes, _parse_note, _parse_notes
from ionsynth.fock import _integer, _real

from conftest import ONE_PULSE_DOC, THREE_PULSE_DOC


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
    doc = copy.deepcopy(ONE_PULSE_DOC)
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_three_pulse_document_loads(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE_PULSE_DOC))
    schedule = load_schedule(path)
    assert [p.channel for p in schedule.pulses] == [ChannelId.H2, ChannelId.H9, ChannelId.H1]


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
    assert lines[0] == REPORT_HEADER == (
        "delta,delta_theta,trials,fid_mean,fid_std,fid_post_mean,efficiency_mean"
    )
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
# Entries that NumPy would cast to a 2-D column, or a ragged one.
@example(notes=[[[1], [0], [0], "a"], [[0], [1], [0], "b"]], j_max=1)
@example(notes=[[0, 0, 0, "a"], [[1], 0, 0, "b"]], j_max=1)
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
    constructs loads back equal, streamed."""
    streamed, reference = scratch_dir / "streamed.json", scratch_dir / "reference.json"
    save_schedule(schedule, streamed)
    json_dump_schedule(schedule, reference)
    assert streamed.read_bytes() == reference.read_bytes()
    assert load_schedule(streamed) == schedule
    with mock.patch.object(files, "_load_whole", side_effect=AssertionError("read whole")):
        assert files._stream_schedule(streamed) == schedule


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
                raise TargetFormatError(f"{where}.n must be an integer >= 0, got {value!r}")
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
                raise TargetFormatError(f"{where}.{key} must be a finite real, got {item[key]!r}")
            if not abs(item[key]) < 2**1024 - 2**970:
                raise TargetFormatError(f"{where}.{key} must be a finite real, got {item[key]!r}")
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
    """On mutated documents, load_target, which checks entry by entry, accepts
    exactly what the reference loop ``per_entry_load_target`` accepts, with
    equal amplitude bits, and otherwise raises its error."""
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


def entry_by_entry(doc, truncation):
    """The amplitudes of a clean target document, set one entry at a time at
    index_of as complex(re, im), and their norm."""
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    for item in doc:
        index = index_of(Component(Occupation(*item["n"]), Level.A), truncation)
        amps[index] = complex(item["re"], item["im"])
    with np.errstate(over="ignore"):
        return amps, float(np.linalg.norm(amps))


@settings(max_examples=150, deadline=None)
@given(drawn=clean_targets())
def test_clean_targets_load_as_the_entry_by_entry_reference(drawn, scratch_dir):
    """load_target's state bytes are the entry-by-entry amplitudes over their
    norm, or it refuses a norm off 1 by more than 1e-6; the drawn document
    is loaded as drawn and scaled by its norm, which mostly brings it to 1."""
    doc, truncation = drawn
    _, norm = entry_by_entry(doc, truncation)
    docs = [doc]
    if 0.0 < norm < math.inf:
        docs.append([{**item, "re": item["re"] / norm, "im": item["im"] / norm} for item in doc])
    path = scratch_dir / "target.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        want, norm = entry_by_entry(doc, truncation)
        if abs(norm - 1.0) > 1e-6:
            with pytest.raises(TargetFormatError, match="^target norm"):
                load_target(path, truncation)
        else:
            assert load_target(path, truncation).state.amplitudes.tobytes() == (want / norm).tobytes()


# Any JSON scalar: ints past the float range, floats with NaN, the
# infinities and -0.0, bools, short strings and null.
JSON_SCALARS = st.one_of(
    st.integers(),
    st.sampled_from([2**1100, -(2**1100), 0, 1, 2, -1]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1.0, -1.0]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)

# Each numeric field of a schedule or target file: the name an error gives it,
# and fock's rule for it.
NUMBER_FIELDS = {
    "x": ("pulses[0].x", lambda name, v: _real(name, v, non_negative=True)),
    "theta": ("pulses[0].theta", _real),
    "ex": ("lamb_dicke: eps_x", lambda name, v: _real(name, v, non_negative=True)),
    "note": ("pulses[0].note", lambda name, v: _integer(name, v, 0)),
    "re": ("[0].re", _real),
    "im": ("[0].im", _real),
    "n": ("[0].n", lambda name, v: _integer(name, v, 0)),
}
# The JSON-type check that comes first for a length, phase or Lamb-Dicke value.
JSON_NUMBER_FIELDS = {"x": "pulses[0].x", "theta": "pulses[0].theta", "ex": "lamb_dicke.ex"}
NORM = "target norm "


def load_holding(value, field, directory):
    """Load a file holding ``value`` in ``field``: _write_doc's one-pulse
    schedule or a one-entry target, both at cutoff 1."""
    if field in ("re", "im", "n"):
        item = {"n": [0, 0, 0], "re": 1.0, "im": 0.0}
        if field == "n":
            item["n"] = [value, 0, 0]
        else:
            item.update({"re": 0.0, field: value})
        path = directory / "target.json"
        path.write_text(json.dumps([item]))
        return load_target(path, Truncation(1))

    def edit(doc):
        if field == "ex":
            doc["lamb_dicke"]["ex"] = value
        else:
            doc["pulses"][0][field] = [value, 0, 0, "b"] if field == "note" else value

    return load_schedule(_write_doc(directory, edit))


def expected_refusal(value, field):
    """None for a value the file takes, else the error: the JSON-type check's,
    fock's rule's under the field's name, the cutoff's, or the norm's (NORM)."""
    if field in JSON_NUMBER_FIELDS and type(value) not in (int, float):
        return f"{JSON_NUMBER_FIELDS[field]}: unexpected type {type(value).__name__}"
    name, rule = NUMBER_FIELDS[field]
    try:
        number = rule(name, value)
    except DomainError as exc:
        return str(exc)
    if field in ("note", "n") and number > 1:
        return f"{name}: total occupation {number} exceeds the cutoff 1"
    if field in ("re", "im") and abs(abs(number) - 1.0) > 1e-6:
        return NORM  # a one-entry target's norm is its amplitude's modulus
    return None


@settings(max_examples=400, deadline=None)
@given(value=JSON_SCALARS, field=st.sampled_from(sorted(NUMBER_FIELDS)))
def test_a_file_number_is_taken_exactly_when_focks_rule_takes_it(value, field, scratch_dir):
    """A number in a schedule or target file loads exactly when fock's rule
    for its field takes it, and a refusal is the rule's message under the
    field's name; a length, phase or Lamb-Dicke value that is not a JSON
    number is refused by its type first."""
    want = expected_refusal(value, field)
    try:
        load_holding(value, field, scratch_dir)
    except (ScheduleFormatError, TargetFormatError) as exc:
        got = str(exc)
        assert got.startswith(NORM) if want == NORM else got == want
    else:
        assert want is None


# The streaming reader against the whole-document one it falls back to.

LAYOUTS = {
    "indent-none": {"indent": None},
    "indent-4": {"indent": 4},
    "sort-keys": {"indent": 2, "sort_keys": True},  # "pulses" before "target" and "version"
    "compact": {"separators": (",", ":")},
}


def _outcome(load, path):
    """What ``load`` makes of ``path``: the schedule, or the error's type and text."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def saved_schedules(tmp_path_factory):
    """Both schedules of corr(1) and ghz(1) at J_max 0-12, as save_schedule writes them."""
    root = tmp_path_factory.mktemp("saved")
    saved = []
    for j_max in range(13):
        for make in (target_corr, target_ghz):
            result = deevolve(make(1, Truncation(j_max)).state)
            for schedule in (result.deevolution, result.preparation):
                path = root / f"{make.__name__}-{j_max}-{schedule.direction.value}.json"
                save_schedule(schedule, path)
                saved.append((path, schedule))
    return saved


def assert_read_whole(path, schedule, where=None):
    """``path`` is not in the writer's layout: the stream refuses it as
    unclean, and ``load_schedule`` reads it whole, to ``schedule``."""
    with pytest.raises(files._Unclean):
        files._stream_schedule(path)
    assert load_schedule(path) == files._load_whole(path) == schedule, where


def test_streamed_and_whole_reads_agree_on_every_layout(saved_schedules, tmp_path):
    """The writer's layout streams, and so does a copy with CRLF line ends;
    every other layout, a copy without its final newline among them, is read
    whole, to the same schedule."""
    relaid = tmp_path / "relaid.json"
    for path, schedule in saved_schedules:
        doc = json.loads(path.read_text())
        assert files._stream_schedule(path) == files._load_whole(path) == schedule, path.name
        for name, layout in LAYOUTS.items():
            relaid.write_text(json.dumps(doc, **layout))
            assert_read_whole(relaid, schedule, (path.name, name))
        relaid.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert files._stream_schedule(relaid) == files._load_whole(relaid) == schedule, path.name
        relaid.write_bytes(path.read_bytes()[:-1])
        assert_read_whole(relaid, schedule, (path.name, "no final newline"))


def test_streamed_and_whole_reads_agree_on_an_empty_program(tmp_path):
    schedule = Schedule((), LambDickeParams(0.3, 0.1, 0.2, 0.1), Truncation(2),
                        Direction.PREPARATION, "")
    path = tmp_path / "empty.json"
    save_schedule(schedule, path)
    doc = json.loads(path.read_text())
    assert files._stream_schedule(path) == files._load_whole(path) == schedule
    for name, layout in LAYOUTS.items():
        path.write_text(json.dumps(doc, **layout))
        assert_read_whole(path, schedule, name)


def test_canonical_files_load_without_the_whole_document_reader(saved_schedules):
    with mock.patch.object(files, "_load_whole", side_effect=AssertionError("fell back")):
        for path, schedule in saved_schedules:
            assert load_schedule(path) == schedule, path.name


@pytest.mark.parametrize("chars", [1, 2, 7, 64, 185, 186, 4096])
def test_streamed_reads_agree_at_any_read_size(tmp_path, chars):
    """Read sizes below one entry (about 185 characters here) and around it
    cut entries, keys and the array's opening across reads; at each, a
    sorted-keys copy is read whole."""
    schedule = deevolve(target_ghz(1, Truncation(5)).state).preparation
    path = tmp_path / "ghz5.json"
    save_schedule(schedule, path)
    doc = json.loads(path.read_text())
    with mock.patch.object(files, "_CHARS_PER_READ", chars):
        assert files._stream_schedule(path) == schedule
        path.write_text(json.dumps(doc, **LAYOUTS["sort-keys"]))
        assert_read_whole(path, schedule)


def _small_doc_text(**layout):
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
    return json.dumps(doc, **layout)


PULSES_TEXT = json.dumps(json.loads(_small_doc_text())["pulses"])
# The same document in the writer's layout, which streams.
SAVED_TEXT = _small_doc_text(indent=2) + "\n"
LONG_TARGET = '"target": "' + "t" * 200_000 + '"'

# Documents the streaming pass must not take as clean: the whole-document
# reader decides them, loading some and refusing others.  The stream never
# finds the array's opening in the compact ones; those in the writer's layout
# reach its head parse, its cuts and its check of the document's end.
UNCLEAN_TEXTS = {
    "jmax-after-the-array": _small_doc_text().replace('"jmax": 2, ', "")[:-1] + ', "jmax": 2}',
    "jmax-twice": _small_doc_text()[:-1] + ', "jmax": 1}',
    "pulses-twice": _small_doc_text()[:-1] + ', "pulses": []}',
    "pulses-twice-first-not-an-array": '{"pulses": 0, ' + _small_doc_text()[1:],
    "pulses-nested-first": _small_doc_text().replace(
        '"lamb_dicke": {', '"lamb_dicke": {"pulses": ' + PULSES_TEXT + ", "),
    "pulses-nested-only": _small_doc_text().replace(
        '"lamb_dicke": {', '"lamb_dicke": {"pulses": ' + PULSES_TEXT + ", ").replace(
        ', "pulses": [{"i": 0', ', "other": [{"i": 0'),
    "key-ending-in-an-escaped-quote": _small_doc_text().replace(
        ', "pulses": [', ', "t \\"pulses": ['),
    "pulses-inside-a-string": _small_doc_text().replace(
        '"target": ""', '"target": "\\", \\"pulses\\": []"').replace('"pulses": [', '"other": ['),
    "no-comma-before-the-array": _small_doc_text().replace(', "pulses": [', ' "pulses": ['),
    "two-commas-before-the-array": _small_doc_text().replace(', "pulses": [', ',, "pulses": ['),
    "trailing-comma-in-the-array": _small_doc_text().replace("]}]", "]}, ]"),
    "trailing-comma-after-the-array": _small_doc_text()[:-1] + ", }",
    "no-comma-after-the-array": _small_doc_text(sort_keys=True).replace('}], "ta', '}] "ta'),
    "form-feed-before-the-colon": _small_doc_text().replace('"pulses": [', '"pulses"\f: ['),
    "garbage-after-the-object": _small_doc_text() + "x",
    "bad-utf8": _small_doc_text().replace('"target": ""', '"target": "\udcff"'),
    "deep-nesting": _small_doc_text().replace('"note": null', '"note": ' + "[" * 5000 + "]" * 5000),
    "leading-bom": "﻿" + _small_doc_text(),
    "saved-keys-after-the-array": SAVED_TEXT[:-3] + ',\n  "pulses": [],\n  "jmax": 1\n}\n',
    "saved-comma-before-the-bracket": SAVED_TEXT.replace("\n    }\n  ]", "\n    },\n  ]"),
    # Closed by a dummy key, the head would parse: {..., "t \"": 0}.
    "saved-backslash-before-the-key": SAVED_TEXT.replace('"target": "",', '"target": "",\n  "t \\'),
}


@pytest.mark.parametrize("chars", [1, 5, 64, 1 << 16])
@pytest.mark.parametrize("name", list(UNCLEAN_TEXTS))
def test_unclean_documents_go_to_the_whole_document_reader(tmp_path, name, chars):
    path = tmp_path / "unclean.json"
    path.write_bytes(UNCLEAN_TEXTS[name].encode("utf-8", "surrogateescape"))
    with mock.patch.object(files, "_CHARS_PER_READ", chars):
        with pytest.raises((files._Unclean, ValueError, RecursionError)):
            files._stream_schedule(path)
        assert _outcome(load_schedule, path) == _outcome(files._load_whole, path)


@pytest.mark.parametrize("chars", [1, 5, 64, 1 << 16])
def test_documents_that_only_look_unclean_load_the_same_from_both_readers(tmp_path, chars):
    """A top-level key "", keys that merely contain "pulses", and an entry
    with an object in it are valid.  In the writer's layout they stream; in a
    compact one they are read whole, to the same schedule."""
    path = tmp_path / "odd.json"
    path.write_text(_small_doc_text())
    want = files._load_whole(path)
    save_schedule(want, path)
    assert path.read_text() == SAVED_TEXT
    small = json.loads(SAVED_TEXT)
    extra = [{**entry, "extra": {"a": 1}} for entry in small["pulses"]]
    with mock.patch.object(files, "_CHARS_PER_READ", chars):
        for doc in ({"": 1, **small}, {"xpulses": [], "meta": {"pulses": 1}, **small},
                    {**small, "pulses": extra}):
            path.write_text(json.dumps(doc))
            assert_read_whole(path, want)
            path.write_text(json.dumps(doc, indent=2) + "\n")
            assert files._stream_schedule(path) == files._load_whole(path) == want


def _timed_outcomes(path, chars, load=load_schedule):
    """``load``'s outcome and its time at read size ``chars``, then
    ``_load_whole``'s outcome."""
    with mock.patch.object(files, "_CHARS_PER_READ", chars):
        start = time.perf_counter()
        streamed = _outcome(load, path)
        elapsed = time.perf_counter() - start
    return streamed, elapsed, _outcome(files._load_whole, path)


def test_an_entry_longer_than_many_reads_is_scanned_in_linear_time(tmp_path):
    """Each read searches only the characters it added, and those before it
    that a match can span, for the end of an entry: a note nested 100,000 deep
    (200,000 characters) at one character per read took 10-21 s when every
    read searched the whole entry again.  In the writer's layout, an entry with
    a 200,000-character field streams at one character per read."""
    path = tmp_path / "nested.json"
    nested = "[" * 10**5 + "]" * 10**5
    path.write_text(_small_doc_text().replace('"note": null', '"note": ' + nested))
    streamed, elapsed, whole = _timed_outcomes(path, 1)
    assert streamed == whole
    assert whole[0] is ScheduleFormatError and "invalid JSON" in whole[1]
    assert elapsed < 1.0
    path.write_text(SAVED_TEXT.replace('"i": 1,', '"i": 1,\n      "extra": "' + "e" * 200_000 + '",'))
    streamed, elapsed, whole = _timed_outcomes(path, 1, files._stream_schedule)
    assert streamed == whole
    assert isinstance(whole, Schedule) and len(whole) == 3
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "text, chars, load",
    [
        (_small_doc_text().replace('"target": ""', LONG_TARGET), 64, load_schedule),
        (_small_doc_text().replace('"pulses": [', '"pulses"' + " " * 200_000 + ": ["), 64,
         load_schedule),
        (SAVED_TEXT.replace('"target": ""', LONG_TARGET), 1, files._stream_schedule),
    ],
    ids=["long-target", "long-space-after-the-key", "saved-long-target"],
)
def test_a_header_longer_than_many_reads_is_scanned_in_linear_time(tmp_path, text, chars, load):
    """Each read searches for the array's opening only from where a match
    that ends in it can start: a 200,000-character target at 64 characters
    per read took 5-6 s, and 200,000 spaces after the key 10 s, when every
    read searched the whole header again.  In the writer's layout, a
    200,000-character target streams at one character per read."""
    path = tmp_path / "long-header.json"
    path.write_text(text)
    streamed, elapsed, whole = _timed_outcomes(path, chars, load)
    assert streamed == whole
    assert isinstance(whole, Schedule) and len(whole) == 3
    assert elapsed < 1.0


@pytest.mark.parametrize("chars", [1, 2])
def test_an_entry_end_split_across_reads_still_cuts_a_batch(tmp_path, chars):
    """A "}," whose two characters arrive in two reads still ends a batch, so
    at one or two characters per read each entry is a batch of its own."""
    schedule = deevolve(target_ghz(1, Truncation(2)).state).preparation
    path = tmp_path / "ghz2.json"
    save_schedule(schedule, path)
    with mock.patch.object(files, "_pulse_columns", wraps=files._pulse_columns) as spy:
        with mock.patch.object(files, "_CHARS_PER_READ", chars):
            assert files._stream_schedule(path) == schedule
    assert [len(call.args[0]) for call in spy.call_args_list] == [1] * len(schedule)


@pytest.mark.parametrize("chars", [1, 2, 3, 7, 8, 9, 31])
def test_a_key_split_by_long_whitespace_is_found_at_any_read_size(tmp_path, chars):
    """The "pulses" key with runs of whitespace longer than a read around its
    colon is not the writer's layout: at any read size the stream refuses it,
    and the whole-document reader finds the key."""
    path = tmp_path / "spaced.json"
    path.write_text(_small_doc_text())
    want = files._load_whole(path)
    key = '"pulses"' + " \n\t\r" * 9 + ":" + " " * 40 + "["
    path.write_text(_small_doc_text().replace('"pulses": [', key))
    with mock.patch.object(files, "_CHARS_PER_READ", chars):
        assert_read_whole(path, want)


@st.composite
def mutated_documents(draw, text):
    kind = draw(st.sampled_from(["truncate", "flip", "nested", "twice", "retype"]))
    data = text.encode()
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        k = draw(st.integers(0, len(data) - 1))
        return data[:k] + bytes([data[k] ^ draw(st.integers(1, 255))]) + data[k + 1 :]
    doc = json.loads(text)
    value = draw(st.sampled_from([[], 0, None, "x", doc["pulses"][:2], doc["pulses"]]))
    if kind == "nested":
        doc["lamb_dicke"] = {"pulses": value, **doc["lamb_dicke"]}
        return json.dumps(doc, indent=2).encode()
    if kind == "twice":
        head, sep, tail = json.dumps(doc, indent=2).partition('"pulses": [')
        extra = f'"pulses": {json.dumps(value)},\n  '
        return (head + extra + sep + tail if draw(st.booleans()) else
                head + sep + tail[:-2] + ",\n  " + extra[:-4] + "\n}").encode()
    i = draw(st.integers(0, len(doc["pulses"]) - 1))
    key = draw(st.sampled_from(["i", "channel", "x", "theta", "note"]))
    doc["pulses"][i][key] = draw(st.sampled_from(["1", 1, 1.5, True, None, [], {}]))
    return json.dumps(doc, indent=2).encode()


@pytest.fixture(scope="module")
def corr3_text(scratch_dir):
    path = scratch_dir / "corr3.json"
    save_schedule(deevolve(target_corr(1, Truncation(3)).state).preparation, path)
    return path.read_text()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), chars=st.sampled_from([7, 100, 1 << 16]))
def test_mutated_files_raise_or_load_the_same_from_both_readers(
    corr3_text, scratch_dir, data, chars
):
    """Truncated, byte-flipped, doubled or nested "pulses" and retyped fields:
    the streaming reader gives what the whole-document reader gives."""
    path = scratch_dir / "mutated.json"
    path.write_bytes(data.draw(mutated_documents(corr3_text)))
    with mock.patch.object(files, "_CHARS_PER_READ", chars):
        assert _outcome(load_schedule, path) == _outcome(files._load_whole, path)


def test_reader_streams_a_file_larger_than_its_peak_memory(tmp_path):
    """The J_max 16 corr preparation (6697 pulses, 1.23 MB) is read without
    holding the document: the traced allocation peak stays below 1 MiB."""
    schedule = deevolve(target_corr(1.0, Truncation(16)).state).preparation
    path = tmp_path / "corr16.json"
    save_schedule(schedule, path)
    assert load_schedule(path) == schedule
    tracemalloc.start()
    try:
        load_schedule(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1 << 20
    assert peak < 1 << 20
