"""The numeric-argument rules ``fock`` owns, as properties: every constructor
input is refused with a DomainError, or builds a schedule that saves and loads
exactly.  Each refusal's words are pinned row by row in test_refusals."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ionsynth import (
    ChannelId,
    Direction,
    DomainError,
    LambDickeParams,
    NoiseModel,
    Pulse,
    Schedule,
    Truncation,
    deevolve,
    load_schedule,
    nonlinearity,
    perturb,
    pulse_count_model,
    save_schedule,
    target_corr,
)
from ionsynth.fock import _integer

HUGE = 2**1100  # past the float range: float() of it raises OverflowError
# The property tests below draw many arguments; after a failure, hypothesis's
# explain phase could run for minutes and grow to about 780 MB.
NO_EXPLAIN = tuple(phase for phase in Phase if phase is not Phase.explain)


def test_numpy_integers_and_reals_are_taken_as_python_numbers():
    t = Truncation(np.int64(3))
    assert t == Truncation(3) and type(t.j_max) is int
    assert pulse_count_model(np.int64(3)) == pulse_count_model(3) == 93
    ld = LambDickeParams(np.float64(0.3), 0, np.float32(0.25), np.int16(0))
    assert ld == LambDickeParams(0.3, 0.0, 0.25, 0.0)
    assert {type(eps) for eps in (ld.eps_x, ld.eps_y, ld.eps_z, ld.eps_carrier)} == {float}
    nm = NoiseModel(np.float64(0.03), 0)
    assert (nm.delta, nm.delta_theta) == (0.03, 0.0) and type(nm.delta_theta) is float
    assert nonlinearity(0.3, np.int64(4)) == nonlinearity(0.3, 4)


LD = LambDickeParams()
PREPARATION = (LD, Truncation(2), Direction.PREPARATION)


# One of each kind of value a caller may put in a length or phase column.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, HUGE, -HUGE, 2**70]),
    st.floats(),
    st.booleans(),
    st.integers(),
    # The largest long double lies past the float64 range where long double is wider.
    st.sampled_from([np.float64(math.nan), np.float64(-0.0), np.finfo(np.longdouble).max]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats().map(np.array),  # 0-d arrays, which NumPy casts whole into a column
    st.integers(-(2**63), 2**63 - 1).map(np.array),
    st.fractions(),
    st.decimals(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.none(),
    st.complex_numbers(),
)


def outcome(make, name):
    """The float ``make()`` keeps, as hex, or the text of its DomainError after ``name``."""
    try:
        return make().hex()
    except DomainError as err:
        text = str(err)
        assert text.startswith(name), text
        return text[len(name):]


@settings(max_examples=400, deadline=None, phases=NO_EXPLAIN)
@given(value=ENTRIES, first=st.booleans())
def test_schedule_columns_and_pulse_take_and_word_the_same_values(value, first):
    """A length or phase is taken by ``Schedule.from_columns`` exactly when
    ``Pulse`` takes it, as the same float; a refusal has the same words after
    the name.  The value is the column's only entry, or follows a valid one,
    so a column of mixed types cannot cast it away."""
    column = [value] if first else [0.25, value]
    i, ones, zeros, notes = len(column) - 1, [1] * len(column), [0.0] * len(column), [-1] * len(column)
    assert outcome(
        lambda: Schedule.from_columns(ones, column, zeros, notes, *PREPARATION).x[i], f"pulses[{i}].x"
    ) == outcome(lambda: Pulse(ChannelId.H1, value, 0.0).x, "pulse length x")
    assert outcome(
        lambda: Schedule.from_columns(ones, zeros, column, notes, *PREPARATION).theta[i],
        f"pulses[{i}].theta",
    ) == outcome(lambda: Pulse(ChannelId.H1, 0.0, value).theta, "pulse phase theta")


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """One directory for the round trips below, which rewrite their file."""
    return tmp_path_factory.mktemp("arguments")


def assert_round_trip(schedule, path):
    """``load_schedule(save_schedule(s)) == s``, and saving again gives the same bytes."""
    save_schedule(schedule, path)
    saved = path.read_bytes()
    loaded = load_schedule(path)
    assert loaded == schedule
    save_schedule(loaded, path)
    assert path.read_bytes() == saved


def test_a_direction_given_by_value_is_kept_as_the_member(scratch_dir):
    schedule = Schedule([Pulse(ChannelId.H2, 0.5, 0.25)], LD, Truncation(2), "preparation")
    assert schedule.direction is Direction.PREPARATION
    assert_round_trip(schedule, scratch_dir / "by-value.json")


def test_integer_lamb_dicke_values_and_numpy_cutoffs_save_and_reload_the_same_bytes(scratch_dir):
    """Integers and NumPy numbers are stored as the floats and ints a load
    gives back, so a re-save writes the same bytes."""
    schedule = Schedule([Pulse(ChannelId.H2, 1, 0)], LambDickeParams(0, 0, 0, 0),
                        Truncation(np.uint8(1)), Direction.DEEVOLUTION, "t")
    assert_round_trip(schedule, scratch_dir / "ints.json")


# --- Every constructor input refuses or round-trips --------------------------

GOOD_REALS = st.one_of(
    st.floats(0.0, 0.9), st.integers(0, 0), st.floats(0.0, 0.9).map(np.float64),
)
BAD_REALS = st.one_of(
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, HUGE, -HUGE]),
    st.floats(max_value=-1e-300, allow_infinity=False),
    st.integers(max_value=-1),
    st.none(),
    st.text(max_size=3),
)
REALS = st.one_of(GOOD_REALS, BAD_REALS)
WIDTHS = st.one_of(st.floats(0.0, 10.0), st.integers(0, 3), BAD_REALS)
J_MAXES = st.one_of(
    st.integers(-3, 3),
    st.integers(0, 3).map(np.int64),
    st.integers(0, 3).map(np.uint8),
    st.booleans(),
    st.floats(-1.0, 4.0),
    st.integers(41, 10**30),
)
DIRECTIONS = st.one_of(
    st.sampled_from(list(Direction)),
    st.sampled_from([d.value for d in Direction]),
    st.text(max_size=12),
    st.integers(),
    st.none(),
)
TARGETS = st.one_of(st.text(max_size=20), st.integers(), st.none(), st.binary(max_size=3))


def integer_entries(low, high):
    """Integers inside and outside [low, high], bools, ``np.int8``, ``np.bool_``,
    0-d arrays, integral and fractional floats, and integers past 2**64."""
    return st.one_of(
        st.integers(low - 2, high + 2),
        st.booleans(),
        st.integers(-128, 127).map(np.int8),
        st.booleans().map(np.bool_),
        st.integers(low - 2, high + 2).map(np.array),
        st.integers(low - 2, high + 2).map(float),
        st.floats(low - 2.0, high + 2.0),
        st.integers(2**64, 2**70),
        st.integers(-(2**70), -(2**64)),
    )


def first_refusal(name, entries, low, high):
    """The message of the first entry ``_integer`` refuses, or None."""
    for i, value in enumerate(entries):
        try:
            _integer(name.format(i), value, low, high)
        except DomainError as err:
            return str(err)
    return None


def built(make, *args):
    """``make(*args)``, or None if it raises DomainError; any other error fails."""
    try:
        return make(*args)
    except DomainError:
        return None


@lru_cache(maxsize=None)
def preparation(truncation, ld):
    return deevolve(target_corr(1.0, truncation).state, ld).preparation


@settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
@given(
    j_max=J_MAXES,
    eps=st.tuples(REALS, REALS, REALS, REALS),
    widths=st.tuples(WIDTHS, WIDTHS),
    length=st.tuples(REALS, REALS),
    direction=DIRECTIONS,
    target=TARGETS,
    ld_as_tuple=st.booleans(),
    code=integer_entries(1, len(ChannelId)),
    channel_entry=integer_entries(1, len(ChannelId)),
    note_entry=integer_entries(-1, Truncation(3).dim - 1),
    at=st.integers(0, 10**6),
)
def test_every_constructor_input_refuses_or_round_trips(
    j_max, eps, widths, length, direction, target, ld_as_tuple, code, channel_entry, note_entry,
    at, scratch_dir,
):
    """Each constructor either raises DomainError or builds a value that goes
    into a J_max <= 3 preparation which saves and loads exactly, with the same
    bytes on a re-save.  A refused cutoff or point is replaced by a valid one,
    so the other inputs are still tried.  A channel code or note index drawn
    into one entry of a column, given as a list or as an array, is refused
    with the message of the first entry ``fock._integer`` refuses, refused by
    the note's level rule, or kept as its integer value."""
    path = scratch_dir / "drawn.json"
    truncation = built(Truncation, j_max) or Truncation(1)
    ld = built(LambDickeParams, *eps) or LD
    prep = preparation(truncation, ld)
    assert_round_trip(prep, path)

    header = (eps if ld_as_tuple else ld, truncation, direction, target)
    drawn = built(Schedule.from_columns, prep.channel, prep.x, prep.theta, prep.note, *header)
    if drawn is not None:
        assert_round_trip(drawn, path)

    noise = built(NoiseModel, *widths)
    if noise is not None:
        assert_round_trip(perturb(prep, noise, np.random.default_rng(0)), path)

    try:
        pulse = Pulse(code, *length)
    except DomainError as err:
        assert first_refusal("pulse channel", [code], 1, len(ChannelId)) in (None, str(err))
    else:
        assert pulse.channel is ChannelId(code)
        assert_round_trip(Schedule([pulse], ld, truncation, Direction.PREPARATION), path)

    header = prep.lamb_dicke, prep.truncation, prep.direction, prep.target
    for field, low, high, value in (
        ("channel", 1, len(ChannelId), channel_entry),
        ("note", -1, truncation.dim - 1, note_entry),
    ):
        columns = {"channel": prep.channel, "x": prep.x, "theta": prep.theta, "note": prep.note}
        given = columns[field].tolist()
        given[at % len(given)] = value
        for column in (given, np.array(given)):
            columns[field] = column
            as_given = column.tolist() if isinstance(column, np.ndarray) else column
            want = first_refusal(f"pulses[{{}}].{field}", as_given, low, high)
            try:
                drawn = Schedule.from_columns(*columns.values(), *header)
            except DomainError as err:
                assert str(err) == want if want else "is not coupled by channel" in str(err)
            else:
                assert want is None
                assert getattr(drawn, field).tolist() == [int(v) for v in as_given]
                assert_round_trip(drawn, path)
