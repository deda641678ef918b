"""Every refusal of a bad argument or file, as one table.

Each row feeds one entry point one bad input and pins the whole message.  A
library row expects ``DomainError``, ``ScheduleFormatError`` or
``TargetFormatError`` with exactly that text.  A command-line row expects exit
status 2, exactly that error line on stderr, nothing on stdout and no file
written.  A new refusal is a new row.  The README's argument table quotes
these messages, and ``test_the_readme_quotes_only_messages_the_rows_expect``
holds it to them.
"""

import contextlib
import copy
import io
import json
import math
import re
import time
import warnings
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ionsynth import (
    ChannelId,
    Component,
    Direction,
    DomainError,
    LambDickeParams,
    Level,
    NoiseModel,
    Occupation,
    Pulse,
    Schedule,
    ScheduleFormatError,
    StateVector,
    TargetFormatError,
    Truncation,
    apply_schedule,
    basis_state,
    component_of,
    deevolve,
    fidelity_to_target,
    index_of,
    load_schedule,
    load_target,
    nonlinearity,
    overlap,
    perturb,
    project_level,
    pulse_count_model,
    random_target,
    run_trials,
    simulate_trial,
    solve_kill_lower,
    solve_kill_upper,
    sweep,
    target_corr,
    target_diag,
    target_ghz,
    vacuum_state,
)
from ionsynth import noise
from ionsynth.cli import main
from ionsynth.fock import J_MAX_CAP, _index_column
from ionsynth.synthesis import build_A, build_B, build_C, bridge, run_steps

from conftest import ONE_PULSE_DOC, OVERFLOWING_X, THREE_PULSE_DOC, random_state

HUGE = 2**1100  # past the float range: float() of it raises OverflowError
UNPRINTABLE = 10**5000  # past the digit limit of int-to-str: repr() of it raises ValueError
LONG = "<int too long to print>"  # how a message shows UNPRINTABLE
INTP = np.iinfo(np.intp)  # the range of a step's or note column's occupation entries
LD = LambDickeParams()
NOISE = NoiseModel(0.01)
PREPARATION = (LD, Truncation(2), Direction.PREPARATION)
H1, H2, H5 = ChannelId.H1, ChannelId.H2, ChannelId.H5
A, B, D = Level.A, Level.B, Level.D


def short(value):
    """``value``'s repr for a row id, HUGE and -HUGE by name."""
    return {HUGE: "huge", -HUGE: "-huge"}.get(value, repr(value))


def cell(nx, ny, nz, level):
    return Component(Occupation(nx, ny, nz), level)


def outside(component, j_max):
    return f"component {component!r} is not inside the truncation j_max={j_max}"


def uncoupled(channel, occ, ld, omega):
    return (
        f"channel {channel} has no coupled pair at occupation {occ} for {ld!r}: its Rabi "
        f"frequency {omega} is not positive (the Lamb-Dicke point is at or past a zero of its "
        "Laguerre factor)"
    )


# --- Row kinds and the checks a row's call can carry ---------------------------


def refuses(id, call, message, kind=DomainError):
    """A library row: ``call()`` raises ``kind`` with ``message`` as its text."""
    return pytest.param(lambda path: call(), kind, message, id=id)


def reads(id, load, document, message, kind=ScheduleFormatError):
    """A file row: ``load(path)`` of a file holding ``document`` (text, or a
    value written as JSON) raises ``kind`` with ``message``, in which
    ``{path}`` stands for the file's path."""

    def call(path):
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        load(path)

    return pytest.param(call, kind, message, id=id)


def exits_2(id, argv, message, schedule=None, target=None):
    """A command-line row: ``argv`` exits 2 with ``message`` as its error.
    ``schedule(compiled)`` gives the text of {schedule}; ``target`` is that of {target}."""
    return pytest.param(argv, message, schedule, target, id=id)


def unrotated(state, call):
    """``call()``, which must leave ``state``'s amplitudes as they were."""
    before = state.amplitudes.copy()
    try:
        call()
    finally:
        assert np.array_equal(state.amplitudes, before), "the state was rotated"


def before_any_trial(call):
    """``call``, which must refuse before a trial is perturbed or replayed."""

    def checked():
        ran = mock.Mock(side_effect=AssertionError("a trial ran"))
        with mock.patch.object(noise, "perturb", ran), mock.patch.object(noise, "_replay", ran):
            try:
                call()
            finally:
                assert ran.call_count == 0

    return checked


def at_once(call):
    """``call``, which must return or raise within a second."""

    def checked():
        start = time.perf_counter()
        try:
            call()
        finally:
            assert time.perf_counter() - start < 1.0

    return checked


# --- Inputs --------------------------------------------------------------------


@lru_cache(maxsize=None)
def random_preparation():
    """A random J_max 3 level-a target and its preparation."""
    target = random_target(Truncation(3), np.random.default_rng(2024)).state
    return target, deevolve(target).preparation


@lru_cache(maxsize=None)
def corr_preparation(j_max):
    return deevolve(target_corr(1.0, Truncation(j_max)).state).preparation


def with_amplitude(state, index, value):
    amps = state.amplitudes.astype(np.complex128)
    amps[index] = value
    return StateVector(amps, state.truncation)


def trials(target, prep, *args):
    return before_any_trial(lambda: run_trials(target(), prep(), NOISE, *args))


def perturb_past_the_float_range():
    """Lengths of 1.7e308 perturbed by widths of 1e308: a drawn length overflows."""
    prep = random_preparation()[1]
    big = Schedule.from_columns(prep.channel, np.full(len(prep), 1.7e308), prep.theta, prep.note,
                                prep.lamb_dicke, prep.truncation, prep.direction, prep.target)
    with np.errstate(over="ignore"):
        perturb(big, NoiseModel(delta=1e308), np.random.default_rng(3))


def columns(channel, x, theta, note, j_max=3):
    """``Schedule.from_columns``; notes given as components go through
    ``Schedule(pulses, ...)``."""
    meta = LD, Truncation(j_max), Direction.PREPARATION
    if any(isinstance(n, Component) for n in note):
        return lambda: Schedule(map(Pulse, channel, x, theta, note), *meta)
    return lambda: Schedule.from_columns(channel, x, theta, note, *meta)


def steps(given, j_max=2, seed=None, ld=LD):
    """``run_steps`` of the steps ``given`` on the J_max vacuum, or on a random
    state drawn with ``seed``."""

    def call():
        t = Truncation(j_max)
        work = vacuum_state(t) if seed is None else random_state(t, np.random.default_rng(seed))
        unrotated(work, lambda: run_steps(work, given, ld))

    return call


def deevolve_corr(j_max, ld):
    target = target_corr(1.0, Truncation(j_max)).state
    unrotated(target, lambda: deevolve(target, ld))


def then(step):
    """A valid H2 step, then ``step``."""
    return steps([(H2, Occupation(0, 0, 0), True), step])


def edited(base, edit):
    """A copy of the document ``base`` after ``edit``."""
    doc = copy.deepcopy(base)
    edit(doc)
    return doc


PAST_X_ZERO = LambDickeParams(0.6, 0.1, 0.2, 0.1)  # past the first zero of L1_11
FAR_PAST_X_ZERO = LambDickeParams(1.3, 0.1, 0.2, 0.1)
PAST_CARRIER_ZERO = LambDickeParams(0.3, 0.1, 0.2, 1.4142)
X_UNDERFLOW = LambDickeParams(1e200, 0.1, 0.2, 0.1)  # exp(-eps_x**2/2) underflows: Omega 0
UNCOUPLED = [
    # (id, j_max, point, the first uncoupled step in plan order, a builder holding it)
    ("ex-0.6", 12, PAST_X_ZERO, uncoupled("H5", (10, 2, 0), PAST_X_ZERO, -0.131546), (build_C, 12, 10)),
    ("ex-1.3", 4, FAR_PAST_X_ZERO, uncoupled("H5", (2, 2, 0), FAR_PAST_X_ZERO, -0.222909),
     (build_C, 4, 2)),
    ("exc-1.4142", 4, PAST_CARRIER_ZERO, uncoupled("H4", (2, 0, 2), PAST_CARRIER_ZERO, -0.122624),
     (build_B, 4, 2)),
    ("ex-1e200", 3, X_UNDERFLOW, uncoupled("H5", (0, 3, 0), X_UNDERFLOW, 0), (build_C, 3, 0)),
]
# Components that are not inside Truncation(2): bool and float entries or
# levels, negative entries, totals past the cutoff, and non-components.
OUTSIDE_J_MAX_2 = {
    "bool-nx": cell(True, 0, 0, A), "float-nx": cell(1.0, 0, 0, A),
    "numpy-bool-ny": cell(0, np.bool_(True), 0, A), "negative-ny": cell(0, -1, 0, B),
    "total-3": cell(3, 0, 0, A), "total-3-on-d": cell(1, 1, 1, D),
    "total-wraps": cell(2**63, 2**63, 2, A), "bool-level": cell(0, 0, 0, True),
    "numpy-bool-level": cell(0, 0, 0, np.bool_(True)), "level-4": cell(0, 0, 0, 4),
    "level--1": cell(0, 0, 0, -1), "float-level": cell(0, 0, 0, 1.0), "str": "xyz",
    "tuple": (0, 0, 0),
}
COMPONENT_USERS = {
    "index_of": lambda c: index_of(c, Truncation(2)),
    "basis_state": lambda c: basis_state(c, Truncation(2)),
    "amplitude": lambda c: vacuum_state(Truncation(2)).amplitude(c),
}
HEADERS = [
    ("direction-prep", (LD, Truncation(2), "prep", ""),
     "direction must be 'deevolution' or 'preparation', got 'prep'"),
    ("direction-None", (LD, Truncation(2), None, ""),
     "direction must be 'deevolution' or 'preparation', got None"),
    ("target-int", (*PREPARATION, 5), "target must be a str, got 5"),
    ("target-None", (*PREPARATION, None), "target must be a str, got None"),
    ("lamb_dicke-tuple", ((0.3, 0.1, 0.2, 0.1), Truncation(2), Direction.PREPARATION, ""),
     "lamb_dicke must be a LambDickeParams, got (0.3, 0.1, 0.2, 0.1)"),
    ("truncation-int", (LD, 2, Direction.PREPARATION, ""), "truncation must be a Truncation, got 2"),
]
# Occupations that each fit intp while their total does not.
WRAPPING = {"max-1-0": [2**63 - 1, 1, 0], "2^62-2^62-0": [2**62, 2**62, 0],
            "0-max-max": [0, 2**63 - 1, 2**63 - 1]}
WEIGHT_ON_1_D = ("target has weight on (J=1; d), which the plan at j_max 1 cannot empty; "
                 "compiling at j_max 2 empties it")
OFF_LEVEL_A = "target state must have support only on electronic level a"
OTHER_CUTOFF = "target has j_max 4, the preparation 3"
NON_NEGATIVE_REAL = "must be a finite non-negative real, got"

LIBRARY = [
    # Cutoffs and counts: fock's integer rule, capped at J_MAX_CAP quanta.
    *[refuses(f"Truncation-{v!r}", lambda v=v: Truncation(v), f"j_max must be an integer >= 0, got {v!r}")
      for v in [True, -1, 2.5]],
    refuses("Truncation-41", lambda: Truncation(41), "j_max 41 exceeds the cap of 40"),
    refuses("Truncation-unprintable", lambda: Truncation(UNPRINTABLE),
            f"j_max {LONG} exceeds the cap of 40"),
    *[refuses(f"pulse_count_model-{v!r}", lambda v=v: pulse_count_model(v),
              f"j_max must be an integer >= 0, got {v!r}")
      for v in [np.int8(-2), True, False, 2.5, 3.0, "3", None, -1]],
    *[refuses(f"nonlinearity-n-{v!r}", lambda v=v: nonlinearity(0.1, v),
              f"occupation must be an integer >= 0, got {v!r}") for v in [True, 2.5, -1]],
    refuses("nonlinearity-unprintable", lambda: nonlinearity(0.1, UNPRINTABLE),
            f"occupation {LONG} exceeds the cap of 40"),
    # The Laguerre recurrence costs O(n): 2**40 would not return, and 2**64 overflowed.
    *[refuses(f"nonlinearity-{n}", at_once(lambda n=n: nonlinearity(0.1, n)),
              f"occupation {n} exceeds the cap of {J_MAX_CAP}") for n in [J_MAX_CAP + 1, 2**40, 2**64]],
    *[refuses(f"bridge-{j!r}", lambda j=j: bridge(j), f"bridge J must be an integer >= 1, got {j!r}")
      for j in [0, -1, 1.5, True]],
    *[refuses(f"component_of-{k!r}", lambda k=k: component_of(k, Truncation(2)),
              f"basis index must be an integer >= 0, got {k!r}") for k in [True, 1.0, -1]],
    refuses("component_of-dim", lambda: component_of(40, Truncation(2)),
            "basis index 40 exceeds the cap of 39"),
    refuses("component_of-unprintable", lambda: component_of(UNPRINTABLE, Truncation(2)),
            f"basis index {LONG} exceeds the cap of 39"),
    # Lamb-Dicke values, noise widths, pulse lengths: finite reals >= 0; phases: finite reals.
    refuses("LambDickeParams-bool", lambda: LambDickeParams(True, 0.1, 0.2, 0.1),
            f"eps_x {NON_NEGATIVE_REAL} True"),
    refuses("LambDickeParams-huge", lambda: LambDickeParams(HUGE), f"eps_x {NON_NEGATIVE_REAL} {HUGE}"),
    refuses("LambDickeParams--0.1", lambda: LambDickeParams(eps_x=-0.1),
            f"eps_x {NON_NEGATIVE_REAL} -0.1"),
    refuses("LambDickeParams-nan", lambda: LambDickeParams(eps_carrier=math.nan),
            f"eps_carrier {NON_NEGATIVE_REAL} nan"),
    refuses("LambDickeParams-unprintable", lambda: LambDickeParams(UNPRINTABLE),
            f"eps_x {NON_NEGATIVE_REAL} {LONG}"),
    *[refuses(f"nonlinearity-eps-{short(v)}", lambda v=v, n=n: nonlinearity(v, n),
              f"eps {NON_NEGATIVE_REAL} {v}")
      for v, n in [(True, 1), (HUGE, 1), (-0.1, 0)]],
    refuses("NoiseModel-bool", lambda: NoiseModel(True, 0.0), f"delta {NON_NEGATIVE_REAL} True"),
    refuses("NoiseModel-huge", lambda: NoiseModel(HUGE), f"delta {NON_NEGATIVE_REAL} {HUGE}"),
    refuses("NoiseModel--0.1", lambda: NoiseModel(delta=-0.1), f"delta {NON_NEGATIVE_REAL} -0.1"),
    refuses("NoiseModel-unprintable", lambda: NoiseModel(UNPRINTABLE),
            f"delta {NON_NEGATIVE_REAL} {LONG}"),
    refuses("NoiseModel--huge", lambda: NoiseModel(0.0, -HUGE),
            f"delta_theta {NON_NEGATIVE_REAL} {-HUGE}"),
    refuses("NoiseModel-nan", lambda: NoiseModel(delta_theta=math.nan),
            f"delta_theta {NON_NEGATIVE_REAL} nan"),
    *[refuses(f"Pulse-x-{short(x)}", lambda x=x: Pulse(H1, x, 0.0),
              f"pulse length x {NON_NEGATIVE_REAL} {x}")
      for x in [HUGE, -0.5, -0.1, math.nan, False]],
    refuses("Pulse-x-unprintable", lambda: Pulse(H1, UNPRINTABLE, 0.0),
            f"pulse length x {NON_NEGATIVE_REAL} {LONG}"),
    *[refuses(f"Pulse-theta-{short(theta)}", lambda x=x, theta=theta: Pulse(H1, x, theta),
              f"pulse phase theta must be a finite real, got {theta}")
      for x, theta in [(0.5, -HUGE), (0.5, math.nan), (0.1, math.inf)]],
    # A pulse's channel code.
    refuses("Pulse-99", lambda: Pulse(99, 0.5, 0.0), "pulse channel 99 exceeds the cap of 9"),
    *[refuses(f"Pulse-{code!r}", lambda code=code: Pulse(code, 0.5, 0.0),
              f"pulse channel must be an integer >= 1, got {code!r}") for code in [True, 1.5, "H1"]],
    # alpha: a finite real or complex number, small enough that the kept amplitudes do not underflow.
    *[refuses(f"{build.__name__}-{short(alpha)}",
              lambda build=build, alpha=alpha: build(alpha, Truncation(3)),
              f"alpha must be a finite real or complex number, got {alpha!r}")
      for build, alpha in [
          (target_corr, True), (target_ghz, HUGE), (target_corr, "x"), (target_ghz, None),
          *[(build, alpha) for build in (target_ghz, target_corr)
            for alpha in (math.nan, math.inf, complex(1, math.nan))]]],
    *[refuses(f"{build.__name__}-{alpha!r}", lambda build=build, alpha=alpha: build(alpha, Truncation(4)),
              f"alpha={alpha!r} is too large: the kept target amplitudes underflow")
      for build, alpha in [(target_corr, 1000.0), (target_corr, 37.0), (target_corr, 1e200),
                           (target_ghz, 40.0), (target_ghz, 30j), (target_ghz, 1e200)]],
    refuses("target_diag-11", lambda: target_diag(Truncation(11)),
            "the diagonal target needs j_max >= 12 (support up to |4,4,4>), got 11"),
    # Basis components, wherever one is given.
    *[refuses(f"{user}-{name}", lambda use=use, c=c: use(c), outside(c, 2))
      for user, use in COMPONENT_USERS.items() for name, c in OUTSIDE_J_MAX_2.items()],
    refuses("index_of-unprintable", lambda: index_of(cell(UNPRINTABLE, 0, 0, A), Truncation(2)),
            "component <Component too long to print> is not inside the truncation j_max=2"),
    # Columns of two components at J_max 2: the integer rule over intp, then index_of's words.
    *[refuses(f"index_column-{name}", lambda q=quanta, lv=levels: _index_column("x {} ", q, lv, 2),
              message) for name, quanta, levels, message in [
          ("bool-nx", [0, 0, 0, True, 0, 0], [0, 0],
           f"x 1 nx must be an integer >= {INTP.min}, got True"),
          ("float-nz", [0, 0, 0, 0, 0, 1.0], [0, 0], f"x 1 nz must be an integer >= {INTP.min}, got 1.0"),
          ("ny-2^64", [0, 0, 0, 0, 2**64, 0], [0, 0], f"x 1 ny {2**64} exceeds the cap of {INTP.max}"),
          ("level-4", [0, 0, 0, 0, 0, 0], [0, 4], "x 1 level 4 exceeds the cap of 3"),
          ("bool-level", [0, 0, 0, 0, 0, 0], [0, True], "x 1 level must be an integer >= 0, got True"),
          ("negative-ny", [0, 0, 0, 0, -1, 0], [0, 1], outside(cell(0, -1, 0, B), 2)),
          ("total-3", [0, 0, 0, 0, 3, 0], [0, 0], outside(cell(0, 3, 0, A), 2)),
          ("total-wraps", [2**62, 2**62, 0, 0, 0, 0], [0, 0], outside(cell(2**62, 2**62, 0, A), 2)),
      ]],
    refuses("Level-e", lambda: Level.from_label("e"), "unknown electronic level 'e'"),
    # States.
    refuses("StateVector-shape", lambda: StateVector(np.zeros(5), Truncation(0)),
            "amplitude array has shape (5,), expected (4,)"),
    refuses("normalized-zero", lambda: StateVector(np.zeros(16), Truncation(1)).normalized(),
            "cannot normalize a zero state"),
    refuses("overlap-truncations", lambda: overlap(vacuum_state(Truncation(1)),
                                                   vacuum_state(Truncation(2))),
            "truncation mismatch: j_max=1 vs j_max=2"),
    refuses("apply_schedule-truncations", lambda: apply_schedule(
        vacuum_state(Truncation(3)), Schedule((), LD, Truncation(2), Direction.PREPARATION)),
        "schedule truncation j_max=2 does not match state truncation j_max=3"),
    refuses("project_level-empty", lambda: project_level(basis_state(cell(0, 0, 0, B), Truncation(0)), A),
            "state has no support on level 'a'"),
    # min(1.0, nan) is 1.0, so a NaN or infinite amplitude once scored as a perfect preparation.
    *[refuses(f"fidelity-{name}", lambda i=i, v=v: fidelity_to_target(
        with_amplitude(vacuum_state(Truncation(1)), i, v), vacuum_state(Truncation(1))),
        "overlap with the target is not finite, got (nan+nanj)")
      for name, i, v in [("nan-on-a", 0, math.nan), ("inf-on-b", 1, math.inf),
                         ("inf-off-target", 4, -math.inf), ("nan-imag-on-b", 5, complex(0, math.nan))]],
    # Schedule headers, through both constructors.
    *[refuses(f"Schedule-{name}", lambda header=header: Schedule([Pulse(H2, 0.5, 0.25)], *header),
              message) for name, header, message in HEADERS],
    *[refuses(f"from_columns-{name}", lambda header=header: Schedule.from_columns(
        [2], [0.5], [0.25], [-1], *header), message) for name, header, message in HEADERS],
    refuses("from_columns-unprintable-target", lambda: Schedule.from_columns(
        [2], [0.5], [0.25], [-1], *PREPARATION, UNPRINTABLE), f"target must be a str, got {LONG}"),
    # Schedule columns: channel codes and notes by the integer rule, lengths and
    # phases by the real rule, then each note on a level its channel couples.
    refuses("columns-bool-channel", columns([1, True], [0.0] * 2, [0.0] * 2, [-1, -1], 2),
            "pulses[1].channel must be an integer >= 1, got True"),
    refuses("columns-bool-note", columns([1, 1], [0.0] * 2, [0.0] * 2, [-1, True], 2),
            "pulses[1].note must be an integer >= -1, got True"),
    refuses("pulses-bool-channel",  # the pulse refuses the bool before the schedule is built
            lambda: Schedule([Pulse(1, 0.0, 0.0), Pulse(True, 0.0, 0.0)], *PREPARATION),
            "pulse channel must be an integer >= 1, got True"),
    refuses("columns-float-channel", columns([1, 2.5], [0.0] * 2, [0.0] * 2, [-1, -1], 2),
            "pulses[1].channel must be an integer >= 1, got 2.5"),
    refuses("columns-float-note", columns([1, 1], [0.0] * 2, [0.0] * 2, [-1, 0.5], 2),
            "pulses[1].note must be an integer >= -1, got 0.5"),
    *[refuses(f"columns-{name}-x", columns([2] * 3, [0.5, v, v], [0.25] * 3, [-1] * 3, 2),
              f"pulses[1].x {NON_NEGATIVE_REAL} {v}") for name, v in [("huge", HUGE), ("-huge", -HUGE)]],
    *[refuses(f"columns-{name}-theta", columns([2] * 3, [0.5] * 3, [0.25, v, v], [-1] * 3, 2),
              f"pulses[1].theta must be a finite real, got {v}")
      for name, v in [("huge", HUGE), ("-huge", -HUGE)]],
    refuses("columns-unprintable-channel", columns([UNPRINTABLE], [0.5], [0.25], [-1], 2),
            f"pulses[0].channel {LONG} exceeds the cap of 9"),
    refuses("columns-unprintable-x", columns([2], [UNPRINTABLE], [0.25], [-1], 2),
            f"pulses[0].x {NON_NEGATIVE_REAL} {LONG}"),
    refuses("columns-unprintable-note", columns([2], [0.5], [0.25], [UNPRINTABLE], 2),
            f"pulses[0].note {LONG} exceeds the cap of 39"),
    refuses("columns-channel-0", columns([1, 2, 0], [0.1, 0.2, 0.3], [0.0] * 3, [-1] * 3),
            "pulses[2].channel must be an integer >= 1, got 0"),
    refuses("columns-channel-10", columns([1, 2, 10], [0.1, 0.2, 0.3], [0.0] * 3, [-1] * 3),
            "pulses[2].channel 10 exceeds the cap of 9"),
    refuses("columns-x--0.3", columns([1, 2, 3], [0.1, 0.2, -0.3], [0.0] * 3, [-1] * 3),
            f"pulses[2].x {NON_NEGATIVE_REAL} -0.3"),
    refuses("columns-x-inf", columns([1, 2, 3], [0.1, math.inf, math.nan], [0.0] * 3, [-1] * 3),
            f"pulses[1].x {NON_NEGATIVE_REAL} inf"),
    refuses("columns-theta-nan", columns([1, 2, 3], [0.1, 0.2, 0.3], [0.0, 0.0, math.nan], [-1] * 3),
            "pulses[2].theta must be a finite real, got nan"),
    refuses("columns-theta--inf", columns([1, 2, 3], [0.1, 0.2, 0.3], [0.0, -math.inf, 0.0], [-1] * 3),
            "pulses[1].theta must be a finite real, got -inf"),
    refuses("columns-lengths", columns([1, 2], [0.1, 0.2, 0.3], [0.0] * 3, [-1] * 3),
            "schedule columns must be 1-D and of one length"),
    *[refuses(f"columns-note-{k}", columns([1], [0.0], [0.0], [k]),
              f"pulses[0].note {k} exceeds the cap of 79") for k in [80, 3996]],
    refuses("columns-note--2", columns([3], [0.0], [0.0], [-2]),
            "pulses[0].note must be an integer >= -1, got -2"),
    refuses("columns-note-on-d", columns([1, 1], [0.0, 0.0], [0.0, 0.0], [-1, 3]),
            "pulses[1].note: level d is not coupled by channel H1"),
    refuses("columns-x-before-level", columns([1, 1], [0.0, -1.0], [0.0, 0.0], [3, -1]),
            f"pulses[1].x {NON_NEGATIVE_REAL} -1.0"),
    refuses("pulses-note-outside", columns([1], [0.0], [0.0], [cell(0, 0, 999, A)]),
            f"pulses[0].note: {outside(cell(0, 0, 999, A), 3)}"),
    refuses("pulses-note-on-d", columns([1], [0.0], [0.0], [cell(0, 0, 0, D)]),
            "pulses[0].note: level d is not coupled by channel H1"),
    # Wide or non-integer columns are checked before they are narrowed.
    refuses("columns-int64-channel", columns(np.array([257]), [0.0], [0.0], np.array([2**32])),
            "pulses[0].channel 257 exceeds the cap of 9"),
    refuses("columns-int64-note", columns([1], [0.0], [0.0], np.array([2**32])),
            "pulses[0].note 4294967296 exceeds the cap of 79"),
    refuses("columns-float64-channel", columns(np.array([1.7]), [0.0], [0.0], [-1]),
            "pulses[0].channel must be an integer >= 1, got 1.7"),
    refuses("columns-float64-note", columns([1], [0.0], [0.0], np.array([4.0])),
            "pulses[0].note must be an integer >= -1, got 4.0"),
    *[refuses(f"columns-channel-{code}", columns([code], [0.0], [0.0], [-1]),
              f"pulses[0].channel {code} exceeds the cap of 9") for code in [257, 2**40]],
    refuses("columns-note-2^40", columns([1], [0.0], [0.0], [2**40]),
            f"pulses[0].note {2**40} exceeds the cap of 79"),
    refuses("columns-channel-2^70", columns([1, 2**70], [0.0] * 2, [0.0] * 2, [-1, -1]),
            f"pulses[1].channel {2**70} exceeds the cap of 9"),
    # A ragged column is refused by name, not by NumPy's bare ValueError.
    refuses("columns-ragged-x", columns([1], [[1.0], [1.0, 2.0]], [0.0], [-1]),
            "schedule columns must be 1-D and of one length"),
    refuses("columns-ragged-channel", columns([[1], [1, 2]], [0.0], [0.0], [-1]),
            "schedule columns must be 1-D and of one length"),
    # A pulse's note goes through index_of, in its words under the pulse's name.
    *[refuses(f"pulses-note-{name}", lambda note=note: Schedule(
        [Pulse(1, 0.1, 0.0, cell(0, 0, 1, A)), Pulse(1, 0.1, 0.0, note)], LD, Truncation(3),
        Direction.PREPARATION), f"pulses[1].note: {outside(note, 3)}")
      for name, note in [("str", "xyz"), ("int", 5), ("nz-9", cell(0, 0, 9, A)),
                         ("level-7", cell(0, 0, 1, 7)), ("bool-nx", cell(True, 0, 0, A)),
                         ("float-ny", cell(0, 1.0, 0, B))]],
    # The solvers, which need a coupled pair.
    refuses("solve_kill_lower-0", lambda: solve_kill_lower(1.0, 0.0, 0.0),
            "omega must be positive, got 0.0"),
    refuses("solve_kill_upper--1", lambda: solve_kill_upper(1.0, 0.0, -1.0),
            "omega must be positive, got -1.0"),
    *[refuses(f"{solve.__name__}-nan-{q[0]}-{q[1]}", lambda solve=solve, q=q: solve(*q, math.nan),
              "omega must be positive, got nan")
      for solve in (solve_kill_lower, solve_kill_upper)
      for q in [(0.5, 1 + 0j), (1.0, 0.0), (0.0, 1.0)]],
    # The compiler's steps: fock's rules, named by step, and a coupled pair, before any rotation.
    refuses("run_steps-outside", steps([*build_A(3, 0)]), outside(cell(0, 0, 3, A), 2)),
    refuses("run_steps-nx-0.5", then((H2, Occupation(0.5, 0, 0), True)),
            f"step 1 nx must be an integer >= {INTP.min}, got 0.5"),
    refuses("run_steps-nx-bool", then((H2, Occupation(True, 0, 0), True)),
            f"step 1 nx must be an integer >= {INTP.min}, got True"),
    refuses("run_steps-nz-1.0", then((H2, Occupation(0, 0, 1.0), True)),
            f"step 1 nz must be an integer >= {INTP.min}, got 1.0"),
    refuses("run_steps-channel-12", then((12, Occupation(0, 0, 0), True)),
            "step 1 channel 12 exceeds the cap of 9"),
    refuses("run_steps-channel-bool", then((True, Occupation(0, 0, 0), True)),
            "step 1 channel must be an integer >= 1, got True"),
    refuses("run_steps-two-entries", then((H2, (0, 0), True)), "step 1 occupation must hold 3 entries"),
    refuses("run_steps-int-occupation", then((H2, 5, True)), "step 1 occupation must hold 3 entries"),
    refuses("run_steps-nx-10^30", then((H2, (10**30, 0, 0), True)),
            f"step 1 nx {10**30} exceeds the cap of {INTP.max}"),
    refuses("run_steps-negative-ny", then((H2, (0, -1, 0), True)), outside(cell(0, -1, 0, A), 2)),
    refuses("run_steps-total-wraps", then((H2, (2**62, 2**62, 0), True)),
            outside(cell(2**62, 2**62, 0, A), 2)),
    refuses("run_steps-ragged-nx", steps([(H2, ([1], 0, 0), True), (H2, ([1, 2], 0, 0), True)]),
            f"step 0 nx must be an integer >= {INTP.min}, got [1]"),
    refuses("run_steps-ragged-channel", steps([([1, 2], (0, 0, 0), True), (1, (0, 0, 0), True)]),
            "step 0 channel must be an integer >= 1, got [1, 2]"),
    *[refuses(f"run_steps-kill_upper-{flag!r}", steps(
        [(H1, Occupation(0, 0, 1), False), (H1, Occupation(0, 0, 1), flag)], 1, seed=3),
        f"step 1 kill_upper must be a bool, got {flag!r}")
      for flag in ["no", 0.5, 2, 1, 0, None, np.int64(1), np.array(True)]],
    # H5 lowers y, so it has no pair from (0, 0, 0); at J_max 0 its table is empty.
    *[refuses(f"run_steps-no-pair-{j_max}", steps([(H5, Occupation(0, 0, 0), False)], j_max, seed=j_max),
              uncoupled("H5", (0, 0, 0), LD, 0)) for j_max in (0, 2)],
    # H1 lowers z, so it has no pair from (0, 1, 0); a coupled H1/H2 ladder runs first.
    refuses("run_steps-exchange-no-pair",
            steps([*build_A(2, 0), (H1, Occupation(0, 1, 0), False)], seed=5),
            uncoupled("H1", (0, 1, 0), LD, 0)),
    *[refuses(f"run_steps-uncoupled-{name}", steps(
        [*build_A(j_max, 0), *build(*args)], j_max, seed=j_max, ld=ld), message)
      for name, j_max, ld, message, (build, *args) in UNCOUPLED],
    *[refuses(f"deevolve-uncoupled-{name}", lambda j_max=j_max, ld=ld: deevolve_corr(j_max, ld), message)
      for name, j_max, ld, message, _ in UNCOUPLED],
    refuses("deevolve-norm-2-on-1-d",  # the block is checked first
            lambda: deevolve(StateVector(np.full(16, 0.5), Truncation(1))), WEIGHT_ON_1_D),
    refuses("deevolve-on-1-d", lambda: deevolve(basis_state(cell(0, 1, 0, D), Truncation(1))),
            WEIGHT_ON_1_D),
    refuses("deevolve-nan", lambda: deevolve(with_amplitude(vacuum_state(Truncation(1)), 0, math.nan)),
            "target must be normalized, got norm nan"),
    # The noise lab: its arguments, then the target's cutoff and level, before any trial.
    *[refuses(f"run_trials-{name}", trials(lambda: random_preparation()[0],
                                           lambda: random_preparation()[1], *args), message)
      for name, args, message in [
          ("n-0", (0, 1), "n must be an integer >= 1, got 0"),
          ("float-n", (2.5, 1), "n must be an integer >= 1, got 2.5"),
          ("bool-n", (True, 1), "n must be an integer >= 1, got True"),
          ("seed--1", (2, -1), "seed must be an integer >= 0, got -1"),
          ("float-seed", (2, 1.5), "seed must be an integer >= 0, got 1.5"),
          ("bool-seed", (2, True), "seed must be an integer >= 0, got True"),
          ("negative-numpy-seed", (2, np.int64(-1)), "seed must be an integer >= 0, got np.int64(-1)"),
          ("negative-substream", (2, 1, (-1,)), "substream entry must be an integer >= 0, got -1"),
          ("float-substream", (2, 1, (0, 0.5)), "substream entry must be an integer >= 0, got 0.5"),
          ("negative-numpy-substream", (2, 1, (np.int32(-2),)),
           "substream entry must be an integer >= 0, got np.int32(-2)"),
      ]],
    refuses("sweep-seed--1", lambda: sweep(*random_preparation(), [NoiseModel()], n=2, seed=-1),
            "seed must be an integer >= 0, got -1"),
    refuses("run_trials-truncations", trials(lambda: target_corr(1.0, Truncation(4)).state,
                                             lambda: corr_preparation(3), 2, 1), OTHER_CUTOFF),
    refuses("run_trials-off-level-a", trials(lambda: with_amplitude(random_preparation()[0], 1, 0.5),
                                             lambda: random_preparation()[1], 2, 1), OFF_LEVEL_A),
    # One generator, several or none; a target at another cutoff, off level a too, is named by its cutoff.
    *[refuses(f"simulate_trial-{name}-{rngs}", before_any_trial(
        lambda target=target, prep=prep, rng=rng: simulate_trial(target(), prep(), NOISE, rng)), message)
      for name, target, prep, message in [
          ("off-level-a", lambda: with_amplitude(random_preparation()[0], 1, 0.5),
           lambda: random_preparation()[1], OFF_LEVEL_A),
          ("truncations", lambda: with_amplitude(target_corr(1.0, Truncation(4)).state, 1, 0.5),
           lambda: corr_preparation(3), OTHER_CUTOFF)]
      for rngs, rng in [("one", np.random.default_rng(1)),
                        ("two", [np.random.default_rng(k) for k in (1, 2)]), ("none", [])]],
    refuses("perturb-overflow", perturb_past_the_float_range, f"pulses[1].x {NON_NEGATIVE_REAL} inf"),
    # Schedule files: each field's presence and JSON type, then the rules above, by field name.
    *[reads(f"schedule-{name}", load_schedule, edited(ONE_PULSE_DOC, edit), message)
      for name, edit, message in [
          ("version-2", lambda d: d.update(version=2), "version: unsupported value 2"),
          ("jmax-missing", lambda d: d.pop("jmax"), "jmax: missing"),
          ("jmax--1", lambda d: d.update(jmax=-1), "jmax: j_max must be an integer >= 0, got -1"),
          ("jmax-41", lambda d: d.update(jmax=41), "jmax: j_max 41 exceeds the cap of 40"),
          ("direction", lambda d: d.update(direction="sideways"), "direction: unknown value 'sideways'"),
          ("exc-missing", lambda d: d["lamb_dicke"].pop("exc"), "lamb_dicke.exc: missing"),
          ("ex--0.1", lambda d: d["lamb_dicke"].update(ex=-0.1),
           f"lamb_dicke: eps_x {NON_NEGATIVE_REAL} -0.1"),
          ("note-total-50", lambda d: d.update(jmax=4) or d["pulses"][0].update(note=[50, 0, 0, "a"]),
           "pulses[0].note: total occupation 50 exceeds the cutoff 4"),
      ]],
    *[reads(f"schedule-{name}", load_schedule,
            edited(ONE_PULSE_DOC, lambda d: d["pulses"][0].update(fields)), message)
      for name, fields, message in [
          ("H10", {"channel": "H10"}, "pulses[0].channel: unknown channel 'H10'"),
          ("i-3", {"i": 3}, "pulses[0].i: expected 0, got 3"),
          ("x--0.5", {"x": -0.5}, f"pulses[0].x {NON_NEGATIVE_REAL} -0.5"),
          ("x-str", {"x": "0.5"}, "pulses[0].x: unexpected type str"),
          ("theta-inf", {"theta": math.inf}, "pulses[0].theta must be a finite real, got inf"),
          ("note-3", {"note": [0, 0, 0]}, "pulses[0].note: expected [nx, ny, nz, level] or null"),
          ("note-e", {"note": [0, 0, 0, "e"]}, "pulses[0].note: unknown electronic level 'e'"),
          ("note-total-2", {"note": [2, 0, 0, "a"]},
           "pulses[0].note: total occupation 2 exceeds the cutoff 1"),
          *[(f"note-wraps-{name}", {"note": [*n, "b"]},
             f"pulses[0].note: total occupation {sum(n)} exceeds the cutoff 1")
            for name, n in WRAPPING.items()],
      ]],
    *[reads(f"schedule-3-{name}", load_schedule, edited(THREE_PULSE_DOC, lambda d: edit(d["pulses"][2])),
            message)
      for name, edit, message in [
          ("x-str", lambda p: p.update(x="1.5"), "pulses[2].x: unexpected type str"),
          ("x-negative", lambda p: p.update(x=-1.5), f"pulses[2].x {NON_NEGATIVE_REAL} -1.5"),
          ("theta-nan", lambda p: p.update(theta=math.nan),
           "pulses[2].theta must be a finite real, got nan"),
          ("channel", lambda p: p.update(channel="H0"), "pulses[2].channel: unknown channel 'H0'"),
          ("index", lambda p: p.update(i=0), "pulses[2].i: expected 2, got 0"),
          ("index-missing", lambda p: p.pop("i"), "pulses[2].i: missing"),
          ("note-cutoff", lambda p: p.update(note=[2, 1, 0, "a"]),
           "pulses[2].note: total occupation 3 exceeds the cutoff 2"),
          ("note-level", lambda p: p.update(note=[0, 1, 0, "c"]),
           "pulses[2].note: level c is not coupled by channel H1"),
      ]],
    # Note levels are checked after every length and phase, so a later pulse's bad length is named first.
    *[reads(f"schedule-3-{name}", load_schedule, edited(THREE_PULSE_DOC, edit), message)
      for name, edit, message in [
          ("x-before-level", lambda d: d["pulses"][2].update(x=-1.5) or d["pulses"][0].update(
              note=[0, 0, 0, "D"]), f"pulses[2].x {NON_NEGATIVE_REAL} -1.5"),
          ("level-label", lambda d: d["pulses"][0].update(note=[0, 0, 0, "D"]),
           "pulses[0].note: level d is not coupled by channel H2"),
          ("not-an-object", lambda d: d["pulses"].__setitem__(2, [2, "H1", 1.5, 3.0]),
           "pulses[2]: expected an object"),
      ]],
    reads("schedule-garbage", load_schedule, "{ not json", "{path}: invalid JSON (Expecting property "
          "name enclosed in double quotes: line 1 column 3 (char 2))"),
    reads("schedule-array", load_schedule, "[1, 2, 3]", "top level: expected an object"),
    # Target files.
    *[reads(f"target-{name}", lambda path: load_target(path, Truncation(2)), doc, message,
            TargetFormatError) for name, doc, message in [
          ("empty", [], "target file holds no components"),
          ("norm-0.5", [{"n": [0, 0, 0], "re": 0.5, "im": 0.0}],
           "target norm 0.500000000 differs from 1 by more than 1e-6"),
          ("duplicate", [{"n": [0, 0, 0], "re": 1.0, "im": 0.0}, {"n": [0, 0, 0], "re": 0.0, "im": 0.0}],
           "[1].n: duplicate component (0, 0, 0)"),
          ("total-3", [{"n": [3, 0, 0], "re": 1.0, "im": 0.0}],
           "[0].n: total occupation 3 exceeds the cutoff 2"),
          ("two-entries", [{"n": [0, 0], "re": 1.0, "im": 0.0}], "[0].n: expected [nx, ny, nz]"),
          ("negative-nz", [{"n": [0, 0, -1], "re": 1.0, "im": 0.0}],
           "[0].n must be an integer >= 0, got -1"),
          ("im-missing", [{"n": [0, 0, 0], "re": 1.0}], "[0].im: missing"),
          ("re-nan", [{"n": [0, 0, 0], "re": math.nan, "im": 0.0}],
           "[0].re must be a finite real, got nan"),
          ("str", '"nope"', "top level: expected an array of components"),
          # an amplitude whose square overflows
          ("norm-inf", [{"n": [0, 0, 0], "re": 0.0, "im": 1.3407807929942597e154}],
           "target norm inf differs from 1 by more than 1e-6"),
      ]],
    *[reads(f"target-wraps-{name}", lambda path: load_target(path, Truncation(1)),
            [{"n": n, "re": 1.0, "im": 0.0}], f"[0].n: total occupation {sum(n)} exceeds the cutoff 1",
            TargetFormatError) for name, n in WRAPPING.items()],
]

# Placeholders in an argument vector or message: {schedule} is the row's
# schedule file, {target} its target file, {dir} an empty directory, {out} an
# output path and {absent} a path where no file is.
VERIFY = "verify --schedule {schedule} --target ghz"
SWEEP = "sweep --schedule {schedule} --target ghz --trials 1 --out {out}"
PARSED = "sweep --schedule {absent} --target ghz --out {out}"  # refused before the schedule is read
COMPILE_FILE = "compile --target file:{target} --jmax 2 --out {out}"
GHZ2 = "compile --target ghz --jmax 2"
TEN_TO_400 = 10**400  # a JSON integer past the float range
DEEP = "[" * 100_000 + "]" * 100_000  # nested past the JSON decoder's recursion limit
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
IS_A_DIR = "[Errno 21] Is a directory: '{dir}'"


def schedule_file(argv="compile --target ghz --jmax 4", edit=lambda doc: None):
    """The schedule ``ionsynth compile`` writes for ``argv``, after ``edit``."""
    return lambda compiled: json.dumps(edited(compiled(argv), edit))


CLI = [
    exits_2("compile-unknown-target", "compile --target nonesuch --jmax 2 --out {out}",
            "unknown target 'nonesuch'; pick one of ghz, corr, diag, or file:<path>"),
    exits_2("compile-diag-5", "compile --target diag --jmax 5 --out {out}",
            "the diagonal target needs j_max >= 12 (support up to |4,4,4>), got 5"),
    exits_2("compile-eps-pair", "compile --target ghz --eps 0.3,0.1 --out {out}",
            "argument --eps: expected three comma-separated values, got '0.3,0.1'"),
    exits_2("compile-eps-a,b,c", "compile --target ghz --eps a,b,c --out {out}",
            "argument --eps: bad Lamb-Dicke triple 'a,b,c'"),
    exits_2("sweep-missing", "sweep --schedule {absent} --target ghz --out {out}",
            "[Errno 2] No such file or directory: '{absent}'"),
    exits_2("frobnicate", "frobnicate", "argument command: invalid choice: 'frobnicate' (choose from "
            "'compile', 'verify', 'sweep', 'targets')"),
    exits_2("no-command", "", "the following arguments are required: command"),
    exits_2("compile-jmax-41", "compile --target corr --jmax 41 --out {out}",
            "j_max 41 exceeds the cap of 40"),
    # argparse takes "-inf" for an option, and refuses it as a missing value.
    *[exits_2(f"compile-{target}-alpha-{alpha}",
              f"compile --target {target} --jmax 3 --alpha {alpha} --out {{out}}", message)
      for target in ("ghz", "corr") for alpha, message in [
          ("nan", "alpha must be a finite real or complex number, got nan"),
          ("inf", "alpha must be a finite real or complex number, got inf"),
          ("-inf", "argument --alpha: expected one argument")]],
    exits_2("compile-corr-alpha-1000", "compile --target corr --alpha 1000 --jmax 4 --out {out}",
            "alpha=1000.0 is too large: the kept target amplitudes underflow"),
    exits_2("compile-ghz-alpha-40", "compile --target ghz --alpha 40 --out {out}",
            "alpha=40.0 is too large: the kept target amplitudes underflow"),
    # A Lamb-Dicke point past a Laguerre zero the program needs.
    *[exits_2(f"compile-uncoupled-{name}", f"compile --target corr {flags} --out {{out}}", message)
      for (name, _, _, message, _), flags in zip(UNCOUPLED, [
          "--eps 0.6,0.1,0.2 --jmax 12", "--eps 1.3,0.1,0.2 --jmax 4", "--eps-carrier 1.4142 --jmax 4",
          "--eps 1e200,0.1,0.2 --jmax 3"])],
    # A NaN tolerance once passed a corr schedule checked against ghz.
    *[exits_2(f"verify-tol-{tol}", f"{VERIFY} --tol {tol}", message,
              schedule_file("compile --target corr --jmax 4"))
      for tol, message in [*[(tol, f"argument --tol: tolerance must lie in [0, 1), got '{tol}'")
                             for tol in ("nan", "inf", "-1", "1", "2")],
                           ("-inf", "argument --tol: expected one argument"),
                           ("abc", "argument --tol: bad tolerance 'abc'")]],
    exits_2("verify-note-outside-cutoff", VERIFY,
            "pulses[0].note: total occupation 50 exceeds the cutoff 4",
            schedule_file(edit=lambda d: d["pulses"][0].update(note=[50, 0, 0, "a"]))),
    exits_2("verify-note-on-d", VERIFY, "pulses[0].note: level d is not coupled by channel H2",
            schedule_file(GHZ2, lambda d: d["pulses"][0].update(note=[0, 0, 0, "d"]))),
    exits_2("verify-jmax-41", VERIFY, "jmax: j_max 41 exceeds the cap of 40",
            schedule_file(GHZ2, lambda d: d.update(jmax=41))),
    exits_2("sweep-deevolution", "sweep --schedule {schedule} --target ghz --trials 2 --out {out}",
            "sweep needs a preparation schedule; this file holds a de-evolution program",
            schedule_file("compile --target ghz --jmax 3 --direction deevolution")),
    exits_2("sweep-seed--1", "sweep --schedule {schedule} --target ghz --trials 2 --seed -1 --out {out}",
            "seed must be an integer >= 0, got -1", schedule_file()),
    # Replay refuses, before any rotation, a length whose product with its
    # channel's largest |Omega| overflows.
    *[exits_2(f"{command}-x-omega-overflows", argv,
              "pulses[17]: length x times the largest |Omega| of channel H3 overflows",
              schedule_file(GHZ2, lambda d: d["pulses"][17].update(x=OVERFLOWING_X)))
      for command, argv in [("verify", VERIFY), ("sweep", f"{SWEEP} --delta-grid 0:0.01:1")]],
    # The sweep caps, refused before the schedule is read.
    exits_2("sweep-trials-cap", f"{PARSED} --trials 1000001",
            "--trials 1000001 exceeds the cap of 1000000"),
    *[exits_2(f"sweep-trials-{n}", f"{PARSED} --trials {n}", f"--trials must be an integer >= 1, got {n}")
      for n in ("0", "-3")],
    *[exits_2(f"sweep-grid-{grid}", f"{PARSED} --delta-grid={grid}", f"argument --delta-grid: {message}")
      for grid, message in [
          ("0:0.01:0", "grid count must be an integer >= 1, got 0"),
          ("0:0.01:10001", "grid count 10001 exceeds the cap of 10000"),
          ("0:0.01:99999999999", "grid count 99999999999 exceeds the cap of 10000"),
          ("0:inf:2", "grid step must be a finite non-negative real, got inf"),
          ("inf:0:1", "grid start must be a finite non-negative real, got inf"),
          ("nan:0.01:2", "grid start must be a finite non-negative real, got nan"),
          ("0:nan:3", "grid step must be a finite non-negative real, got nan"),
          ("-1:0.01:2", "grid start must be a finite non-negative real, got -1.0"),
          ("nan:-1:0", "grid count must be an integer >= 1, got 0"),
          ("1e308:1e308:3", "grid's last value 1e+308 + 1e+308 * 2 overflows"),
          ("0:1e308:3", "grid's last value 0 + 1e+308 * 2 overflows"),
          ("0:1", "expected start:step:count, got '0:1'"),
          ("a:0.1:3", "bad grid spec 'a:0.1:3'"),
          ("0:0.1:1.5", "bad grid spec '0:0.1:1.5'"),
      ]],
    # Files and paths the loaders or writers cannot use.
    exits_2("huge-x", VERIFY, f"pulses[1].x {NON_NEGATIVE_REAL} {TEN_TO_400}",
            schedule_file(edit=lambda d: d["pulses"][1].update(x=TEN_TO_400))),
    exits_2("huge-theta", VERIFY, f"pulses[1].theta must be a finite real, got {-TEN_TO_400}",
            schedule_file(edit=lambda d: d["pulses"][1].update(theta=-TEN_TO_400))),
    exits_2("huge-ex", VERIFY, f"lamb_dicke: eps_x {NON_NEGATIVE_REAL} {TEN_TO_400}",
            schedule_file(edit=lambda d: d["lamb_dicke"].update(ex=TEN_TO_400))),
    exits_2("int-past-digit-limit", VERIFY, "{schedule}: invalid JSON (Exceeds the limit (4300 digits) "
            "for integer string conversion: value has 5001 digits; use sys.set_int_max_str_digits() "
            "to increase the limit)", lambda compiled: schedule_file()(compiled).replace(
                '"version": 1', '"version": 1' + "0" * 5000)),
    exits_2("schedule-not-utf8", VERIFY, "{schedule}: invalid JSON ('utf-8' codec can't decode byte "
            "0xff in position 0: invalid start byte)",
            lambda compiled: b"\xff" + schedule_file()(compiled).encode()),
    exits_2("huge-re", COMPILE_FILE, f"[0].re must be a finite real, got {TEN_TO_400}",
            target=json.dumps([{"n": [0, 0, 0], "re": TEN_TO_400, "im": 0}])),
    exits_2("huge-im", COMPILE_FILE, f"[0].im must be a finite real, got {-TEN_TO_400}",
            target=json.dumps([{"n": [0, 0, 0], "re": 1, "im": -TEN_TO_400}])),
    exits_2("target-not-utf8", COMPILE_FILE, "{target}: invalid JSON ('utf-8' codec can't decode byte "
            "0xe9 in position 44: invalid continuation byte)",
            target=b'[{"n": [0, 0, 0], "re": 1, "im": 0, "tag": "\xe9"}]'),
    exits_2("target-norm-inf", COMPILE_FILE, "target norm inf differs from 1 by more than 1e-6",
            target=json.dumps([{"n": [0, 0, 0], "re": 0.0, "im": 1.3407807929942597e154}])),
    *[exits_2(f"{command}-deep-nesting", argv, f"{{schedule}}: invalid JSON ({TOO_DEEP})",
              lambda compiled: DEEP) for command, argv in [("verify", VERIFY), ("sweep", SWEEP)]],
    exits_2("compile-deep-nesting", COMPILE_FILE, f"{{target}}: invalid JSON ({TOO_DEEP})", target=DEEP),
    exits_2("schedule-is-dir", "verify --schedule {dir} --target ghz", IS_A_DIR),
    exits_2("compile-out-is-dir", "compile --target ghz --jmax 2 --out {dir}", IS_A_DIR),
    exits_2("sweep-out-is-dir", "sweep --schedule {schedule} --target ghz --trials 1 --out {dir}",
            IS_A_DIR, schedule_file()),
]


@pytest.mark.parametrize("call, kind, message", LIBRARY)
def test_library_refusal(call, kind, message, tmp_path):
    path = tmp_path / "file.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kind) as err:
            call(path)
    assert type(err.value) is kind
    assert str(err.value).replace(str(path), "{path}") == message


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The JSON document ``ionsynth compile`` writes for an argument vector, compiled once."""

    @lru_cache(maxsize=None)
    def compile(argv):
        path = tmp_path_factory.mktemp("compiled") / "s.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv.split(), "--out", str(path)]) == 0
        return json.loads(path.read_text())

    return compile


def tree(root):
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("argv, message, schedule, target", CLI)
def test_cli_refusal(argv, message, schedule, target, compiled, tmp_path, capsys):
    paths = {name: tmp_path / name for name in ("schedule", "target", "dir", "out", "absent")}
    paths["dir"].mkdir()
    for name, text in (("schedule", schedule and schedule(compiled)), ("target", target)):
        if text is not None:
            paths[name].write_bytes(text.encode() if isinstance(text, str) else text)
    before = tree(tmp_path)
    words = [word.format(**paths) for word in argv.split()]
    code = main(words)
    out, err = capsys.readouterr()
    for name, path in paths.items():
        err = err.replace(str(path), f"{{{name}}}")
    line = f"error: {message}\n"
    prog = " ".join(["ionsynth", *[word for word in words[:1] if word in ("compile", "verify", "sweep")]])
    assert (code, out) == (2, "")
    assert err == line or (err.startswith(f"usage: {prog}") and err.endswith(f"\n{prog}: {line}"))
    assert tree(tmp_path) == before


def test_the_watched_steps_run_on_good_input():
    """The names ``before_any_trial`` patches are the ones a trial calls."""
    target, prep = random_preparation()
    for call in (lambda: run_trials(target, prep, NoiseModel(0.01), 2, 1),
                 lambda: simulate_trial(target, prep, NoiseModel(0.01), np.random.default_rng(1))):
        with mock.patch.object(noise, "perturb", wraps=noise.perturb) as perturbed, \
                mock.patch.object(noise, "_replay", wraps=noise._replay) as replayed:
            call()
        assert perturbed.call_count >= 1 and replayed.call_count == 1


def readme_refusals():
    """The code spans in the third column of the README's argument table: the
    rows below its "| Argument |" header, where a cell escapes "|" as "\\|"."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("| Argument |")) + 2
    end = next(k for k in range(start, len(lines) + 1) if k == len(lines) or not lines[k].startswith("|"))
    cells = [re.split(r"(?<!\\)\|", row)[3] for row in lines[start:end]]
    return [span.replace("\\|", "|") for cell in cells for span in re.findall(r"`([^`]+)`", cell)]


def test_the_readme_quotes_only_messages_the_rows_expect():
    """Each refusal the README's table prints is the message of some row, with
    "error: " dropped for a command-line row."""
    expected = {param.values[2] for param in LIBRARY} | {param.values[1] for param in CLI}
    quoted = readme_refusals()
    assert len(quoted) >= 20
    assert [text for text in quoted if text.removeprefix("error: ") not in expected] == []
