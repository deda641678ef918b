"""Compiler from a target vibrational state to an explicit pulse program.

The compiler works backwards ("de-evolution"): starting from the target (on any
level but one block, see ``deevolve``) it empties one total-quantum-number
subspace after another, walking population down to the motional ground state.
Reversing the emitted program and shifting every phase by pi yields the
preparation schedule that builds the target out of the vacuum.

Within one subspace of total J the moves are organized in ladders over rows of
fixed nx:

* a *collect* ladder alternates exchange and carrier kills along a row,
  concentrating the row's population of the two addressed levels in the
  ny-maximal component;
* a *merge* pulse pushes a concentrated row into the next row up in nx;
* before each merge, the destination row is collected on the next level pair
  so the merge cannot scatter population backwards.

The program's shape is data: each builder takes only ``(J[, nx])`` and yields
steps ``(channel, occupation, kill_upper)``, and ``plan(j_max)`` chains them
into the whole de-evolution, fixed by the cutoff alone as a hardware sequence
is fixed before the state is known.  ``_plan_columns(j_max)`` turns the plan,
once per cutoff, into read-only index columns: the channel code, the basis
index of each step's lower-level component, its partner and Omega rank as
``channels._pairs`` computes them (-1 for no pair), its note, the stage J it
rotates up to, and ``kill_upper``.  The one numeric pass over such columns,
``_solve_columns``, reads only the point's Omega and the amplitudes.  Per
channel it gathers each step's Rabi frequency by rank, refusing before any
rotation a step whose Omega is not positive (the one place a pair is
refused); then it loops over plain Python lists, solving and applying each
step against the working amplitudes to collect the x and theta columns.
``deevolve`` hands them and the notes to ``Schedule.from_columns``.  A step
on zero amplitudes still yields an explicit x=0 pulse.  ``run_steps`` runs a
builder's steps through the same columns and pass.

Applying a pulse solved at an occupation of total J rotates only the pairs of
its channel whose lower-J end is <= J (the stage frontier): the operands its
pair table keeps in ``upto[J]``, which depend on the cutoff alone.  A pass
cuts the table's Omega column to the entries those operands use once per
channel and stage, before its first step.  Amplitudes the skipped pairs hold
go stale (they differ from a full-table rotation), but no later solve reads
them.  The invariant is: when stage J starts, every amplitude at total J or
below is exact.

* ``build_U_abc(J)`` and ``build_U_bcd(J-1)`` use J-preserving channels and
  solve at J and J-1, rotating every pair at or below the solved J, so what
  they read and write there stays exact.  They leave stale values above J,
  and at J on levels b, c, d only: ``build_U_bcd``'s channels never touch
  level a.
* ``bridge(J)`` on the red sideband H9 reads (J; a) and (J-1; b), both exact.
  H9 links (J'; a) with (J'-1; b), so of the pairs it rotates only
  (J+1; a) <-> (J; b) has a stale end, and its outputs stay at J and above.
* Stage J-1 therefore starts with every amplitude at J-1 or below exact, and
  by induction so does the final read of the vacuum amplitude.

So ``deevolve`` emits bit for bit the pulses and residual it would emit if
every pulse rotated its channel's full pair table.  A standalone builder's
steps, run through ``run_steps``, likewise leave pairs above the solved J
unrotated: amplitudes at or below it match a full-table rotation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .channels import CHANNELS, ChannelId, LambDickeParams, _LEVELS, _pairs
from .fock import (
    J_MAX_CAP,
    Component,
    DomainError,
    Level,
    Occupation,
    StateVector,
    Truncation,
    _flag_column,
    _index_column,
    _integer,
    _integer_column,
    _layout,
    _target_norm,
    component_of,
)
from .pulses import (
    Direction,
    Schedule,
    _note_components,
    _pair_table,
    _rotate,
    _solve_kill,
    dagger_schedule,
)

__all__ = [
    "CompileResult",
    "build_A",
    "build_B",
    "build_C",
    "build_U_abc",
    "build_U_bcd",
    "bridge",
    "plan",
    "run_steps",
    "deevolve",
    "pulse_count_model",
]

# Solve a channel at an occupation of its lower level, nulling the pair's
# upper end if kill_upper, else its lower end.
Step = tuple[ChannelId, Occupation, bool]


@dataclass(frozen=True)
class CompileResult:
    """Both directions of a compiled program plus how well it closed."""

    deevolution: Schedule
    preparation: Schedule
    final_residual: float
    pulse_count: int


class _StepColumns(NamedTuple):
    """Steps as read-only columns, one entry per step, none depending on the
    Lamb-Dicke point.  ``groups`` pairs each channel code present, ascending,
    with the positions of its steps."""

    channel: np.ndarray  # uint8 ChannelId codes
    # src as fock._index_column, dst and rank as channels._pairs compute them
    src: np.ndarray  # basis index of the solved occupation on the channel's lower level
    dst: np.ndarray  # int32 basis index of its partner on the upper level, -1 for no pair
    rank: np.ndarray  # int32 index of its Omega in the table's omega_distinct, -1 for no pair
    note: np.ndarray  # int32 basis index the step nulls: dst if kill_upper, else src
    stage: np.ndarray  # its total J: the stage frontier the step rotates up to
    kill_upper: np.ndarray  # bool
    groups: tuple[tuple[int, np.ndarray], ...]


def _step_columns(steps: Iterable[Step], truncation: Truncation) -> _StepColumns:
    """Index columns of ``steps``, whose channels, occupations and ``kill_upper`` go through
    ``fock._integer_column``, ``_index_column`` and ``_flag_column``, named by step."""
    codes: list[int] = []
    quanta: list[int] = []
    kills: list[bool] = []
    for k, (cid, occupation, kill_upper) in enumerate(steps):  # one step object alive at a time
        try:
            nx, ny, nz = occupation
        except (TypeError, ValueError):
            raise DomainError(f"step {k} occupation must hold 3 entries") from None
        codes.append(cid)
        quanta += nx, ny, nz
        kills.append(kill_upper)
    channel = _integer_column("step {} channel", codes, 1, len(ChannelId)).astype(np.uint8)
    src = _index_column("step {} ", quanta, _LEVELS[0, channel], truncation.j_max)
    kill_upper = _flag_column("step {} kill_upper", kills)
    occ = _layout(truncation.j_max).occ[:, src // len(Level)]
    stage = occ.sum(axis=0)
    groups = tuple(
        (code, np.flatnonzero(channel == code)) for code in sorted(set(channel.tolist()))
    )
    dst, rank = np.empty((2, channel.size), dtype=np.int32)
    for code, where in groups:
        _, dst[where], rank[where] = _pairs(CHANNELS[ChannelId(code)], occ[:, where])
    note = np.where(kill_upper, dst, src).astype(np.int32)
    for column in (channel, src, dst, rank, note, stage, kill_upper, *(w for _, w in groups)):
        column.flags.writeable = False
    return _StepColumns(channel, src, dst, rank, note, stage, kill_upper, groups)


@lru_cache(maxsize=32)
def _plan_columns(j_max: int) -> _StepColumns:
    """:func:`plan` as step columns, built once per cutoff."""
    return _step_columns(plan(j_max), Truncation(j_max))


def _solve_columns(
    work: StateVector, steps: _StepColumns, ld: LambDickeParams
) -> tuple[list[float], list[float]]:
    """The numeric pass: solve and apply each step in order on ``work``.

    Returns the x and theta columns.  Omega is gathered by rank once per
    channel, before any rotation, so the first step whose Omega is not
    positive (0 where the step has no pair) raises :class:`DomainError` with
    ``work`` untouched.  A pulse of nonzero length rotates its channel's
    pairs up to the step's stage frontier (see the module docstring).  Its
    cos and sin go through ``out=`` into the real parts of the channel's two
    zeroed complex buffers, made once per pass as wide as its widest stage:
    the values :func:`pulses._trig`'s cast gives, with no cast or temporary.
    """
    truncation = work.truncation
    omega = np.empty(steps.src.size)
    operands = {}  # per channel and stage J, the rotation operands cut to the stage frontier
    for code, where in steps.groups:
        table = _pair_table(ChannelId(code), truncation, ld)
        distinct = table.omega_distinct
        omega[where] = np.append(distinct, 0.0)[steps.rank[where]]  # -1 reads the 0
        width = table.upto[-1][3]
        ang, c, s = np.empty(width), np.zeros(width, complex), np.zeros(width, complex)
        operands[code] = [
            (src, dst, distinct[:used], inv, ang[:used], c[:used], s[:used], c.real[:used],
             s.real[:used])
            for src, dst, inv, used in table.upto
        ]
    refused = ~(omega > 0.0)
    if refused.any():
        step = int(np.argmax(refused))
        occ = tuple(component_of(int(steps.src[step]), truncation).occ)
        raise DomainError(
            f"channel {ChannelId(int(steps.channel[step])).name} has no coupled pair at "
            f"occupation {occ} for {ld!r}: its Rabi frequency {omega[step]:.6g} is not "
            "positive (the Lamb-Dicke point is at or past a zero of its Laguerre factor)"
        )
    amps = work.amplitudes
    amplitude = amps.item  # a Python complex, as complex(amps[i]) gives
    xs: list[float] = []
    thetas: list[float] = []
    columns = (
        steps.channel.tolist(), steps.src.tolist(), steps.dst.tolist(), omega.tolist(),
        steps.stage.tolist(), steps.kill_upper.tolist(),
    )
    for code, src, dst, w, stage, kill_upper in zip(*columns):
        x, theta = _solve_kill(amplitude(src), amplitude(dst), w, kill_upper)
        xs.append(x)
        thetas.append(theta)
        if x != 0.0:
            ends_lower, ends_upper, distinct, inverse, ang, c, s, cos, sin = operands[code][stage]
            np.multiply(x, distinct, out=ang)
            np.cos(ang, out=cos)
            np.sin(ang, out=sin)
            plus, minus = -1j * cmath.exp(1j * theta), -1j * cmath.exp(-1j * theta)
            # Indexing, not ``take``: take copies an index array that is read-only.
            _rotate(amps, ends_lower, ends_upper, c[inverse], s[inverse], plus, minus)
    return xs, thetas


def run_steps(
    work: StateVector, steps: Iterable[Step], ld: LambDickeParams
) -> list[tuple[ChannelId, float, float, Component]]:
    """Solve and apply builder steps in order on ``work``; returns the pulses
    as (channel, x, theta, note) rows.

    The steps go through the same step columns and numeric pass as
    :func:`deevolve`'s cached plan.  The solvers return Python floats with
    theta already in (-pi, pi], so the rows need no conversion.
    """
    columns = _step_columns(steps, work.truncation)
    xs, thetas = _solve_columns(work, columns, ld)
    notes = _note_components(columns.note.tolist(), work.truncation.j_max)
    return list(zip(map(ChannelId, columns.channel.tolist()), xs, thetas, notes))


def _collect_row(j: int, n_x: int, exchange: ChannelId, carrier: ChannelId, lead: bool) -> Iterator[Step]:
    """Concentrate a row's population of the channel pair's two levels.

    The ladder kills the lower-level component at ny, then the upper-level
    component at ny+1, walking ny upward; everything ends in the lower-level
    component at (n_x, j-n_x, 0).  With ``lead`` an initial carrier kill also
    folds in the upper-level component at ny=0, which the ladder itself never
    visits.
    """
    if lead:
        yield carrier, Occupation(n_x, 0, j - n_x), True
    for n_y in range(j - n_x):
        n_z = j - n_x - n_y
        yield exchange, Occupation(n_x, n_y, n_z), False
        yield carrier, Occupation(n_x, n_y + 1, n_z - 1), True


def build_A(j: int, n_x: int) -> Iterator[Step]:
    """Collect row n_x of subspace J on levels (a, b) into (n_x, J-n_x, 0; a)."""
    return _collect_row(j, n_x, ChannelId.H1, ChannelId.H2, lead=False)


def build_B(j: int, n_x: int) -> Iterator[Step]:
    """Collect row n_x of subspace J on levels (b, c) into (n_x, J-n_x, 0; b).

    Starts with a carrier kill of (n_x, 0, J-n_x; c) so arbitrary level-c
    population is folded in before the exchange/carrier ladder runs.
    """
    return _collect_row(j, n_x, ChannelId.H3, ChannelId.H4, lead=True)


def _collect_row_cd(j: int, n_x: int) -> Iterator[Step]:
    # build_B shifted one level up: collects (c, d) into (n_x, j-n_x, 0; c).
    return _collect_row(j, n_x, ChannelId.H7, ChannelId.H6, lead=True)


def build_C(j: int, n_x: int) -> Iterator[Step]:
    """Merge the collected row n_x into row n_x+1: one exchange pulse nulling
    (n_x, J-n_x, 0; a) into (n_x+1, J-n_x-1, 0; b)."""
    yield ChannelId.H5, Occupation(n_x, j - n_x, 0), False


def build_U_abc(j: int) -> Iterator[Step]:
    """Concentrate all population of subspace J on levels {a, b, c} at (J, 0, 0; a).

    Requires level d of the subspace to be clear.  For J = 0 this degenerates
    to the single final carrier pulse b -> a.
    """
    if j >= 1:
        yield from build_B(j, 0)
    for n_x in range(j):
        yield from build_A(j, n_x)
        yield from build_B(j, n_x + 1)
        yield from build_C(j, n_x)
    yield ChannelId.H2, Occupation(j, 0, 0), True


def build_U_bcd(j: int) -> Iterator[Step]:
    """Concentrate all population of subspace J on levels {b, c, d} at (J, 0, 0; b).

    Level-shifted analog of :func:`build_U_abc` (a->b, b->c, c->d, with the
    merge running on the x-exchange between levels b and c); level a is never
    touched.
    """
    yield from _collect_row_cd(j, 0)
    for n_x in range(j):
        yield from build_B(j, n_x)
        yield from _collect_row_cd(j, n_x + 1)
        yield ChannelId.H8, Occupation(n_x, j - n_x, 0), False
    yield from build_B(j, j)


def bridge(j: int) -> tuple[Step]:
    """One red-sideband pulse nulling (J, 0, 0; a) into (J-1, 0, 0; b); J is an integer >= 1."""
    return ((ChannelId.H9, Occupation(_integer("bridge J", j, 1), 0, 0), False),)


def plan(j_max: int) -> Iterator[Step]:
    """Every step of the de-evolution at cutoff ``j_max``, stage by stage."""
    for j in range(j_max, 0, -1):
        yield from build_U_abc(j)
        yield from build_U_bcd(j - 1)
        yield from bridge(j)
    yield from build_U_abc(0)


def deevolve(
    target: StateVector,
    ld: LambDickeParams = LambDickeParams(),
    description: str = "",
) -> CompileResult:
    """Compile the pulse program that walks ``target`` to vacuum.

    Returns the de-evolution schedule, its exact inverse (the preparation
    schedule), the residual population left outside the ground state, and the
    emitted pulse count.  The program shape depends only on the truncation;
    amplitudes only determine the solved (x, theta) values.  The target may hold
    any level but the one block no stage empties: level d at J = j_max, or c and d
    at j_max 0 (a single H2 pulse).  Weight there raises DomainError; j_max + 1 clears it.
    """
    j = target.truncation.j_max
    top = target.amplitudes.reshape(-1, len(Level))[_layout(j).occ.sum(axis=0) == j]
    if float(np.sum(np.abs(top[:, Level.D if j else Level.C:]) ** 2)) > 1e-24:
        fix = f"compiling at j_max {j + 1} empties it" if j < J_MAX_CAP else f"j_max {j} is the cap"
        raise DomainError(f"target has weight on (J={j}; {'d' if j else 'c, d'}), which the plan "
                          f"at j_max {j} cannot empty; {fix}")
    work = StateVector(target.amplitudes / _target_norm(target), target.truncation)
    steps = _plan_columns(target.truncation.j_max)
    xs, thetas = _solve_columns(work, steps, ld)
    residual = 1.0 - abs(work.amplitudes[0]) ** 2
    deevolution = Schedule.from_columns(  # arrays, which it checks whole without a type scan
        steps.channel, np.array(xs), np.array(thetas), steps.note, ld, target.truncation,
        Direction.DEEVOLUTION, description,
    )
    return CompileResult(
        deevolution=deevolution,
        preparation=dagger_schedule(deevolution),
        final_residual=max(0.0, float(residual)),
        pulse_count=len(xs),
    )


def pulse_count_model(j_max: int) -> int:
    """Emitted pulse count at ``j_max``: the length of :func:`plan`, which
    needs no target, in closed form.  Grows as the cube of ``j_max``."""
    j = _integer("j_max", j_max, 0)
    return j * (8 * j * j + 27 * j + 31) // 6 + 1
