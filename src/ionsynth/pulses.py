"""Pulses, schedules, and the exact pairwise propagator.

A pulse drives one channel for an interaction length x = |g|*tau at laser
phase theta.  On each coupled pair (u = lower component, v = upper component)
with Rabi frequency Omega the evolution is the exact two-level rotation

    u' = cos(x*Omega) * u - i * exp(+i*theta) * sin(x*Omega) * v
    v' = cos(x*Omega) * v - i * exp(-i*theta) * sin(x*Omega) * u

and the identity on untouched components.  Shifting theta by pi inverts a
pulse, which is what turns a de-evolution schedule into a preparation
schedule.  Past a zero of a Laguerre factor Omega is negative, which needs no
special case: cos is even and sin odd, so it rotates as |Omega| at theta + pi.

A schedule holds its program as columns, which replay, inversion, noise and
the file layer read directly; :class:`Pulse` objects are only views of them.

The closed-form solvers pick (x, theta) so that a pulse sends one chosen
amplitude of a pair exactly to zero, transferring its population to the
partner component.

A pair table holds few distinct Rabi frequencies (13 among the 455 carrier
pairs at J_max 12), so a rotation takes cos and sin of x*Omega once per
distinct Omega, as complex values, and gathers them onto the pairs
(:func:`_rotate`).  Replay casts them to complex in blocks (:func:`_trig`);
the compiler writes them through ``out=`` into the real parts of zeroed
complex buffers, which gives the cast's values.  The gathered values are bit
for bit those of evaluating every pair, since the same inputs pass through
the same ufunc, which gives each element the same bytes whatever array holds
it, and NumPy casts a real factor to complex before any complex product, so
casting first changes no bit.

Replay tracks the occupied-J frontier: the highest total quantum number J
that may hold a nonzero amplitude.  Every channel preserves J except the red
sideband H9, which links J to J-1, so a pulse can lift the frontier by at most
one, and only on H9.  Pairs whose lower-J end lies above the frontier hold two
exact zeros, which a rotation leaves at zero; replay rotates only the pair
table's ``upto[frontier]`` operands, and the amplitudes it returns are
value-identical to rotating every pair.  Those operands depend on the cutoff
alone, so each segment cuts the table's Omega column to the ``used`` entries
they name.  A preparation from the vacuum starts at frontier 0.

Replay runs one state, of shape (dim,) with pulse columns x and theta of
shape (n,), or K states, of shape (K, dim) with columns of shape (n, K) whose
column k drives state k.  Both go through one rotation body; the K states sit
in one flat array, gathered and scattered through (K, count) index arrays
offset by k*dim.  Each state of a batch gets the values of its own serial
replay: each pair value is the same elementwise operation on the same
inputs (cos and sin of the same x_k*Omega, the same phase factors).
A batch runs a pulse unless every state's length is zero, and its frontier is
the highest of the states' frontiers.  A state with length zero gets cos 1
and sin 0, and pairs above its own frontier hold exact zeros, so those
rotations leave its values unchanged up to the sign of a zero.

Replay knows every pulse before it starts, so it evaluates trig ahead of the
rotations rather than once per pulse.  The frontier of each pulse follows
from the positions of the lifting H9 pulses, which cut the program into
segments of one frontier; each segment runs in blocks of at most
``_TRIG_ENTRIES`` trig entries, and a block evaluates cos and sin once per
channel present, as one (m, K, distinct) array over its m pulses of that
channel.  Each pulse then gathers its own (K, distinct) row.  The bits are
those of evaluating per pulse: x*Omega is the same IEEE product whether
formed per pulse or as an outer product, and NumPy's cos and sin give every
element the value ``math.cos`` and ``math.sin`` give it, whatever array holds
it (the replay tests pin both against a per-pulse copy, byte for byte).  The
block's phase factors -i*exp(+-i*theta) come from one vectorised ``np.exp``
each, which gives the bits of ``cmath.exp`` on the same product.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from .channels import (
    CHANNELS,
    ChannelId,
    LambDickeParams,
    PairTable,
    _LEVELS,
    coupled_pairs,
    dense_hamiltonian,
)
from .fock import (
    Component, DomainError, Level, StateVector, Truncation, _integer, _integer_column, _layout,
    _real, _real_column, _shown, _total_j, index_of,
)

__all__ = [
    "Pulse",
    "Schedule",
    "Direction",
    "wrap_angle",
    "apply_pulse",
    "apply_schedule",
    "dagger_schedule",
    "solve_kill_lower",
    "solve_kill_upper",
    "oracle_apply",
]


def wrap_angle(theta: float) -> float:
    """Map an angle to the interval (-pi, pi]."""
    r = math.remainder(theta, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@dataclass(frozen=True, slots=True)
class Pulse:
    """One laser pulse: channel, interaction length x = |g|*tau >= 0, phase.

    The channel is given by its code (1-9) and kept as its :class:`ChannelId`.
    ``note`` records which component the pulse was solved to null; it is an
    audit annotation and does not influence the dynamics.
    """

    channel: ChannelId
    x: float
    theta: float
    note: Component | None = None

    def __post_init__(self) -> None:
        channel = _integer("pulse channel", self.channel, 1, len(ChannelId))
        object.__setattr__(self, "channel", ChannelId(channel))
        object.__setattr__(self, "x", _real("pulse length x", self.x, non_negative=True))
        object.__setattr__(self, "theta", wrap_angle(_real("pulse phase theta", self.theta)))


class Direction(str, Enum):
    DEEVOLUTION = "deevolution"
    PREPARATION = "preparation"


def _wrap_angles(theta: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` over an array, bit for bit: ``fmod`` is exact, and so
    is each shift by tau, of a value between pi and tau in magnitude (Sterbenz)."""
    w = np.fmod(theta, math.tau)
    w = np.where(w > math.pi, w - math.tau, w)
    return np.where(w <= -math.pi, w + math.tau, w)


_CHANNEL_OF_CODE = {int(cid): cid for cid in ChannelId}


def _note_components(note: Iterable[int], j_max: int) -> Iterator[Component | None]:
    """The basis component of each note index below cutoff ``j_max``, None for -1."""
    return map((*_layout(j_max).basis, None).__getitem__, note)


# The setter of each of Pulse's slots, in field order; it bypasses the frozen
# __setattr__.
_SLOT_SETTERS = tuple(Pulse.__dict__[f.name].__set__ for f in fields(Pulse))


class Schedule:
    """An ordered pulse program plus the metadata needed to replay it.

    The program is held as read-only columns, one entry per pulse: ``channel``
    (uint8 :class:`ChannelId` codes), ``x``, ``theta`` (float64) and ``note``
    (int32 basis index of the component the pulse nulls, -1 for none).  Both
    constructors validate the header and the columns in one place: channel
    codes (1-9) and note indices (-1 to dim - 1) by the integer rule
    (``fock._integer_column``), lengths and phases by :class:`Pulse`'s real
    rule (``fock._real_column``), a note by the levels its channel couples
    (``channels._LEVELS``); they wrap the phases into (-pi, pi].
    ``Schedule(pulses)`` indexes each note by ``fock.index_of``.  A schedule
    made from another's columns (inversion, noise, pruning) comes from
    :meth:`_derived`, under the other's header.  :attr:`pulses` gives
    :class:`Pulse` views back.
    """

    def __init__(
        self, pulses: Iterable[Pulse], lamb_dicke: LambDickeParams, truncation: Truncation,
        direction: Direction | str, target: str = "",
    ) -> None:
        p = list(pulses)
        self._set_header(lamb_dicke, truncation, direction, target)
        note = []
        for i, q in enumerate(p):
            try:
                note.append(-1 if q.note is None else index_of(q.note, truncation))
            except DomainError as exc:
                raise DomainError(f"pulses[{i}].note: {exc}") from None
        # Pulse has checked each channel, length and phase, so they go in as arrays.
        channel = np.fromiter((q.channel for q in p), np.uint8, len(p))
        x = np.fromiter((q.x for q in p), np.float64, len(p))
        theta = np.fromiter((q.theta for q in p), np.float64, len(p))
        self._set(channel, x, theta, np.array(note))

    @classmethod
    def from_columns(
        cls, channel: ArrayLike, x: ArrayLike, theta: ArrayLike, note: ArrayLike,
        lamb_dicke: LambDickeParams, truncation: Truncation, direction: Direction | str,
        target: str = "",
    ) -> Schedule:
        """Build a schedule from its columns; arrays of the right dtype are kept,
        not copied, and made read-only.  An error names the bad header field or
        the first bad pulse."""
        self = cls.__new__(cls)
        self._set_header(lamb_dicke, truncation, direction, target)
        self._set(channel, x, theta, note)
        return self

    def _derived(self, channel, x, theta, note, direction: Direction | None = None) -> Schedule:
        """A schedule of new columns under this one's header, in ``direction`` if given."""
        header = self.lamb_dicke, self.truncation, direction or self.direction, self.target
        return Schedule.from_columns(channel, x, theta, note, *header)

    def _set_header(self, lamb_dicke, truncation, direction, target) -> None:
        """Check and keep the header: a ``direction`` given by its value becomes
        the :class:`Direction` member."""
        if not isinstance(lamb_dicke, LambDickeParams):
            raise DomainError(f"lamb_dicke must be a LambDickeParams, got {_shown(lamb_dicke)}")
        if not isinstance(truncation, Truncation):
            raise DomainError(f"truncation must be a Truncation, got {_shown(truncation)}")
        try:
            direction = Direction(direction)
        except ValueError:
            raise DomainError(
                f"direction must be 'deevolution' or 'preparation', got {_shown(direction)}"
            ) from None
        if not isinstance(target, str):
            raise DomainError(f"target must be a str, got {_shown(target)}")
        self.lamb_dicke, self.truncation = lamb_dicke, truncation
        self.direction, self.target = direction, target

    def _set(self, channel, x, theta, note) -> None:
        """Check and keep the columns, against the header already kept."""
        try:  # a ragged column is refused by NumPy with a bare ValueError
            shape = np.shape(channel)
            one_length = shape == np.shape(x) == np.shape(theta) == np.shape(note)
        except ValueError:
            one_length = False
        if not (one_length and len(shape) == 1):
            raise DomainError("schedule columns must be 1-D and of one length")
        channel = _integer_column("pulses[{}].channel", channel, 1, len(ChannelId))
        x = _real_column("pulses[{}].x", x, non_negative=True)
        theta = _real_column("pulses[{}].theta", theta)
        note = _integer_column("pulses[{}].note", note, -1, self.truncation.dim - 1)
        channel, note = channel.astype(np.uint8, copy=False), note.astype(np.int32, copy=False)
        level = note % len(Level)
        lower, upper = _LEVELS.take(channel, axis=1)
        coupled = (lower == level) | (upper == level) | (note == -1)
        if not coupled.all():
            i = int(np.argmin(coupled))
            level, name = Level(level[i]).label, ChannelId(channel[i]).name
            raise DomainError(f"pulses[{i}].note: level {level} is not coupled by channel {name}")
        self.channel, self.x, self.theta, self.note = channel, x, _wrap_angles(theta), note
        for column in (self.channel, self.x, self.theta, self.note):
            column.flags.writeable = False

    @property
    def pulses(self) -> tuple[Pulse, ...]:
        """The program as :class:`Pulse` views, built on each access from the
        checked columns without checking them again."""
        views = tuple(map(object.__new__, repeat(Pulse, len(self))))
        channels = map(_CHANNEL_OF_CODE.__getitem__, self.channel.tolist())
        notes = _note_components(self.note.tolist(), self.truncation.j_max)
        columns = channels, self.x.tolist(), self.theta.tolist(), notes
        # One field of every view at a time, set in C through the slot's setter:
        # values that passed the checks and wrap once skip ``__post_init__``.
        for setter, values in zip(_SLOT_SETTERS, columns):
            deque(map(setter, views, values), maxlen=0)
        return views

    def __len__(self) -> int:
        return len(self.note)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            (self.lamb_dicke, self.truncation, self.direction, self.target)
            == (other.lamb_dicke, other.truncation, other.direction, other.target)
            and np.array_equal(self.channel, other.channel)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.theta, other.theta)
            and np.array_equal(self.note, other.note)
        )


@lru_cache(maxsize=256)
def _pair_table(cid: ChannelId, truncation: Truncation, ld: LambDickeParams) -> PairTable:
    return coupled_pairs(CHANNELS[cid], truncation, ld)[0]


# Trig entries that one replay block holds at most, in each of its cos and sin
# arrays: the block's pulses times K states times the widest distinct-Omega
# slice at its frontier (26 pulses for K = 2 at J_max 12).  Twice this, or
# phase factors held for the whole replay rather than per block, raised the
# peak resident memory of a J_max 12 Monte Carlo worker by 0.2-0.25 MB.
_TRIG_ENTRIES = 1 << 12


def _trig(x, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of ``x * omega``, cast to complex for :func:`_rotate`.

    ``x`` is a scalar, or an array whose last axis has length 1, one pulse
    length per leading index.
    """
    ang = x * omega
    return np.cos(ang).astype(np.complex128), np.sin(ang).astype(np.complex128)


def _phase_factors(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-i*exp(+i*theta) and -i*exp(-i*theta) elementwise, with the bits of the
    same ``cmath`` expression on each element."""
    return -1j * np.exp(1j * theta), -1j * np.exp(-1j * theta)


def _rotate(flat: np.ndarray, src: np.ndarray, dst: np.ndarray, c, s, plus, minus) -> None:
    """The rotation body: rotate the pairs (``flat[src]``, ``flat[dst]``) in place.

    ``c`` and ``s`` are the complex cos and sin of x*Omega, from :func:`_trig`
    or the compiler's buffers, gathered onto the pairs by the table's inverse.
    The phase factors ``plus`` = -i*exp(+i*theta) and ``minus`` =
    -i*exp(-i*theta) are scalars for one state, or (K, 1) columns for K states
    whose index arrays are (K, count).
    """
    u = flat[src]
    v = flat[dst]
    flat[src] = c * u + plus * (s * v)
    flat[dst] = c * v + minus * (s * u)


def _replay(
    amps: np.ndarray,
    truncation: Truncation,
    ld: LambDickeParams,
    channel: np.ndarray,
    x: np.ndarray,
    theta: np.ndarray,
) -> None:
    """Apply the pulses (channel code, x, theta) to ``amps`` in place: the replay kernel.

    ``amps`` is one state of shape (dim,) with ``x`` and ``theta`` of shape
    (n,), or K states of shape (K, dim) with columns of shape (n, K), column k
    driving state k.  A pulse runs unless its length is zero for every state,
    and it rotates only the pairs that reach the occupied-J frontier of the
    whole batch.  Trig is evaluated once per block of pulses and channel; see
    the module docstring for why all of this gives the serial values.
    """
    dim = truncation.dim
    flat = amps.reshape(-1)
    k = flat.size // dim
    live = np.flatnonzero(x.reshape(len(channel), k).any(axis=1))
    live_channel = channel[live]
    codes = live_channel.tolist()
    lengths = x[live].reshape(-1, k, 1)  # one (K, 1) column per pulse
    phases = theta[live].reshape(-1, k, 1)
    occupied = np.flatnonzero(flat.reshape(k, dim).any(axis=0))
    frontier = int(_total_j(occupied[-1], truncation)) if occupied.size else 0
    tables = {code: _pair_table(ChannelId(code), truncation, ld) for code in set(codes)}
    # Every x*Omega must be finite, or its cos and sin make the amplitudes NaN.
    peak = np.zeros(len(ChannelId) + 1)
    for code, table in tables.items():
        peak[code] = np.abs(table.omega_distinct).max(initial=0.0)
    with np.errstate(over="ignore"):
        finite = np.isfinite(lengths.reshape(-1, k) * peak[live_channel, np.newaxis]).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(
            f"pulses[{live[i]}]: length x times the largest |Omega| of channel "
            f"{ChannelId(codes[i]).name} overflows"
        )
    # The frontier rises after each lifting (H9) pulse until it reaches j_max,
    # so the segments of one frontier end after those pulses.
    lifts = (np.flatnonzero(live_channel == ChannelId.H9) + 1).tolist()
    trial = np.arange(k)[:, np.newaxis]
    start = 0
    for end in lifts[: truncation.j_max - frontier] + [len(codes)]:
        # Per channel, ``table.upto[frontier]`` as (K, count) index arrays:
        # pair ends into ``flat``, and the inverse into a pulse's (K, distinct) trig.
        operands = {}
        for code, table in tables.items():
            src, dst, inverse, used = table.upto[frontier]
            omega = table.omega_distinct[:used]
            operands[code] = src + dim * trial, dst + dim * trial, omega, inverse + used * trial
        width = max((omega.size for _, _, omega, _ in operands.values()), default=0)
        size = max(1, _TRIG_ENTRIES // max(1, k * width))
        for first in range(start, end, size):
            last = min(first + size, end)
            rows: dict[int, list[int]] = {}
            for i in range(first, last):
                rows.setdefault(codes[i], []).append(i)
            # One (m, K, distinct) cos and sin per channel in the block,
            # handed out a (K, distinct) row per pulse in pulse order.
            trig = {code: zip(*_trig(lengths[r], operands[code][2])) for code, r in rows.items()}
            plus, minus = _phase_factors(phases[first:last])
            if k == 1:  # Python scalars broadcast faster than (1, 1) columns
                plus, minus = plus.ravel().tolist(), minus.ravel().tolist()
            for code, p, m in zip(codes[first:last], plus, minus):
                c, s = next(trig[code])
                src, dst, _, inverse = operands[code]
                _rotate(flat, src, dst, c.take(inverse), s.take(inverse), p, m)
        start = end
        frontier += 1


def apply_pulse(
    state: StateVector, pulse: Pulse, ld: LambDickeParams = LambDickeParams()
) -> StateVector:
    """Apply one pulse exactly; returns a new state, norm preserved."""
    out = StateVector(state.amplitudes, state.truncation)
    columns = np.array([pulse.channel]), np.array([pulse.x]), np.array([pulse.theta])
    _replay(out.amplitudes, state.truncation, ld, *columns)
    return out


def apply_schedule(state: StateVector, schedule: Schedule) -> StateVector:
    """Apply every pulse of ``schedule`` in order."""
    if schedule.truncation != state.truncation:
        raise DomainError(
            f"schedule truncation j_max={schedule.truncation.j_max} does not match "
            f"state truncation j_max={state.truncation.j_max}"
        )
    out = StateVector(state.amplitudes, state.truncation)
    columns = schedule.channel, schedule.x, schedule.theta
    _replay(out.amplitudes, schedule.truncation, schedule.lamb_dicke, *columns)
    return out


def dagger_schedule(schedule: Schedule) -> Schedule:
    """Exact inverse program: reversed order, every phase shifted by pi."""
    flipped = (
        Direction.PREPARATION
        if schedule.direction is Direction.DEEVOLUTION
        else Direction.DEEVOLUTION
    )
    columns = schedule.channel, schedule.x, schedule.theta + math.pi, schedule.note
    return schedule._derived(*(column[::-1] for column in columns), flipped)


def _solve_kill(q_lower: complex, q_upper: complex, omega: float, kill_upper: bool):
    """Both solvers' body, which the compiler calls directly."""
    if not omega > 0.0:  # a NaN omega is refused too
        raise DomainError(f"omega must be positive, got {_shown(omega)}")
    killed, kept, shift = (q_upper, q_lower, 0.5) if kill_upper else (q_lower, q_upper, -0.5)
    if killed == 0:
        return 0.0, 0.0
    theta = wrap_angle(cmath.phase(q_lower) - cmath.phase(q_upper) + shift * math.pi)
    return math.atan2(abs(killed), abs(kept)) / omega, theta


def solve_kill_lower(q_lower: complex, q_upper: complex, omega: float) -> tuple[float, float]:
    """Pulse parameters (x, theta) that null the lower amplitude of a pair.

    The returned angles satisfy the transfer condition
    i*exp(-i*theta)*q_lower*cos(x*omega) + q_upper*sin(x*omega) = 0
    with x*omega in [0, pi/2].  A zero lower amplitude needs no pulse: (0, 0).
    """
    return _solve_kill(q_lower, q_upper, omega, False)


def solve_kill_upper(q_lower: complex, q_upper: complex, omega: float) -> tuple[float, float]:
    """Pulse parameters (x, theta) that null the upper amplitude of a pair.

    The returned angles satisfy the transfer condition
    i*exp(i*theta)*q_upper*cos(x*omega) + q_lower*sin(x*omega) = 0
    with x*omega in [0, pi/2].  A zero upper amplitude needs no pulse: (0, 0).
    """
    return _solve_kill(q_lower, q_upper, omega, True)


def oracle_apply(
    state: StateVector, pulse: Pulse, ld: LambDickeParams = LambDickeParams()
) -> StateVector:
    """Reference propagator: exp(-i*x*H) via dense Hermitian eigendecomposition.

    Slow but structurally independent of the pairwise fast path; used to
    cross-check :func:`apply_pulse`.
    """
    h = dense_hamiltonian(CHANNELS[pulse.channel], pulse.theta, state.truncation, ld)
    w, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * pulse.x * w)
    out = vecs @ (phases * (vecs.conj().T @ state.amplitudes))
    return StateVector(out, state.truncation)
