"""Pulses, schedules, and the exact pairwise propagator.

A pulse drives one channel for an interaction length x = |g|*tau at laser
phase theta.  On each coupled pair (u = lower component, v = upper component)
with Rabi frequency Omega the evolution is the exact two-level rotation

    u' = cos(x*Omega) * u - i * exp(+i*theta) * sin(x*Omega) * v
    v' = cos(x*Omega) * v - i * exp(-i*theta) * sin(x*Omega) * u

and the identity on untouched components.  Shifting theta by pi inverts a
pulse, which is what turns a de-evolution schedule into a preparation
schedule.

A schedule holds its program as columns, which replay, inversion, noise and
the file layer read directly; :class:`Pulse` objects are only views of them.

The closed-form solvers pick (x, theta) so that a pulse sends one chosen
amplitude of a pair exactly to zero, transferring its population to the
partner component.

A pair table holds few distinct Rabi frequencies (13 among the 455 carrier
pairs at J_max 12), so a rotation takes cos and sin of x*Omega once per
distinct Omega (:func:`_trig`), casts them to complex and gathers them onto
the pairs (:func:`_rotate`).  The gathered values are bit for bit those of
evaluating every pair, since the same inputs pass through the same contiguous
ufunc, and NumPy casts a real factor to complex before any complex product, so
casting first changes no bit.

Replay tracks the occupied-J frontier: the highest total quantum number J
that may hold a nonzero amplitude.  Every channel preserves J except the red
sideband H9, which links J to J-1, so a pulse can lift the frontier by at most
one, and only on H9.  Pairs whose lower-J end lies above the frontier hold two
exact zeros, which a rotation leaves at zero; replay rotates only the pair
table's ``upto[frontier]`` operands, and the amplitudes it returns are
value-identical to rotating every pair.  A preparation from the vacuum starts
at frontier 0.

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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from .channels import (
    CHANNELS,
    ChannelId,
    LambDickeParams,
    PairTable,
    coupled_pairs,
    dense_hamiltonian,
)
from .fock import Component, DomainError, Level, StateVector, Truncation, _layout, _total_j

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


@dataclass(frozen=True)
class Pulse:
    """One laser pulse: channel, interaction length x = |g|*tau >= 0, phase.

    ``note`` records which component the pulse was solved to null; it is an
    audit annotation and does not influence the dynamics.
    """

    channel: ChannelId
    x: float
    theta: float
    note: Component | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.x) or self.x < 0:
            raise DomainError(f"pulse length x must be finite and >= 0, got {self.x!r}")
        if not math.isfinite(self.theta):
            raise DomainError(f"pulse phase theta must be finite, got {self.theta!r}")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))


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
# Whether channel code c couples level l, as _COUPLES[c, l].
_COUPLES = np.zeros((len(ChannelId) + 1, len(Level)), dtype=bool)
for _spec in CHANNELS.values():
    _COUPLES[_spec.cid, [_spec.lower_level, _spec.upper_level]] = True


def _outside(column: np.ndarray, low: int, high: int) -> np.ndarray:
    """Which entries are not integers in [low, high], found before narrowing."""
    if column.dtype.kind not in "iu":  # float, bool or object: entry by entry
        return np.array([type(v) is not int or not low <= v <= high for v in column.tolist()], bool)
    return (column < low) | (column > high)


def _note_components(note: Iterable[int], j_max: int) -> Iterator[Component | None]:
    """The basis component of each note index below cutoff ``j_max``, None for -1."""
    return map((*_layout(j_max).basis, None).__getitem__, note)


def _pulse_view(channel: ChannelId, x: float, theta: float, note: Component | None) -> Pulse:
    """A :class:`Pulse` of values that already passed its checks and wrap:
    the fields are set directly, so ``__post_init__`` does not run again."""
    pulse = object.__new__(Pulse)
    fields = pulse.__dict__
    fields["channel"], fields["x"], fields["theta"], fields["note"] = channel, x, theta, note
    return pulse


class Schedule:
    """An ordered pulse program plus the metadata needed to replay it.

    The program is held as read-only columns, one entry per pulse: ``channel``
    (uint8 :class:`ChannelId` codes), ``x``, ``theta`` (float64) and ``note``
    (int32 basis index of the component the pulse nulls, -1 for none).  Both
    constructors validate the columns, a note against the cutoff and the levels
    its channel couples, and wrap the phases into (-pi, pi] in one place;
    :attr:`pulses` gives :class:`Pulse` views back.
    """

    def __init__(
        self, pulses: Iterable[Pulse], lamb_dicke: LambDickeParams, truncation: Truncation,
        direction: Direction, target: str = "",
    ) -> None:
        p = list(pulses)
        index = _layout(truncation.j_max).index  # a note outside gets dim, refused by _set
        note = [-1 if q.note is None else index.get(q.note, truncation.dim) for q in p]
        columns = [q.channel for q in p], [q.x for q in p], [q.theta for q in p], note
        self._set(*columns, lamb_dicke, truncation, direction, target)

    @classmethod
    def from_columns(
        cls, channel: ArrayLike, x: ArrayLike, theta: ArrayLike, note: ArrayLike,
        lamb_dicke: LambDickeParams, truncation: Truncation, direction: Direction, target: str = "",
    ) -> Schedule:
        """Build a schedule from its columns; arrays of the right dtype are kept,
        not copied, and made read-only.  An error names the first bad pulse."""
        self = cls.__new__(cls)
        self._set(channel, x, theta, note, lamb_dicke, truncation, direction, target)
        return self

    def _set(self, channel, x, theta, note, lamb_dicke, truncation, direction, target) -> None:
        channel, note = np.asarray(channel), np.asarray(note)
        x = np.asarray(x, dtype=np.float64)
        theta = np.asarray(theta, dtype=np.float64)
        if channel.ndim != 1 or not channel.shape == x.shape == theta.shape == note.shape:
            raise DomainError("schedule columns must be 1-D and of one length")
        dim = truncation.dim
        for name, column, bad, rule in (
            ("channel", channel, _outside(channel, 1, len(ChannelId)), "unknown channel code"),
            ("x", x, ~(np.isfinite(x) & (x >= 0.0)), "pulse length must be finite and >= 0"),
            ("theta", theta, ~np.isfinite(theta), "pulse phase must be finite"),
            ("note", note, _outside(note, -1, dim - 1), f"basis index must be -1 or in [0, {dim})"),
        ):
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise DomainError(f"pulses[{i}].{name}: {rule}, got {column.tolist()[i]!r}")
        channel, note = channel.astype(np.uint8, copy=False), note.astype(np.int32, copy=False)
        # _COUPLES[channel, level of note] as one flat lookup, faster than 2-D.
        coupled = _COUPLES.take(len(Level) * channel + (note & 3)) | (note == -1)
        if not coupled.all():
            i = int(np.argmin(coupled))
            level, name = Level(note[i] & 3).label, ChannelId(channel[i]).name
            raise DomainError(f"pulses[{i}].note: level {level} is not coupled by channel {name}")
        self.channel, self.x, self.theta, self.note = channel, x, _wrap_angles(theta), note
        for column in (self.channel, self.x, self.theta, self.note):
            column.flags.writeable = False
        self.lamb_dicke, self.truncation = lamb_dicke, truncation
        self.direction, self.target = direction, target

    @property
    def pulses(self) -> tuple[Pulse, ...]:
        """The program as :class:`Pulse` views, built on each access from the
        checked columns without checking them again."""
        channels = map(_CHANNEL_OF_CODE.__getitem__, self.channel.tolist())
        notes = _note_components(self.note.tolist(), self.truncation.j_max)
        return tuple(map(_pulse_view, channels, self.x.tolist(), self.theta.tolist(), notes))

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

    ``c`` and ``s`` are :func:`_trig`'s cos and sin gathered onto the pairs by
    the table's inverse.  The phase factors ``plus`` = -i*exp(+i*theta) and
    ``minus`` = -i*exp(-i*theta) are scalars for one state, or (K, 1) columns
    for K states whose index arrays are (K, count).
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
    # The frontier rises after each lifting pulse until it reaches j_max, so
    # the segments of one frontier end after those pulses.
    lifts = sorted(
        i + 1 for code, table in tables.items() if table.lift
        for i in np.flatnonzero(live_channel == code).tolist()
    )
    trial = np.arange(k)[:, np.newaxis]
    start = 0
    for end in lifts[: truncation.j_max - frontier] + [len(codes)]:
        # Per channel, ``table.upto[frontier]`` as (K, count) index arrays:
        # pair ends into ``flat``, and the inverse into a pulse's (K, distinct) trig.
        operands = {}
        for code, table in tables.items():
            src, dst, omega, inverse = table.upto[frontier]
            operands[code] = src + dim * trial, dst + dim * trial, omega, inverse + omega.size * trial
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
    amps = state.amplitudes.copy()
    columns = np.array([pulse.channel]), np.array([pulse.x]), np.array([pulse.theta])
    _replay(amps, state.truncation, ld, *columns)
    return StateVector._wrap(amps, state.truncation)


def apply_schedule(state: StateVector, schedule: Schedule) -> StateVector:
    """Apply every pulse of ``schedule`` in order."""
    if schedule.truncation != state.truncation:
        raise DomainError(
            f"schedule truncation j_max={schedule.truncation.j_max} does not match "
            f"state truncation j_max={state.truncation.j_max}"
        )
    amps = state.amplitudes.copy()
    columns = schedule.channel, schedule.x, schedule.theta
    _replay(amps, schedule.truncation, schedule.lamb_dicke, *columns)
    return StateVector._wrap(amps, state.truncation)


def dagger_schedule(schedule: Schedule) -> Schedule:
    """Exact inverse program: reversed order, every phase shifted by pi."""
    flipped = (
        Direction.PREPARATION
        if schedule.direction is Direction.DEEVOLUTION
        else Direction.DEEVOLUTION
    )
    return Schedule.from_columns(
        schedule.channel[::-1], schedule.x[::-1], schedule.theta[::-1] + math.pi, schedule.note[::-1],
        schedule.lamb_dicke, schedule.truncation, flipped, schedule.target,
    )


def solve_kill_lower(q_lower: complex, q_upper: complex, omega: float) -> tuple[float, float]:
    """Pulse parameters (x, theta) that null the lower amplitude of a pair.

    The returned angles satisfy the transfer condition
    i*exp(-i*theta)*q_lower*cos(x*omega) + q_upper*sin(x*omega) = 0
    with x*omega in [0, pi/2].  A zero lower amplitude needs no pulse: (0, 0).
    """
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega!r}")
    if q_lower == 0:
        return 0.0, 0.0
    theta = wrap_angle(cmath.phase(q_lower) - cmath.phase(q_upper) - 0.5 * math.pi)
    return math.atan2(abs(q_lower), abs(q_upper)) / omega, theta


def solve_kill_upper(q_lower: complex, q_upper: complex, omega: float) -> tuple[float, float]:
    """Pulse parameters (x, theta) that null the upper amplitude of a pair.

    The returned angles satisfy the transfer condition
    i*exp(i*theta)*q_upper*cos(x*omega) + q_lower*sin(x*omega) = 0
    with x*omega in [0, pi/2].  A zero upper amplitude needs no pulse: (0, 0).
    """
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega!r}")
    if q_upper == 0:
        return 0.0, 0.0
    theta = wrap_angle(cmath.phase(q_lower) - cmath.phase(q_upper) + 0.5 * math.pi)
    return math.atan2(abs(q_upper), abs(q_lower)) / omega, theta


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
    return StateVector._wrap(out, state.truncation)
