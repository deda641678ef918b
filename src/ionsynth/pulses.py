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
distinct Omega, casts them to complex and gathers them onto the pairs.  The
gathered values are bit for bit those of evaluating every pair, since the
same inputs pass through the same contiguous ufunc, and NumPy casts a real
factor to complex before any complex product, so casting first changes no bit.

Replay tracks the occupied-J frontier: the highest total quantum number J
that may hold a nonzero amplitude.  Every channel preserves J except the red
sideband H9, which links J to J-1, so a pulse can lift the frontier by at most
one, and only on H9.  Pairs whose lower-J end lies above the frontier hold two
exact zeros, which a rotation leaves at zero; replay skips them, and the
amplitudes it returns are value-identical to rotating every pair.  A
preparation from the vacuum starts at frontier 0.

Replay runs one state, of shape (dim,) with pulse columns x and theta of
shape (n,), or K states, of shape (K, dim) with columns of shape (n, K) whose
column k drives state k.  Both go through one rotation body; the K states sit
in one flat array, gathered and scattered through (K, count) index arrays
offset by k*dim.  Each state of a batch gets the values of its own serial
replay: each pair value is the same elementwise operation on the same
inputs (cos and sin of the same x_k*Omega, the same ``cmath`` phase factors).
A batch runs a pulse unless every state's length is zero, and its frontier is
the highest of the states' frontiers.  A state with length zero gets cos 1
and sin 0, and pairs above its own frontier hold exact zeros, so those
rotations leave its values unchanged up to the sign of a zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

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
from .fock import Component, DomainError, StateVector, Truncation, _total_j

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


def _pulse_view(channel: ChannelId, x: float, theta: float, note: Component | None) -> Pulse:
    """A :class:`Pulse` of values that already passed its checks and wrap:
    the fields are set directly, so ``__post_init__`` does not run again."""
    pulse = object.__new__(Pulse)
    fields = pulse.__dict__
    fields["channel"], fields["x"], fields["theta"], fields["note"] = channel, x, theta, note
    return pulse


class Schedule:
    """An ordered pulse program plus the metadata needed to replay it.

    The program is held as columns, one entry per pulse: ``channel`` (uint8
    :class:`ChannelId` codes), ``x`` and ``theta`` (float64), all read-only,
    and ``notes`` (a tuple of :class:`Component` or ``None``).  Both
    constructors, :meth:`from_columns` and ``Schedule(pulses, ...)`` from
    :class:`Pulse` objects, validate the columns and wrap the phases into
    (-pi, pi] in one place; :attr:`pulses` gives :class:`Pulse` views back.
    """

    def __init__(
        self, pulses: Iterable[Pulse], lamb_dicke: LambDickeParams, truncation: Truncation,
        direction: Direction, target: str = "",
    ) -> None:
        p = list(pulses)
        columns = [q.channel for q in p], [q.x for q in p], [q.theta for q in p], [q.note for q in p]
        self._set(*columns, lamb_dicke, truncation, direction, target)

    @classmethod
    def from_columns(
        cls, channel: ArrayLike, x: ArrayLike, theta: ArrayLike, notes: Sequence[Component | None],
        lamb_dicke: LambDickeParams, truncation: Truncation, direction: Direction, target: str = "",
    ) -> Schedule:
        """Build a schedule from its columns; arrays of the right dtype are kept,
        not copied, and made read-only.  An error names the first bad pulse."""
        self = cls.__new__(cls)
        self._set(channel, x, theta, notes, lamb_dicke, truncation, direction, target)
        return self

    def _set(self, channel, x, theta, notes, lamb_dicke, truncation, direction, target) -> None:
        channel = np.asarray(channel, dtype=np.uint8)
        x = np.asarray(x, dtype=np.float64)
        theta = np.asarray(theta, dtype=np.float64)
        notes = tuple(notes)
        if not channel.shape == x.shape == theta.shape == (len(notes),):
            raise DomainError("schedule columns must be 1-D and of one length")
        for name, column, bad, rule in (
            ("channel", channel, (channel < 1) | (channel > len(ChannelId)), "unknown channel code"),
            ("x", x, ~(np.isfinite(x) & (x >= 0.0)), "pulse length must be finite and >= 0"),
            ("theta", theta, ~np.isfinite(theta), "pulse phase must be finite"),
        ):
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise DomainError(f"pulses[{i}].{name}: {rule}, got {column[i].item()!r}")
        self.channel, self.x, self.theta, self.notes = channel, x, _wrap_angles(theta), notes
        for column in (self.channel, self.x, self.theta):
            column.flags.writeable = False
        self.lamb_dicke, self.truncation = lamb_dicke, truncation
        self.direction, self.target = direction, target

    @property
    def pulses(self) -> tuple[Pulse, ...]:
        """The program as :class:`Pulse` views, built on each access from the
        checked columns without checking them again."""
        channels = map(_CHANNEL_OF_CODE.__getitem__, self.channel.tolist())
        return tuple(map(_pulse_view, channels, self.x.tolist(), self.theta.tolist(), self.notes))

    def __len__(self) -> int:
        return len(self.notes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            (self.lamb_dicke, self.truncation, self.direction, self.target, self.notes)
            == (other.lamb_dicke, other.truncation, other.direction, other.target, other.notes)
            and np.array_equal(self.channel, other.channel)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.theta, other.theta)
        )


@lru_cache(maxsize=256)
def _pair_table(cid: ChannelId, truncation: Truncation, ld: LambDickeParams) -> PairTable:
    return coupled_pairs(CHANNELS[cid], truncation, ld)[0]


def _rotate(
    flat: np.ndarray, src: np.ndarray, dst: np.ndarray, omega: np.ndarray,
    inverse: np.ndarray, x, plus, minus,
) -> None:
    """The rotation body: rotate the pairs (``flat[src]``, ``flat[dst]``) in place.

    ``omega`` holds the distinct Rabi frequencies and ``inverse`` indexes the
    flattened cos and sin of ``x * omega`` once per pair.  ``x`` and the phase
    factors ``plus`` = -i*exp(+i*theta), ``minus`` = -i*exp(-i*theta) are
    scalars for one state, or (K, 1) columns for K states whose index arrays
    are (K, count).
    """
    ang = x * omega
    c = np.cos(ang).astype(np.complex128).take(inverse)
    s = np.sin(ang).astype(np.complex128).take(inverse)
    u = flat[src]
    v = flat[dst]
    flat[src] = c * u + plus * (s * v)
    flat[dst] = c * v + minus * (s * u)


def _rotate_inplace(
    amps: np.ndarray, table: PairTable, x: float, theta: float, count: int | None = None
) -> None:
    """Rotate the first ``count`` pairs of ``table`` (all of them by default)."""
    if count is None:
        count = len(table)
    if x == 0.0 or count == 0:
        return
    _rotate(
        amps, table.src_index[:count], table.dst_index[:count],
        table.omega_distinct[: table.distinct_count[count]], table.omega_inverse[:count],
        x, -1j * cmath.exp(1j * theta), -1j * cmath.exp(-1j * theta),
    )


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
    whole batch; see the module docstring for why both give the serial values.
    """
    dim = truncation.dim
    flat = amps.reshape(-1)
    k = flat.size // dim
    live = np.flatnonzero(x.reshape(len(channel), k).any(axis=1))
    phases = theta[live].ravel().tolist()
    plus = [-1j * cmath.exp(1j * t) for t in phases]
    minus = [-1j * cmath.exp(-1j * t) for t in phases]
    if k == 1:  # Python scalars broadcast faster than (1, 1) columns
        lengths = x[live].ravel().tolist()
    else:
        lengths = x[live][..., np.newaxis]  # one (K, 1) column per pulse
        plus = np.array(plus).reshape(lengths.shape)
        minus = np.array(minus).reshape(lengths.shape)
    occupied = np.flatnonzero(flat.reshape(k, dim).any(axis=0))
    frontier = int(_total_j(occupied[-1], truncation)) if occupied.size else 0
    trial = np.arange(k)[:, np.newaxis]
    tables: dict[int, PairTable] = {}
    # Per channel, the (K, count) index arrays of the current frontier: pair
    # ends into ``flat``, and the distinct omegas with their inverse into the
    # flattened (K, distinct) trig.  Dropped whenever the frontier moves.
    slices: dict[int, tuple[np.ndarray, ...]] = {}
    for code, length, p, m in zip(channel[live].tolist(), lengths, plus, minus):
        table = tables.get(code)
        if table is None:
            table = tables[code] = _pair_table(ChannelId(code), truncation, ld)
        rotation = slices.get(code)
        if rotation is None:
            count = table.prefix[frontier]
            distinct = table.distinct_count[count]
            rotation = slices[code] = (
                table.src_index[:count] + dim * trial,
                table.dst_index[:count] + dim * trial,
                table.omega_distinct[:distinct],
                table.omega_inverse[:count] + distinct * trial,
            )
        _rotate(flat, *rotation, length, p, m)
        if table.lift and frontier < truncation.j_max:
            frontier += 1
            slices.clear()


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
        schedule.channel[::-1], schedule.x[::-1], schedule.theta[::-1] + math.pi, schedule.notes[::-1],
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
