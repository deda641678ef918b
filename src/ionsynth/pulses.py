"""Pulses, schedules, and the exact pairwise propagator.

A pulse drives one channel for an interaction length x = |g|*tau at laser
phase theta.  On each coupled pair (u = lower component, v = upper component)
with Rabi frequency Omega the evolution is the exact two-level rotation

    u' = cos(x*Omega) * u - i * exp(+i*theta) * sin(x*Omega) * v
    v' = cos(x*Omega) * v - i * exp(-i*theta) * sin(x*Omega) * u

and the identity on untouched components.  Shifting theta by pi inverts a
pulse, which is what turns a de-evolution schedule into a preparation
schedule.

The closed-form solvers pick (x, theta) so that a pulse sends one chosen
amplitude of a pair exactly to zero, transferring its population to the
partner component.

Replay tracks the occupied-J frontier: the highest total quantum number J
that may hold a nonzero amplitude.  Every channel preserves J except the red
sideband H9, which links J to J-1, so a pulse can lift the frontier by at most
one, and only on H9.  Pairs whose lower-J end lies above the frontier hold two
exact zeros, which a rotation leaves at zero; replay skips them, and the
amplitudes it returns are value-identical to rotating every pair.  A
preparation from the vacuum starts at frontier 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from .channels import CHANNELS, ChannelId, LambDickeParams, coupled_pairs, dense_hamiltonian
from .fock import Component, DomainError, StateVector, Truncation, _total_j, index_of

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


@dataclass(frozen=True)
class Schedule:
    """An ordered pulse program plus the metadata needed to replay it."""

    pulses: tuple[Pulse, ...]
    lamb_dicke: LambDickeParams
    truncation: Truncation
    direction: Direction
    target: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "pulses", tuple(self.pulses))

    def __len__(self) -> int:
        return len(self.pulses)


@dataclass(frozen=True)
class _PairTable:
    """Vectorized view of a channel's coupled pairs under one configuration.

    Pairs run in basis order of their lower-level end, so the total J of a
    pair's lower-J end never decreases along the table.  ``prefix[f]`` is the
    number of leading pairs whose lower-J end is <= f, and ``lift`` the J gap
    between a pair's two ends (1 for the red sideband, 0 for every other
    channel).
    """

    src_index: np.ndarray
    dst_index: np.ndarray
    omega: np.ndarray
    row_by_src: dict[int, int] = field(repr=False)
    prefix: tuple[int, ...] = field(repr=False)
    lift: int


@lru_cache(maxsize=256)
def _pair_table(cid: ChannelId, truncation: Truncation, ld: LambDickeParams) -> _PairTable:
    pairs, _ = coupled_pairs(CHANNELS[cid], truncation, ld)
    src = np.array([index_of(p.src, truncation) for p in pairs], dtype=np.intp)
    dst = np.array([index_of(p.dst, truncation) for p in pairs], dtype=np.intp)
    omega = np.array([p.omega for p in pairs], dtype=np.float64)
    j_src = _total_j(src, truncation)
    j_dst = _total_j(dst, truncation)
    low = np.minimum(j_src, j_dst)
    prefix = np.searchsorted(low, np.arange(truncation.j_max + 1), side="right")
    lift = int(np.max(np.abs(j_src - j_dst), initial=0))
    return _PairTable(
        src, dst, omega, {int(s): k for k, s in enumerate(src)}, tuple(prefix.tolist()), lift
    )


def _rotate_inplace(
    amps: np.ndarray, table: _PairTable, x: float, theta: float, count: int | None = None
) -> None:
    """Rotate the first ``count`` pairs of ``table`` (all of them by default)."""
    if x == 0.0 or count == 0 or table.src_index.size == 0:
        return
    src = table.src_index[:count]
    dst = table.dst_index[:count]
    u = amps[src]
    v = amps[dst]
    ang = x * table.omega[:count]
    c = np.cos(ang)
    s = np.sin(ang)
    amps[src] = c * u + (-1j * cmath.exp(1j * theta)) * (s * v)
    amps[dst] = c * v + (-1j * cmath.exp(-1j * theta)) * (s * u)


def _replay(
    amps: np.ndarray,
    truncation: Truncation,
    ld: LambDickeParams,
    pulses: Iterable[tuple[ChannelId, float, float]],
) -> None:
    """Apply (channel, x, theta) pulses to ``amps`` in place: the replay kernel.

    Each pulse rotates only the pairs that reach the occupied-J frontier; see
    the module docstring for why the skipped pairs hold exact zeros.
    """
    occupied = np.flatnonzero(amps)
    frontier = int(_total_j(occupied[-1], truncation)) if occupied.size else 0
    tables: dict[ChannelId, _PairTable] = {}
    for cid, x, theta in pulses:
        if x == 0.0:
            continue
        table = tables.get(cid)
        if table is None:
            table = tables[cid] = _pair_table(cid, truncation, ld)
        _rotate_inplace(amps, table, x, theta, table.prefix[frontier])
        frontier = min(frontier + table.lift, truncation.j_max)


def apply_pulse(
    state: StateVector, pulse: Pulse, ld: LambDickeParams = LambDickeParams()
) -> StateVector:
    """Apply one pulse exactly; returns a new state, norm preserved."""
    amps = state.amplitudes.copy()
    _replay(amps, state.truncation, ld, [(pulse.channel, pulse.x, pulse.theta)])
    return StateVector._wrap(amps, state.truncation)


def apply_schedule(state: StateVector, schedule: Schedule) -> StateVector:
    """Apply every pulse of ``schedule`` in order."""
    if schedule.truncation != state.truncation:
        raise DomainError(
            f"schedule truncation j_max={schedule.truncation.j_max} does not match "
            f"state truncation j_max={state.truncation.j_max}"
        )
    amps = state.amplitudes.copy()
    _replay(
        amps,
        schedule.truncation,
        schedule.lamb_dicke,
        ((p.channel, p.x, p.theta) for p in schedule.pulses),
    )
    return StateVector._wrap(amps, state.truncation)


def dagger_schedule(schedule: Schedule) -> Schedule:
    """Exact inverse program: reversed order, every phase shifted by pi."""
    flipped = (
        Direction.PREPARATION
        if schedule.direction is Direction.DEEVOLUTION
        else Direction.DEEVOLUTION
    )
    return Schedule(
        tuple(
            Pulse(p.channel, p.x, p.theta + math.pi, p.note)
            for p in reversed(schedule.pulses)
        ),
        schedule.lamb_dicke,
        schedule.truncation,
        flipped,
        schedule.target,
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
