"""The nine resonant Raman channels and their coupling strengths.

Each channel couples pairs of basis components that differ by one electronic
level and a fixed change of vibrational occupation:

* an *exchange* channel moves one quantum from one mode into another,
* a *carrier* channel leaves the occupation unchanged,
* the *red sideband* channel removes one quantum from the x mode.

Coupling strengths are generalized Rabi frequencies in units of the base
coupling magnitude |g|: square-root occupation factors times a diagonal
Lamb-Dicke correction for each participating mode.  The correction for a mode
holding n quanta is

    nonlinearity(eps, n) = exp(-eps**2 / 2) * L1_n(eps**2) / (n + 1)

with ``L1_n`` the generalized Laguerre polynomial of order 1; it tends to 1 in
the small-eps limit, recovering the familiar sqrt factors.  ``_nonlinearities``
is the one place that evaluates it: L1_n comes from the three-term recurrence
SciPy's ``eval_genlaguerre`` runs, with its operations in SciPy's order, so
every value keeps SciPy's bits without the package importing SciPy.

A channel's coupled pairs are built as arrays by one function, ``_pairs``,
from lower-level occupations: the partner adds one quantum to the channel's
raised mode and takes one from its lowered mode, both ends' basis indices come
from ``fock._basis_index``, the closed form of the canonical order, each
pair's Omega rank by arithmetic on the occupations, and every Lamb-Dicke factor
from one pass of the recurrence per eps over n = 0..j_max.  :func:`rabi` and
:func:`partner_occupation` compute the same numbers one component at a time.

Only the Rabi frequencies depend on the Lamb-Dicke point.  The rows, their
Omega ranks and the frontier operands are built once per channel and cutoff
and shared, read-only, by the tables at every point; a new point adds one
Omega per rank, so a scan over points keeps one copy of the index arrays.
The compiler's plan calls ``_pairs`` on its steps' occupations.

``_LEVELS``, built from the specs, is the one table of each channel code's
levels; a schedule's note check and the compiler's step columns read it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache

import numpy as np

from .fock import (
    J_MAX_CAP,
    Component,
    Level,
    Occupation,
    Truncation,
    _basis_index,
    _integer,
    _layout,
    _real,
    enumerate_basis,
    index_of,
)

__all__ = [
    "LambDickeParams",
    "ChannelId",
    "ChannelKind",
    "Mode",
    "ChannelSpec",
    "CoupledPair",
    "PairTable",
    "CHANNELS",
    "nonlinearity",
    "rabi",
    "partner_occupation",
    "coupled_pairs",
    "dense_hamiltonian",
]


@dataclass(frozen=True)
class LambDickeParams:
    """Lamb-Dicke parameters per mode, plus the one used by carrier-type beams.

    The defaults are the working point used throughout the test suite:
    eps_x=0.3, eps_y=0.1, eps_z=0.2 for the exchange channels and
    eps_carrier=0.1 for carrier and red-sideband pulses.
    """

    eps_x: float = 0.3
    eps_y: float = 0.1
    eps_z: float = 0.2
    eps_carrier: float = 0.1

    def __post_init__(self) -> None:
        for name in ("eps_x", "eps_y", "eps_z", "eps_carrier"):
            object.__setattr__(self, name, _real(name, getattr(self, name), non_negative=True))

    def mode_eps(self, mode: "Mode") -> float:
        return (self.eps_x, self.eps_y, self.eps_z)[mode]


class ChannelId(IntEnum):
    H1 = 1
    H2 = 2
    H3 = 3
    H4 = 4
    H5 = 5
    H6 = 6
    H7 = 7
    H8 = 8
    H9 = 9


class ChannelKind(Enum):
    EXCHANGE = "exchange"
    CARRIER = "carrier"
    RED_SIDEBAND = "red_sideband"


class Mode(IntEnum):
    X = 0
    Y = 1
    Z = 2


@dataclass(frozen=True)
class ChannelSpec:
    """Static description of one channel.

    ``raised``/``lowered`` are the modes whose occupation goes up/down when the
    electronic state climbs from ``lower_level`` to ``upper_level``; carriers
    have neither, the red sideband only lowers.
    """

    cid: ChannelId
    kind: ChannelKind
    raised: Mode | None
    lowered: Mode | None
    lower_level: Level
    upper_level: Level


CHANNELS: dict[ChannelId, ChannelSpec] = {
    spec.cid: spec
    for spec in (
        ChannelSpec(ChannelId.H1, ChannelKind.EXCHANGE, Mode.Y, Mode.Z, Level.A, Level.B),
        ChannelSpec(ChannelId.H2, ChannelKind.CARRIER, None, None, Level.A, Level.B),
        ChannelSpec(ChannelId.H3, ChannelKind.EXCHANGE, Mode.Y, Mode.Z, Level.B, Level.C),
        ChannelSpec(ChannelId.H4, ChannelKind.CARRIER, None, None, Level.B, Level.C),
        ChannelSpec(ChannelId.H5, ChannelKind.EXCHANGE, Mode.X, Mode.Y, Level.A, Level.B),
        ChannelSpec(ChannelId.H6, ChannelKind.CARRIER, None, None, Level.C, Level.D),
        ChannelSpec(ChannelId.H7, ChannelKind.EXCHANGE, Mode.Y, Mode.Z, Level.C, Level.D),
        ChannelSpec(ChannelId.H8, ChannelKind.EXCHANGE, Mode.X, Mode.Y, Level.B, Level.C),
        ChannelSpec(ChannelId.H9, ChannelKind.RED_SIDEBAND, None, Mode.X, Level.A, Level.B),
    )
}
# The lower (row 0) and upper (row 1) level of each channel code; column 0 is no channel.
_LEVELS = np.array([(0, 0), *((s.lower_level, s.upper_level) for s in CHANNELS.values())]).T.copy()


def nonlinearity(eps: float, n: int) -> float:
    """Diagonal Lamb-Dicke correction <n| F_eps |n>.

    Equals exp(-eps**2/2) * L1_n(eps**2) / (n+1), which is also the closed form
    of the finite series sum_k (-1)**k eps**(2k) n! / ((k+1)! k! (n-k)!) times
    exp(-eps**2/2).  At eps=0 the factor is exactly 1; once exp(-eps**2/2)
    underflows it is 0, its limit, even where L1_n(eps**2) overflows.  The
    value is entry n of :func:`_nonlinearities`, whose L1_n is SciPy's
    ``eval_genlaguerre(n, 1, eps**2)`` bit for bit.
    """
    eps = _real("eps", eps, non_negative=True)
    n = _integer("occupation", n, 0, J_MAX_CAP)  # no basis holds more quanta, and L1_n costs O(n)
    return float(_nonlinearities(eps, n)[n])


def rabi(spec: ChannelSpec, occ: Occupation, ld: LambDickeParams) -> float:
    """Generalized Rabi frequency of ``spec`` acting on the lower-level state ``occ``.

    Returns 0 for transitions the channel cannot drive (annihilating an empty
    mode).
    """
    if spec.kind is ChannelKind.CARRIER:
        return nonlinearity(ld.eps_carrier, occ.nx)
    if spec.kind is ChannelKind.RED_SIDEBAND:
        if occ.nx < 1:
            return 0.0
        return math.sqrt(occ.nx) * nonlinearity(ld.eps_carrier, occ.nx - 1)
    n_up = occ[spec.raised]
    n_down = occ[spec.lowered]
    if n_down < 1:
        return 0.0
    return (
        math.sqrt((n_up + 1) * n_down)
        * nonlinearity(ld.mode_eps(spec.raised), n_up)
        * nonlinearity(ld.mode_eps(spec.lowered), n_down - 1)
    )


def partner_occupation(spec: ChannelSpec, occ: Occupation) -> Occupation | None:
    """Occupation reached from ``occ`` when the electronic state climbs, or None."""
    if spec.kind is ChannelKind.CARRIER:
        return occ
    if spec.kind is ChannelKind.RED_SIDEBAND:
        return occ.with_delta(Mode.X, -1) if occ.nx >= 1 else None
    if occ[spec.lowered] < 1:
        return None
    return occ.with_delta(spec.raised, +1).with_delta(spec.lowered, -1)


@dataclass(frozen=True)
class CoupledPair:
    """One two-component block the channel rotates: src on the lower level,
    dst on the upper level, with Rabi frequency omega of either sign, or 0."""

    src: Component
    dst: Component
    omega: float


@dataclass(frozen=True, eq=False)
class PairTable:
    """A channel's coupled pairs under one truncation and Lamb-Dicke point.

    Row k rotates basis index ``src_index[k]`` (lower level) with
    ``dst_index[k]`` (upper level) at Rabi frequency
    ``omega_distinct[omega_inverse[k]]``, which is negative past a zero of a
    Laguerre factor and 0 where one underflows.  Omega depends on a row only
    through nx (carriers, red sideband) or the raised and lowered occupations
    (exchange), so ``omega_distinct`` holds one Rabi frequency per such key,
    numbered in order of first appearance, and ``basis`` is the canonical basis
    the indices point into.  The rows and ranks are those ``_pairs`` gives.

    Only ``omega_distinct`` depends on the Lamb-Dicke point.  The rows, the
    inverse and ``upto`` depend on the channel and the cutoff alone, and every
    table of one channel and cutoff shares them as the same read-only arrays.

    Rows run in basis order of their lower-level end, so ``src_index`` is
    strictly increasing and the total J of a row's lower-J end never
    decreases along the table.  ``upto[j]`` holds the rotation operands
    ``(src, dst, inverse, used)`` of the leading rows whose lower-J end is
    <= j: those rows read only the first ``used`` entries of
    ``omega_distinct``, which is where a rotation cuts it.

    Iteration gives :class:`CoupledPair` views.
    """

    src_index: np.ndarray
    dst_index: np.ndarray
    omega_distinct: np.ndarray = field(repr=False)
    omega_inverse: np.ndarray = field(repr=False)
    basis: tuple[Component, ...] = field(repr=False)
    upto: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, int], ...] = field(repr=False)

    def __len__(self) -> int:
        return self.src_index.size

    def __iter__(self) -> Iterator[CoupledPair]:
        pick = self.basis.__getitem__
        src = map(pick, self.src_index.tolist())
        dst = map(pick, self.dst_index.tolist())
        return map(CoupledPair, src, dst, self.omega_distinct[self.omega_inverse].tolist())


def _pairs(spec: ChannelSpec, occ: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair ``spec`` forms from the lower-level occupations ``occ``, of
    shape (3, n): the basis indices of its lower and upper ends and its Omega
    rank, the last two -1 where the channel would lower an empty mode.  Omega
    depends on a pair only through nx (carriers, red sideband) or the raised
    and lowered occupations (exchange); the rank numbers those keys in the
    order they first appear along the basis."""
    upper = occ.copy()
    if spec.raised is None:
        rank = occ[Mode.X] - (spec.kind is ChannelKind.RED_SIDEBAND)  # nx, or nx - 1
    else:
        n_up, n_down = occ[spec.raised], occ[spec.lowered]
        rank = (n_up + n_down) * (n_up + n_down - 1) // 2 + n_up
        upper[spec.raised] += 1
    if spec.lowered is not None:
        upper[spec.lowered] -= 1
    src = _basis_index(occ, spec.lower_level)
    dst = _basis_index(upper, spec.upper_level)
    empty = (upper < 0).any(axis=0)
    dst[empty] = rank[empty] = -1
    return src, dst, rank


@lru_cache(maxsize=32 * len(ChannelId))
def _rows(spec: ChannelSpec, j_max: int) -> tuple:
    """The pairs :func:`_pairs` finds over the basis at cutoff ``j_max``, built
    once and kept as read-only arrays: the ends, the Omega ranks, the lower
    occupation of each rank as a (3, ranks) array, the frontier operands and
    the ascending basis indices no pair touches."""
    occ = _layout(j_max).occ
    src, dst, rank = _pairs(spec, occ)
    kept = rank >= 0
    src, dst, rank = src[kept], dst[kept], rank[kept]
    keys = np.zeros((3, int(rank.max(initial=-1)) + 1), dtype=occ.dtype)
    keys[:, rank] = occ[:, kept]  # every rank up to the largest has rows, all of one Omega
    claimed = np.zeros(len(Level) * occ.shape[1], dtype=bool)
    claimed[src] = claimed[dst] = True
    untouched = np.flatnonzero(~claimed)
    for column in (src, dst, rank, keys, untouched):
        column.flags.writeable = False
    j_dst = occ[:, dst // len(Level)].sum(axis=0)  # every channel keeps or lowers J
    ends = np.searchsorted(j_dst, np.arange(j_max + 1), side="right").tolist()
    used = np.concatenate(([0], np.maximum.accumulate(rank) + 1)).tolist()  # by the first c rows
    upto = tuple((src[:c], dst[:c], rank[:c], used[c]) for c in ends)
    return src, dst, rank, keys, upto, untouched


def _nonlinearities(eps: float, j_max: int) -> np.ndarray:
    """``nonlinearity(eps, n)`` for n = 0..j_max: exp(-x/2) * L1_n(x) / (n+1)
    at x = eps**2, 0 once the damping underflows.  One pass of the recurrence
    SciPy's ``eval_genlaguerre(n, 1, x)`` runs for each n on its own gives
    every L1_n, each operation in SciPy's order, so each is SciPy's value bit
    for bit: with alpha = 1, d_1 = -x/2, p_1 = d_1 + 1, then
    d_{k+1} = -x/(k+2) * p_k + k/(k+2) * d_k, p_{k+1} = p_k + d_{k+1} and
    L1_{k+1} = (k+2) * p_{k+1}."""
    x = eps * eps
    damping = math.exp(-0.5 * x)
    if damping == 0.0:
        return np.zeros(j_max + 1)
    d = -x / 2.0
    p, laguerre = d + 1.0, [1.0, -x + 1.0 + 1.0]  # L1_0 and L1_1
    for k in range(1, j_max):
        d = -x / (k + 2.0) * p + k / (k + 2.0) * d
        p += d
        laguerre.append((k + 2.0) * p)
    return damping * np.array(laguerre[: j_max + 1]) / np.arange(1, j_max + 2)


def coupled_pairs(
    spec: ChannelSpec, truncation: Truncation, ld: LambDickeParams
) -> tuple[PairTable, np.ndarray]:
    """Partition the basis into coupled pairs and untouched components.

    Every basis index appears exactly once: in ``src_index``, ``dst_index`` or
    the ascending, read-only untouched indices returned with the table, one
    array per channel and cutoff shared by every call.  Pairs never
    leave the truncation because each channel preserves or lowers the total
    quantum number.  The pairs depend on the channel and the cutoff alone: a
    pair whose Omega is zero or negative keeps its row, and only the compiler
    refuses it.  The table shares the rows ``_pairs`` gives over the basis,
    built once per cutoff, and adds its own Omega, evaluated once per rank by
    the operations :func:`rabi` applies to a row, so bit for bit what it gives
    the same lower occupation.
    """
    j_max = truncation.j_max
    src, dst, rank, keys, upto, untouched = _rows(spec, j_max)
    nx = keys[Mode.X]
    if spec.kind is ChannelKind.CARRIER:
        omega = _nonlinearities(ld.eps_carrier, j_max)[nx]
    elif spec.kind is ChannelKind.RED_SIDEBAND:
        omega = np.sqrt(nx) * _nonlinearities(ld.eps_carrier, j_max)[nx - 1]
    else:
        n_up, n_down = keys[spec.raised], keys[spec.lowered]
        omega = (
            np.sqrt((n_up + 1) * n_down)
            * _nonlinearities(ld.mode_eps(spec.raised), j_max)[n_up]
            * _nonlinearities(ld.mode_eps(spec.lowered), j_max)[n_down - 1]
        )
    omega.flags.writeable = False
    basis = _layout(j_max).basis
    return PairTable(src, dst, omega, rank, basis, upto), untouched


def dense_hamiltonian(
    spec: ChannelSpec, theta: float, truncation: Truncation, ld: LambDickeParams
) -> np.ndarray:
    """Full Hamiltonian matrix of one channel at phase ``theta``, in units of |g|.

    The part that raises the electronic state carries the conjugated coupling:
    <dst|H|src> = omega * exp(-i*theta) for every coupled pair, and the matrix
    is Hermitian by construction.  It is built from :func:`rabi` one component
    at a time, never from a pair table, so that it can check the tables.
    """
    h = np.zeros((truncation.dim, truncation.dim), dtype=np.complex128)
    raising = cmath.exp(-1j * theta)
    for src, (occ, level) in enumerate(enumerate_basis(truncation)):
        upper = partner_occupation(spec, occ)
        if level is spec.lower_level and upper is not None:
            dst = index_of(Component(upper, spec.upper_level), truncation)
            h[dst, src] = rabi(spec, occ, ld) * raising
    return h + h.conj().T
