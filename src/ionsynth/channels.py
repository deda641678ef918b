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
the small-eps limit, recovering the familiar sqrt factors.

A channel's coupled pairs are built as arrays, by arithmetic on the canonical
basis order, whose closed-form index the ``fock`` docstring gives.  The partner
of a lower-level component adds one quantum to the channel's raised mode and
takes one from its lowered mode, and every Lamb-Dicke factor comes from one
Laguerre evaluation per eps over n = 0..j_max.  :func:`rabi` and
:func:`partner_occupation` compute the same numbers one component at a time.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np
from scipy.special import eval_genlaguerre

from .fock import (
    Component,
    DomainError,
    Level,
    Occupation,
    Truncation,
    _layout,
    _vib_index,
    enumerate_basis,  # noqa: F401  perfbench/spans.py patches this name
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
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)) or value < 0:
                raise DomainError(f"{name} must be a finite non-negative real, got {value!r}")

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


def nonlinearity(eps: float, n: int) -> float:
    """Diagonal Lamb-Dicke correction <n| F_eps |n>.

    Equals exp(-eps**2/2) * L1_n(eps**2) / (n+1), which is also the closed form
    of the finite series sum_k (-1)**k eps**(2k) n! / ((k+1)! k! (n-k)!) times
    exp(-eps**2/2).  At eps=0 the factor is exactly 1; once exp(-eps**2/2)
    underflows it is 0, its limit, even where L1_n(eps**2) overflows.
    """
    if eps < 0 or not math.isfinite(eps):
        raise DomainError(f"eps must be a finite non-negative real, got {eps!r}")
    if n < 0:
        raise DomainError(f"occupation must be non-negative, got {n!r}")
    x = eps * eps
    damping = math.exp(-0.5 * x)
    if damping == 0.0:
        return 0.0
    return damping * float(eval_genlaguerre(n, 1, x)) / (n + 1)


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
    dst on the upper level, with Rabi frequency omega > 0."""

    src: Component
    dst: Component
    omega: float


@dataclass(frozen=True, eq=False)
class PairTable(Sequence[CoupledPair]):
    """A channel's coupled pairs under one truncation and Lamb-Dicke point.

    Row k rotates basis index ``src_index[k]`` (lower level) with
    ``dst_index[k]`` (upper level) at Rabi frequency ``omega[k] > 0``.  Rows
    run in basis order of their lower-level end, so the total J of a row's
    lower-J end never decreases along the table.  ``prefix[f]`` is the number
    of leading rows whose lower-J end is <= f, and ``lift`` the J gap between
    a row's two ends (1 for the red sideband, 0 for every other channel).

    Omega depends on a row only through nx (carriers, red sideband) or the
    raised and lowered occupations (exchange), so ``omega_distinct`` holds one
    Rabi frequency per such key, numbered in order of first appearance, and
    ``omega == omega_distinct[omega_inverse]`` bit for bit; the first c rows
    use only the first ``distinct_count[c]`` entries.

    Indexing, slicing and iteration give :class:`CoupledPair` views.
    """

    src_index: np.ndarray
    dst_index: np.ndarray
    omega: np.ndarray
    omega_distinct: np.ndarray = field(repr=False)
    omega_inverse: np.ndarray = field(repr=False)
    distinct_count: np.ndarray = field(repr=False)
    prefix: tuple[int, ...] = field(repr=False)
    lift: int
    # row_by_vib[v]: the row whose lower-level end has vibrational index v, or -1
    row_by_vib: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)  # the basis as an object array

    def __len__(self) -> int:
        return self.src_index.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return CoupledPair(
            self.components[self.src_index[k]],
            self.components[self.dst_index[k]],
            float(self.omega[k]),
        )

    def row_of(self, src: int) -> int | None:
        """Row whose lower-level end is basis index ``src``, or None."""
        row = int(self.row_by_vib[src // len(Level)])
        return row if row >= 0 and self.src_index[row] == src else None


def _nonlinearities(eps: float, j_max: int) -> np.ndarray:
    """``nonlinearity(eps, n)`` for n = 0..j_max, by the same operations."""
    x = eps * eps
    n = np.arange(j_max + 1)
    damping = math.exp(-0.5 * x)
    if damping == 0.0:
        return np.zeros(j_max + 1)  # as in nonlinearity
    return damping * eval_genlaguerre(n, 1, x) / (n + 1)


def coupled_pairs(
    spec: ChannelSpec, truncation: Truncation, ld: LambDickeParams
) -> tuple[PairTable, list[Component]]:
    """Partition the basis into coupled pairs and untouched components.

    Every component appears exactly once: either in one pair or in the
    untouched list.  Pairs never leave the truncation because each channel
    preserves or lowers the total quantum number.  Zero-Rabi combinations are
    classified as untouched so later pulse solving never divides by zero.
    Omega is bit for bit what :func:`rabi` gives the same lower occupation.
    """
    j_max = truncation.j_max
    occ, _, components, _ = _layout(j_max)
    vib = np.arange(occ.shape[1])
    if spec.lowered is not None:
        vib = vib[occ[spec.lowered] >= 1]
    # Omega depends on a row only through nx (carriers, red sideband) or the
    # raised and lowered occupations (exchange).  ``rank`` numbers those keys
    # in the order they first appear along the basis.
    if spec.kind is ChannelKind.CARRIER:
        rank = occ[Mode.X, vib]
        omega = _nonlinearities(ld.eps_carrier, j_max)[rank]
    elif spec.kind is ChannelKind.RED_SIDEBAND:
        nx = occ[Mode.X, vib]
        rank = nx - 1
        omega = np.sqrt(nx) * _nonlinearities(ld.eps_carrier, j_max)[nx - 1]
    else:
        n_up = occ[spec.raised, vib]
        n_down = occ[spec.lowered, vib]
        total = n_up + n_down
        rank = total * (total - 1) // 2 + n_up
        omega = (
            np.sqrt((n_up + 1) * n_down)
            * _nonlinearities(ld.mode_eps(spec.raised), j_max)[n_up]
            * _nonlinearities(ld.mode_eps(spec.lowered), j_max)[n_down - 1]
        )
    keep = omega > 0.0
    vib, rank, omega = vib[keep], rank[keep], omega[keep]
    upper = occ[:, vib]
    if spec.raised is not None:
        upper[spec.raised] += 1
    if spec.lowered is not None:
        upper[spec.lowered] -= 1
    levels = len(Level)
    src = levels * vib + spec.lower_level
    dst = levels * _vib_index(*upper) + spec.upper_level
    j_dst = upper.sum(axis=0)  # every channel keeps or lowers J
    distinct = np.zeros(int(rank.max(initial=-1)) + 1)
    distinct[rank] = omega  # the rows of one rank hold the same bits
    row_by_vib = np.full(truncation.vibrational_dim, -1, dtype=np.intp)
    row_by_vib[vib] = np.arange(vib.size)
    table = PairTable(
        src_index=src,
        dst_index=dst,
        omega=omega,
        omega_distinct=distinct,
        omega_inverse=rank,
        distinct_count=np.concatenate(([0], np.maximum.accumulate(rank) + 1)),
        prefix=tuple(np.searchsorted(j_dst, np.arange(j_max + 1), side="right").tolist()),
        lift=1 if spec.kind is ChannelKind.RED_SIDEBAND and vib.size else 0,
        row_by_vib=row_by_vib,
        components=components,
    )
    claimed = np.zeros(truncation.dim, dtype=bool)
    claimed[src] = claimed[dst] = True
    return table, components[~claimed].tolist()


def dense_hamiltonian(
    spec: ChannelSpec, theta: float, truncation: Truncation, ld: LambDickeParams
) -> np.ndarray:
    """Full Hamiltonian matrix of one channel at phase ``theta``, in units of |g|.

    The part that raises the electronic state carries the conjugated coupling:
    <dst|H|src> = omega * exp(-i*theta) for every coupled pair, and the matrix
    is Hermitian by construction.
    """
    dim = truncation.dim
    h = np.zeros((dim, dim), dtype=np.complex128)
    raising = cmath.exp(-1j * theta)
    pairs, _ = coupled_pairs(spec, truncation, ld)
    h[pairs.dst_index, pairs.src_index] = pairs.omega * raising
    h[pairs.src_index, pairs.dst_index] = pairs.omega * raising.conjugate()
    return h
