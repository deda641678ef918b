"""Truncated state space for three vibrational modes and four electronic levels.

The vibrational space is truncated by total quantum number: a truncation with
``j_max`` keeps every occupation (nx, ny, nz) with nx + ny + nz <= j_max.
Every interaction channel in this package preserves or lowers the total, so
the truncated space is exactly closed under the dynamics.

Basis components are ordered by ascending total J, then nx, then ny, with the
four electronic levels innermost.  Grouping by J keeps each synthesis stage in
a contiguous index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "Level",
    "Occupation",
    "Component",
    "Truncation",
    "StateVector",
    "enumerate_basis",
    "index_of",
    "component_of",
    "basis_state",
    "vacuum_state",
    "overlap",
    "fidelity_to_target",
    "project_level",
]


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class Level(IntEnum):
    """Electronic level.  The order a < b < c < d fixes the basis layout."""

    A = 0
    B = 1
    C = 2
    D = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Level":
        try:
            return cls[label.upper()]
        except (KeyError, AttributeError):
            raise DomainError(f"unknown electronic level {label!r}") from None


class Occupation(NamedTuple):
    """Vibrational quanta in the x, y and z trap modes."""

    nx: int
    ny: int
    nz: int

    @property
    def total(self) -> int:
        return self.nx + self.ny + self.nz

    def with_delta(self, mode: int, delta: int) -> "Occupation":
        vals = list(self)
        vals[mode] += delta
        return Occupation(*vals)


class Component(NamedTuple):
    """One basis component: a vibrational occupation and an electronic level."""

    occ: Occupation
    level: Level


@dataclass(frozen=True)
class Truncation:
    """Keep occupations with total quanta nx + ny + nz <= j_max."""

    j_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.j_max, int) or self.j_max < 0:
            raise DomainError(f"j_max must be a non-negative integer, got {self.j_max!r}")

    @property
    def dim(self) -> int:
        """Number of basis components: 4 * C(j_max + 3, 3)."""
        return 4 * math.comb(self.j_max + 3, 3)

    @property
    def vibrational_dim(self) -> int:
        return math.comb(self.j_max + 3, 3)


@lru_cache(maxsize=32)
def _basis_table(j_max: int) -> tuple[tuple[Component, ...], dict[Component, int]]:
    components: list[Component] = []
    for j in range(j_max + 1):
        for nx in range(j + 1):
            for ny in range(j - nx + 1):
                occ = Occupation(nx, ny, j - nx - ny)
                for level in Level:
                    components.append(Component(occ, level))
    table = tuple(components)
    return table, {comp: k for k, comp in enumerate(table)}


def enumerate_basis(truncation: Truncation) -> tuple[Component, ...]:
    """All basis components in canonical order."""
    return _basis_table(truncation.j_max)[0]


def index_of(component: Component, truncation: Truncation) -> int:
    """Position of ``component`` in the canonical order."""
    try:
        return _basis_table(truncation.j_max)[1][component]
    except KeyError:
        raise DomainError(
            f"component {component!r} is not inside the truncation j_max={truncation.j_max}"
        ) from None


def _total_j(indices: np.ndarray, truncation: Truncation) -> np.ndarray:
    """Total quanta J of each basis index, by arithmetic on the canonical order.

    C(J + 3, 3) occupations have total <= J, so an index's J is the number of
    those counts its vibrational position reaches.
    """
    below = np.array([math.comb(j + 3, 3) for j in range(truncation.j_max + 1)])
    return np.searchsorted(below, np.asarray(indices) // len(Level), side="right")


def component_of(index: int, truncation: Truncation) -> Component:
    """Inverse of :func:`index_of`."""
    table = _basis_table(truncation.j_max)[0]
    if not 0 <= index < len(table):
        raise DomainError(f"basis index {index} out of range [0, {len(table)})")
    return table[index]


class StateVector:
    """Complex amplitudes over the canonical component basis."""

    __slots__ = ("amplitudes", "truncation")

    def __init__(self, amplitudes, truncation: Truncation):
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (truncation.dim,):
            raise DomainError(
                f"amplitude array has shape {amps.shape}, expected ({truncation.dim},)"
            )
        self.amplitudes = amps
        self.truncation = truncation

    @classmethod
    def _wrap(cls, amps: np.ndarray, truncation: Truncation) -> "StateVector":
        # Internal fast path: adopt an existing complex array without copying.
        sv = cls.__new__(cls)
        sv.amplitudes = amps
        sv.truncation = truncation
        return sv

    def copy(self) -> "StateVector":
        return StateVector._wrap(self.amplitudes.copy(), self.truncation)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < 1e-300:
            raise DomainError("cannot normalize a zero state")
        return StateVector._wrap(self.amplitudes / n, self.truncation)

    def amplitude(self, component: Component) -> complex:
        return complex(self.amplitudes[index_of(component, self.truncation)])

    def level_probabilities(self) -> np.ndarray:
        """Population per electronic level, in level order; sums to norm**2."""
        cols = self.amplitudes.reshape(-1, len(Level))
        return np.sum(np.abs(cols) ** 2, axis=0)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.truncation.dim}, j_max={self.truncation.j_max})"


def basis_state(component: Component, truncation: Truncation) -> StateVector:
    """Unit amplitude on a single component."""
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    amps[index_of(component, truncation)] = 1.0
    return StateVector._wrap(amps, truncation)


def vacuum_state(truncation: Truncation) -> StateVector:
    """The motional ground state on electronic level a."""
    return basis_state(Component(Occupation(0, 0, 0), Level.A), truncation)


def _check_same_truncation(u: StateVector, v: StateVector) -> None:
    if u.truncation != v.truncation:
        raise DomainError(
            f"truncation mismatch: j_max={u.truncation.j_max} vs j_max={v.truncation.j_max}"
        )


def overlap(u: StateVector, v: StateVector) -> complex:
    """Inner product <u|v>, conjugate-linear in ``u``."""
    _check_same_truncation(u, v)
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def _require_level_a_support(target: StateVector) -> None:
    off = target.amplitudes.reshape(-1, len(Level))[:, 1:]
    if float(np.sum(np.abs(off) ** 2)) > 1e-24:
        raise DomainError("target state must have support only on electronic level a")


def fidelity_to_target(out: StateVector, target: StateVector) -> float:
    """|<out|target>|**2 against a target supported only on level a.

    Global phases drop out, so a preparation that reproduces the target up to
    an overall phase scores exactly 1.
    """
    _check_same_truncation(out, target)
    _require_level_a_support(target)
    return min(1.0, abs(overlap(out, target)) ** 2)


def project_level(state: StateVector, level: Level) -> tuple[StateVector, float]:
    """Project onto one electronic level and renormalize.

    Returns the renormalized conditional state and the probability of the
    projection.  Raises :class:`DomainError` when the state has no support on
    the requested level.
    """
    cols = state.amplitudes.reshape(-1, len(Level))
    p = float(np.sum(np.abs(cols[:, level]) ** 2))
    if p == 0.0:
        raise DomainError(f"state has no support on level {level.label!r}")
    projected = np.zeros_like(cols)
    projected[:, level] = cols[:, level]
    return StateVector._wrap(projected.reshape(-1) / math.sqrt(p), state.truncation), p
