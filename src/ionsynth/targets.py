"""Built-in target states and user-supplied targets.

Targets are full-space states with support only on electronic level a.  When a
built-in family extends past the truncation, the kept amplitudes are
renormalized and the dropped probability mass is reported so callers can judge
whether the truncation is adequate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    Component,
    DomainError,
    Level,
    Occupation,
    StateVector,
    Truncation,
    index_of,
)

__all__ = ["Target", "target_corr", "target_diag", "target_ghz", "random_target"]


@dataclass(frozen=True)
class Target:
    state: StateVector
    description: str
    truncated_mass: float


def _level_a_state(entries: dict[Occupation, complex], truncation: Truncation) -> np.ndarray:
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    for occ, value in entries.items():
        amps[index_of(Component(occ, Level.A), truncation)] = value
    return amps


def _check_alpha(alpha: complex) -> None:
    if not cmath.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")


def target_corr(alpha: complex, truncation: Truncation) -> Target:
    """Fully correlated state: amplitudes of a coherent state carried by the
    diagonal occupations |n, n, n>."""
    _check_alpha(alpha)
    prefactor = math.exp(-0.5 * abs(alpha) ** 2)
    entries: dict[Occupation, complex] = {}
    for n in range(truncation.j_max // 3 + 1):
        entries[Occupation(n, n, n)] = prefactor * alpha**n / math.sqrt(math.factorial(n))
    amps = _level_a_state(entries, truncation)
    kept = float(np.sum(np.abs(amps) ** 2))  # untruncated total is exactly 1
    return Target(
        state=StateVector._wrap(amps / math.sqrt(kept), truncation),
        description=f"corr(alpha={alpha})",
        truncated_mass=1.0 - kept,
    )


def target_diag(truncation: Truncation) -> Target:
    """Equal-weight superposition of |n, n, n> for n = 0..4."""
    if truncation.j_max < 12:
        raise DomainError(
            f"the diagonal target needs j_max >= 12 (support up to |4,4,4>), got {truncation.j_max}"
        )
    amp = 1.0 / math.sqrt(5.0)
    entries = {Occupation(n, n, n): amp for n in range(5)}
    return Target(
        state=StateVector._wrap(_level_a_state(entries, truncation), truncation),
        description="diag",
        truncated_mass=0.0,
    )


def target_ghz(alpha: complex, truncation: Truncation) -> Target:
    """Normalized superposition of the coherent products |a,a,a> and |-a,-a,-a>.

    Amplitudes with odd total quanta cancel identically, so only even-total
    occupations appear.
    """
    _check_alpha(alpha)
    prefactor = math.exp(-1.5 * abs(alpha) ** 2)
    entries: dict[Occupation, complex] = {}
    for j in range(0, truncation.j_max + 1, 2):
        for nx in range(j + 1):
            for ny in range(j - nx + 1):
                nz = j - nx - ny
                entries[Occupation(nx, ny, nz)] = (
                    2.0
                    * prefactor
                    * alpha**j
                    / math.sqrt(
                        math.factorial(nx) * math.factorial(ny) * math.factorial(nz)
                    )
                )
    amps = _level_a_state(entries, truncation)
    kept = float(np.sum(np.abs(amps) ** 2))
    total = 2.0 + 2.0 * math.exp(-6.0 * abs(alpha) ** 2)  # untruncated norm**2
    return Target(
        state=StateVector._wrap(amps / math.sqrt(kept), truncation),
        description=f"ghz(alpha={alpha})",
        truncated_mass=1.0 - kept / total,
    )


def random_target(truncation: Truncation, rng: np.random.Generator) -> Target:
    """Haar-ish random unit state on level a; handy for round-trip checks."""
    vib = truncation.vibrational_dim
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    cols = amps.reshape(-1, len(Level))
    cols[:, Level.A] = rng.normal(size=vib) + 1j * rng.normal(size=vib)
    amps /= np.linalg.norm(amps)
    return Target(
        state=StateVector._wrap(amps, truncation),
        description="random",
        truncated_mass=0.0,
    )
