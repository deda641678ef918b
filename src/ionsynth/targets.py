"""Built-in target states and user-supplied targets.

Targets are full-space states on electronic level a, as post-selection needs
(``deevolve`` takes others).  When a built-in family extends past the
truncation, one step, ``_kept_target``, renormalizes the kept amplitudes and
reports the dropped probability mass so callers can judge the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .fock import (
    DomainError,
    Level,
    Occupation,
    StateVector,
    Truncation,
    _index_column,
    _number,
)

__all__ = ["Target", "target_corr", "target_diag", "target_ghz", "random_target"]


@dataclass(frozen=True)
class Target:
    state: StateVector
    description: str
    truncated_mass: float


def _level_a_state(entries: dict[Occupation, complex], truncation: Truncation) -> np.ndarray:
    """The amplitudes of ``entries`` on level a, placed by one ``fock._index_column`` call."""
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    quanta, level = list(chain.from_iterable(entries)), np.full(len(entries), Level.A)
    amps[_index_column("entry {} ", quanta, level, truncation.j_max)] = list(entries.values())
    return amps


def _prefactor(alpha: object, rate: float) -> tuple[complex, float]:
    """``alpha`` checked by ``fock._number``, and exp(-rate |alpha|^2); a prefactor
    that underflows to 0 is rejected before any alpha**n (which may overflow) is taken."""
    alpha = _number("alpha", alpha)
    # the exp is 0 long before |alpha| = 1e3, and |alpha|**2 raises past 1e154
    prefactor = math.exp(-rate * abs(alpha) ** 2) if abs(alpha) < 1e3 else 0.0
    _check_kept(prefactor, alpha)
    return alpha, prefactor


def _check_kept(kept: float, alpha: complex) -> None:
    if not (math.isfinite(kept) and kept > 0.0):
        raise DomainError(f"alpha={alpha!r} is too large: the kept target amplitudes underflow")


def _kept_target(entries: dict[Occupation, complex], truncation: Truncation, description: str,
                 total: float, alpha: complex) -> Target:
    """The level-a state of ``entries`` renormalized to unit norm; the mass the
    truncation drops is ``1 - kept/total``, ``total`` being the untruncated norm**2."""
    amps = _level_a_state(entries, truncation)
    kept = float(np.sum(np.abs(amps) ** 2))
    _check_kept(kept, alpha)
    return Target(StateVector(amps / math.sqrt(kept), truncation), description, 1.0 - kept / total)


def target_corr(alpha: complex, truncation: Truncation) -> Target:
    """Fully correlated state: amplitudes of a coherent state carried by the
    diagonal occupations |n, n, n>."""
    alpha, prefactor = _prefactor(alpha, 0.5)
    entries: dict[Occupation, complex] = {}
    for n in range(truncation.j_max // 3 + 1):
        entries[Occupation(n, n, n)] = prefactor * alpha**n / math.sqrt(math.factorial(n))
    return _kept_target(entries, truncation, f"corr(alpha={alpha})", 1.0, alpha)  # norm**2 is 1


def target_diag(truncation: Truncation) -> Target:
    """Equal-weight superposition of |n, n, n> for n = 0..4."""
    if truncation.j_max < 12:
        raise DomainError(
            f"the diagonal target needs j_max >= 12 (support up to |4,4,4>), got {truncation.j_max}"
        )
    amp = 1.0 / math.sqrt(5.0)
    entries = {Occupation(n, n, n): amp for n in range(5)}
    return Target(
        state=StateVector(_level_a_state(entries, truncation), truncation),
        description="diag",
        truncated_mass=0.0,
    )


def target_ghz(alpha: complex, truncation: Truncation) -> Target:
    """Normalized superposition of the coherent products |a,a,a> and |-a,-a,-a>.

    Amplitudes with odd total quanta cancel identically, so only even-total
    occupations appear.
    """
    alpha, prefactor = _prefactor(alpha, 1.5)
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
    total = 2.0 + 2.0 * math.exp(-6.0 * abs(alpha) ** 2)  # untruncated norm**2
    return _kept_target(entries, truncation, f"ghz(alpha={alpha})", total, alpha)


def random_target(truncation: Truncation, rng: np.random.Generator) -> Target:
    """Haar-ish random unit state on level a; handy for round-trip checks."""
    vib = truncation.vibrational_dim
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    cols = amps.reshape(-1, len(Level))
    cols[:, Level.A] = rng.normal(size=vib) + 1j * rng.normal(size=vib)
    amps /= np.linalg.norm(amps)
    return Target(
        state=StateVector(amps, truncation),
        description="random",
        truncated_mass=0.0,
    )
