"""Truncated state space for three vibrational modes and four electronic levels.

The vibrational space is truncated by total quantum number: a truncation with
``j_max`` keeps every occupation (nx, ny, nz) with nx + ny + nz <= j_max.
Every interaction channel in this package preserves or lowers the total, so
the truncated space is exactly closed under the dynamics.

Basis components are ordered by ascending total J, then nx, then ny, with the
four electronic levels innermost.  Grouping by J keeps each synthesis stage in
a contiguous index range.  In closed form, the occupation (nx, ny, nz) of total
J = nx + ny + nz has vibrational index

    C(J + 2, 3) + nx*(J + 1) - nx*(nx - 1)/2 + ny

(the C(J + 2, 3) occupations of lower total come first, then the rows of
smaller nx, each J - nx + 1 long), and its component on electronic level l has
index 4*vib + l.  This module owns that order, and :func:`_basis_index` is its
one implementation, which every other module reads through this module.

A :class:`StateVector` is built only by its constructor, which copies the
amplitudes and checks their shape.

It also owns the package's numeric-argument rules, which every constructor,
entry point and file reader that takes a cutoff, a count, an occupation, a
channel code, a basis index, a width, a length, a phase, an amplitude or a
coherent amplitude calls: :func:`_integer` takes an ``int`` or a NumPy integer,
never a ``bool``, at or above a lower bound and, if one is given, at or below
an upper bound, a cap, and returns an ``int``; :func:`_integer_column` applies
it to a column of channel codes, note indices or occupation entries and words
the first refusal as :func:`_integer` does; :func:`_occupation` takes three of
them >= 0 whose total is at most a cutoff; :func:`_flag_column` takes a column
of ``bool`` flags; :func:`_real` takes a real number, never a ``bool``,
that is finite as a float (and, if asked, >= 0), and returns that float;
:func:`_real_column` applies it to a column of lengths or phases and words the
first refusal as :func:`_real` does; :func:`_number` takes a finite real or
complex number, never a ``bool``, and returns a ``float`` or a ``complex``.  A
value a rule refuses raises :class:`DomainError`, so an integer past the float
range is refused, not an ``OverflowError``.  Every message that shows a
caller's value shows it through :func:`_shown`, so one that Python will not
print (an integer of more than 4,300 digits) is still refused by a
:class:`DomainError`.
"""

from __future__ import annotations

import cmath
import math
import numbers
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


def _shown(value: object) -> str:
    """``repr(value)``, or a placeholder for a value it refuses."""
    try:
        return repr(value)
    except ValueError:  # an integer past the digit limit of int-to-str conversion
        return f"<{type(value).__name__} too long to print>"


def _integer(name: str, value: object, low: int, high: int | None = None) -> int:
    """``value`` as an ``int``: an ``int`` or NumPy integer, not a ``bool``, >= ``low``
    and, if ``high`` is given, <= ``high``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {_shown(value)}")
    if high is not None and value > high:
        raise DomainError(f"{name} {_shown(int(value))} exceeds the cap of {high}")
    return int(value)


def _real(name: str, value: object, non_negative: bool = False) -> float:
    """``value`` as a finite ``float``: a real number, not a ``bool``, and
    >= 0 if ``non_negative``."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer or fraction past the float range
            pass
    if non_negative and not (math.isfinite(number) and number >= 0):
        raise DomainError(f"{name} must be a finite non-negative real, got {_shown(value)}")
    if not math.isfinite(number):
        raise DomainError(f"{name} must be a finite real, got {_shown(value)}")
    return number


def _number(name: str, value: object) -> float | complex:
    """``value`` as a finite ``float`` if it is a real number, else as a finite
    ``complex``: a real or complex number, not a ``bool``."""
    number = complex(math.nan)
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            number = complex(value)
        except OverflowError:  # an integer or fraction past the float range
            pass
    if not cmath.isfinite(number):
        raise DomainError(f"{name} must be a finite real or complex number, got {_shown(value)}")
    return number.real if isinstance(value, numbers.Real) else number


def _whole(array: np.ndarray, column: object) -> bool:
    """Whether ``column``'s cast ``array`` is 1-D and hides no bool, NumPy bool or array entry."""
    kinds = {bool, np.bool_, np.ndarray}
    return array.ndim == 1 and (array is column or kinds.isdisjoint(map(type, column)))


def _real_column(name: str, column: object, non_negative: bool = False) -> np.ndarray:
    """``column`` (1-D) as float64 by :func:`_real`'s rule, entry i named ``name.format(i)``.
    Integers and floats, not cast from bools or arrays, are checked whole (float64 uncopied);
    any other column, or one with a bad entry, goes through :func:`_real` entry by entry."""
    array = np.asarray(column)
    if _whole(array, column) and array.dtype.kind in "iuf" and np.can_cast(array.dtype, np.float64):
        floats = array.astype(np.float64, copy=False)
        ok = np.isfinite(floats)
        if non_negative:
            ok &= floats >= 0.0
        if ok.all():
            return floats
    entries = array.tolist() if array is column else column
    return np.array([_real(name.format(i), v, non_negative) for i, v in enumerate(entries)])


def _integer_column(name: str, column: object, low: int, high: int) -> np.ndarray:
    """``column`` (1-D) by :func:`_integer`'s rule in [``low``, ``high``], entry i named
    ``name.format(i)``.  Integers, not cast from bools or arrays, are checked whole (uncopied);
    any other column, or one with a bad entry, goes through :func:`_integer` entry by entry."""
    try:
        array = np.asarray(column)
    except ValueError:  # a ragged column, which NumPy cannot cast
        array = None
    whole = array is not None and _whole(array, column) and array.dtype.kind in "iu"
    if whole and ((array >= low) & (array <= high)).all():
        return array
    entries = array.tolist() if array is column else column
    return np.array([_integer(name.format(i), v, low, high) for i, v in enumerate(entries)])


def _flag_column(name: str, column: list) -> np.ndarray:
    """``column`` as a bool array: each entry a ``bool`` or NumPy bool, never an integer
    or another truthy value; the first other entry i is refused, named ``name.format(i)``."""
    if not {bool, np.bool_}.issuperset(map(type, column)):
        i, value = next((i, v) for i, v in enumerate(column) if type(v) not in (bool, np.bool_))
        raise DomainError(f"{name.format(i)} must be a bool, got {_shown(value)}")
    return np.array(column, dtype=bool)


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
            raise DomainError(f"unknown electronic level {_shown(label)}") from None


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


# The largest cutoff accepted: 92,741 pulses and 49,364 basis components.
J_MAX_CAP = 40


@dataclass(frozen=True)
class Truncation:
    """Keep occupations with total quanta nx + ny + nz <= j_max <= J_MAX_CAP."""

    j_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "j_max", _integer("j_max", self.j_max, 0, J_MAX_CAP))

    @property
    def dim(self) -> int:
        """Number of basis components: 4 * C(j_max + 3, 3)."""
        return 4 * math.comb(self.j_max + 3, 3)

    @property
    def vibrational_dim(self) -> int:
        return math.comb(self.j_max + 3, 3)


def _vib_index(nx: np.ndarray, ny: np.ndarray, nz: np.ndarray) -> np.ndarray:
    """Canonical vibrational index of each occupation (module docstring)."""
    j = nx + ny + nz
    return (j + 2) * (j + 1) * j // 6 + nx * (j + 1) - nx * (nx - 1) // 2 + ny


def _basis_index(occ, level):
    """Basis index of the occupations ``occ`` (nx, ny, nz) on ``level``, unchecked."""
    return len(Level) * _vib_index(*occ) + level


class _Layout(NamedTuple):
    """The canonical order below one cutoff, from index to component (``occ`` is
    read-only); :func:`_basis_index`, the order's one implementation, maps back."""

    occ: np.ndarray  # occ[:, v] is the (nx, ny, nz) of vibrational index v
    basis: tuple[Component, ...]


@lru_cache(maxsize=32)
def _layout(j_max: int) -> _Layout:
    cube = np.indices((j_max + 1,) * 3).reshape(3, -1)
    cube = cube[:, cube.sum(axis=0) <= j_max]
    occ = np.empty_like(cube)
    occ[:, _vib_index(*cube)] = cube
    levels = tuple(Level)
    basis = tuple(
        Component(o, level) for o in map(Occupation._make, occ.T.tolist()) for level in levels
    )
    occ.setflags(write=False)
    return _Layout(occ, basis)


def enumerate_basis(truncation: Truncation) -> tuple[Component, ...]:
    """All basis components in canonical order."""
    return _layout(truncation.j_max).basis


def _occupation(name: str, numbers, j_max: int) -> Occupation:
    """``numbers`` (nx, ny, nz) as an occupation inside the cutoff ``j_max``: each
    number by :func:`_integer`'s rule, >= 0 and named ``name``, then the total."""
    nx, ny, nz = numbers  # unpacked, not a generator: this runs once per target entry
    occ = Occupation(_integer(name, nx, 0), _integer(name, ny, 0), _integer(name, nz, 0))
    if occ.total > j_max:  # a sum of Python ints, which cannot wrap
        total = _shown(occ.total)
        raise DomainError(f"{name}: total occupation {total} exceeds the cutoff {j_max}")
    return occ


def index_of(component: Component, truncation: Truncation) -> int:
    """Position of ``component`` in the canonical order: its occupation by
    :func:`_occupation`'s rule and its level by :func:`_integer`'s, in 0..3."""
    try:
        occ, level = component
        occ = _occupation("", occ, truncation.j_max)
        return _basis_index(occ, _integer("", level, 0, len(Level) - 1))
    except (TypeError, ValueError):  # no (occupation, level) pair, or a refused number
        raise DomainError(
            f"component {_shown(component)} is not inside the truncation j_max={truncation.j_max}"
        ) from None


def _index_column(name: str, quanta: list, level, j_max: int) -> np.ndarray:
    """:func:`index_of` over columns: ``quanta`` holds the nx, ny and nz of each occupation
    in turn, ``level`` its level.  Plain ints are cast at once; other numbers go through
    :func:`_integer_column` over the intp range, named ``name.format(i)`` and the field.
    A level is in 0..3, and an occupation outside the cutoff ``j_max`` raises as
    :func:`index_of` words it."""
    occ = None
    if set(map(type, quanta)) <= {int}:
        try:
            occ = np.array(quanta, dtype=np.intp).reshape(-1, 3).T
        except OverflowError:  # an int past intp
            pass
    if occ is None:
        bounds = np.iinfo(np.intp)
        occ = np.array([_integer_column(name + field, quanta[axis::3], bounds.min, bounds.max)
                        for axis, field in enumerate(Occupation._fields)], dtype=np.intp)
    level = _integer_column(name + "level", level, 0, len(Level) - 1)
    # An entry outside 0..j_max is caught by itself, so a total that wraps cannot slip past.
    if ((occ < 0) | (occ > j_max)).any() or (occ.sum(axis=0) > j_max).any():
        for numbers, code in zip(occ.T.tolist(), level.tolist()):  # index_of raises at the first
            index_of(Component(Occupation._make(numbers), Level(code)), Truncation(j_max))
    return _basis_index(occ, level)


def _total_j(indices: np.ndarray, truncation: Truncation) -> np.ndarray:
    """Total quanta J of each basis index."""
    return _layout(truncation.j_max).occ[:, np.asarray(indices) // len(Level)].sum(axis=0)


def component_of(index: int, truncation: Truncation) -> Component:
    """Inverse of :func:`index_of`."""
    basis = _layout(truncation.j_max).basis
    return basis[_integer("basis index", index, 0, len(basis) - 1)]


class StateVector:
    """Complex amplitudes over the canonical component basis.

    The constructor is the one way to build a state: it copies ``amplitudes``
    into a new complex128 array and checks that its shape is ``(dim,)``.
    """

    __slots__ = ("amplitudes", "truncation")

    def __init__(self, amplitudes, truncation: Truncation):
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (truncation.dim,):
            raise DomainError(
                f"amplitude array has shape {amps.shape}, expected ({truncation.dim},)"
            )
        self.amplitudes = amps
        self.truncation = truncation

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes, self.truncation)

    def norm(self) -> float:
        with np.errstate(over="ignore"):  # |amplitude| past sqrt(max float) squares to inf
            return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if not math.isfinite(n):
            raise DomainError(f"cannot normalize a state of norm {n!r}")
        if n < 1e-300:
            raise DomainError("cannot normalize a zero state")
        return StateVector(self.amplitudes / n, self.truncation)

    def amplitude(self, component: Component) -> complex:
        return complex(self.amplitudes[index_of(component, self.truncation)])

    def level_probabilities(self) -> np.ndarray:
        """Population per electronic level, in level order; sums to norm**2."""
        cols = self.amplitudes.reshape(-1, len(Level))
        with np.errstate(over="ignore"):  # |amplitude| past sqrt(max float) squares to inf
            return np.sum(np.abs(cols) ** 2, axis=0)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.truncation.dim}, j_max={self.truncation.j_max})"


def basis_state(component: Component, truncation: Truncation) -> StateVector:
    """Unit amplitude on a single component."""
    state = StateVector(np.zeros(truncation.dim), truncation)
    state.amplitudes[index_of(component, truncation)] = 1.0
    return state


def vacuum_state(truncation: Truncation) -> StateVector:
    """The motional ground state on electronic level a."""
    return basis_state(Component(Occupation(0, 0, 0), Level.A), truncation)


def overlap(u: StateVector, v: StateVector) -> complex:
    """Inner product <u|v>, conjugate-linear in ``u``."""
    if u.truncation != v.truncation:
        raise DomainError(
            f"truncation mismatch: j_max={u.truncation.j_max} vs j_max={v.truncation.j_max}"
        )
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def fidelity_to_target(out: StateVector, target: StateVector) -> float:
    """|<out|target>|**2, the overlap with a target of any support.

    Global phases drop out, so a preparation that reproduces the target up to
    an overall phase scores exactly 1.  A NaN or inf amplitude raises DomainError.
    """
    amplitude = overlap(out, target)
    if not cmath.isfinite(amplitude):  # min(1.0, nan) would score it 1
        raise DomainError(f"overlap with the target is not finite, got {amplitude!r}")
    return min(1.0, abs(amplitude)) ** 2  # capped first, so |amplitude| > 1e154 cannot overflow


def _target_norm(target: StateVector) -> float:
    """A target's norm, which must lie within 1e-6 of 1, or DomainError."""
    norm = target.norm()
    if not abs(norm - 1.0) <= 1e-6:  # written so that a NaN norm fails too
        raise DomainError(f"target must be normalized, got norm {norm!r}")
    return norm


def project_level(state: StateVector, level: Level) -> tuple[StateVector, float]:
    """Project onto one electronic level and renormalize.

    Returns the renormalized conditional state and the probability of the
    projection.  Raises :class:`DomainError` when the state has no support on
    the requested level, or a probability there that is not finite.
    """
    cols = state.amplitudes.reshape(-1, len(Level))
    with np.errstate(over="ignore"):  # |amplitude| past sqrt(max float) squares to inf
        p = float(np.sum(np.abs(cols[:, level]) ** 2))
    if not math.isfinite(p):
        raise DomainError(f"state's probability on level {level.label!r} is {p!r}, not finite")
    if p == 0.0:
        raise DomainError(f"state has no support on level {level.label!r}")
    projected = np.zeros_like(cols)
    projected[:, level] = cols[:, level] / math.sqrt(p)
    return StateVector(projected.reshape(-1), state.truncation), p
