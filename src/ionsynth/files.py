"""On-disk formats: schedule JSON, noise-sweep CSV, and target-state files.

Schedule files are UTF-8 JSON::

    {
      "version": 1,
      "lamb_dicke": {"ex": ..., "ey": ..., "ez": ..., "exc": ...},
      "jmax": 12,
      "direction": "preparation",
      "target": "diag",
      "pulses": [
        {"i": 0, "channel": "H4", "x": 1.57..., "theta": -0.78..., "note": [0, 0, 0, "c"]},
        ...
      ]
    }

The bytes on disk are exactly those of ``json.dump(doc, f, indent=2)`` plus
a trailing newline (the sketch above is compacted); ``save_schedule`` streams
them from the schedule's columns.  Floats are written with Python's shortest
round-trip representation, so ``load_schedule(save_schedule(s)) == s`` bit for
bit.  The header goes through ``json.dumps``; each pulse is one f-string, and
the pulses are joined and written :data:`_PULSES_PER_WRITE` at a time, so the
document is never held whole.  The floor is ``repr`` of the two floats per
pulse, about half of the writer's time at J_max 12 and 16.

A note is written as the component its basis index names, or ``null``;
``Schedule`` checks a note's level.  Target files are a JSON array of
``{"n": [nx, ny, nz], "re": ..., "im": ...}`` components on electronic level a,
normalized to 1 within 1e-6; files that are not are rejected, not fixed.

The loaders check clean notes and target components as whole columns, and any
others entry by entry through :func:`_parse_note` or :func:`_check_components`,
which word every fault.  An error names the first bad entry: ``pulses[i].<field>``
in a schedule, ``[i].<field>`` in a target.
"""

from __future__ import annotations

import json
import os
from itertools import chain, count, islice
from operator import itemgetter
from typing import Any, Iterator

import numpy as np

from .fock import (
    Component,
    DomainError,
    Level,
    Occupation,
    StateVector,
    Truncation,
    _layout,
    _vib_index,
    index_of,
)
from .channels import ChannelId, LambDickeParams
from .noise import SweepReport
from .pulses import Direction, Schedule, _note_components
from .targets import Target

__all__ = [
    "ScheduleFormatError",
    "TargetFormatError",
    "save_schedule",
    "load_schedule",
    "save_report",
    "load_target",
]

REPORT_HEADER = "delta,delta_theta,trials,fid_mean,fid_std,fid_post_mean,efficiency_mean"


class ScheduleFormatError(ValueError):
    """A schedule file could not be parsed or failed validation."""


class TargetFormatError(ValueError):
    """A target file could not be parsed or failed validation."""


# Level labels by level code, and pulses joined per write while streaming.
_LABELS = tuple(level.label for level in Level)
_PULSES_PER_WRITE = 256
_CHANNEL_NAMES = {cid.value: cid.name for cid in ChannelId}
_CHANNEL_CODES = {cid.name: cid.value for cid in ChannelId}
_MISSING = object()
# The least integer that float() rounds past the largest float.  Every finite
# float lies below it and inf and nan do not, so ``abs(v) < _FLOAT_END`` holds
# exactly for the JSON numbers that convert to a finite float.
_FLOAT_END = 2**1024 - 2**970


def _pulses_json(schedule: Schedule) -> Iterator[str]:
    """Each pulse object as json.dump(indent=2) lays it out inside the
    top-level "pulses" array: one f-string per pulse, floats through ``repr``."""
    names = map(_CHANNEL_NAMES.__getitem__, schedule.channel.tolist())
    # Notes one NumPy scalar at a time: a list adds 0.25 MiB to the peak at J_max 16.
    notes = _note_components(schedule.note, schedule.truncation.j_max)
    columns = zip(count(), names, schedule.x.tolist(), schedule.theta.tolist(), notes)
    for i, name, x, theta, note in columns:
        if note is None:
            yield (
                f'\n    {{\n      "i": {i},\n      "channel": "{name}",\n      "x": {x!r},'
                f'\n      "theta": {theta!r},\n      "note": null\n    }}'
            )
        else:
            (nx, ny, nz), level = note
            yield (
                f'\n    {{\n      "i": {i},\n      "channel": "{name}",\n      "x": {x!r},'
                f'\n      "theta": {theta!r},\n      "note": [\n        {nx},\n        {ny},'
                f'\n        {nz},\n        "{_LABELS[level]}"\n      ]\n    }}'
            )


def save_schedule(schedule: Schedule, path: str | os.PathLike[str]) -> None:
    """Write ``schedule`` as JSON, streaming :data:`_PULSES_PER_WRITE` pulses
    per write.

    The bytes equal ``json.dump(doc, f, indent=2)`` of the whole document plus
    a trailing newline: the header goes through ``json.dumps``, each pulse
    through :func:`_pulses_json`.
    """
    head = {
        "version": 1,
        "lamb_dicke": {
            "ex": schedule.lamb_dicke.eps_x,
            "ey": schedule.lamb_dicke.eps_y,
            "ez": schedule.lamb_dicke.eps_z,
            "exc": schedule.lamb_dicke.eps_carrier,
        },
        "jmax": schedule.truncation.j_max,
        "direction": schedule.direction.value,
        "target": schedule.target,
    }
    pulses = _pulses_json(schedule)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        # The header without its closing "\n}", so the pulses array follows.
        f.write(json.dumps(head, indent=2)[:-2] + ',\n  "pulses": [')
        sep = ""
        while chunk := ",".join(islice(pulses, _PULSES_PER_WRITE)):
            f.write(sep + chunk)
            sep = ","
        f.write("\n  ]\n}\n" if len(schedule) else "]\n}\n")


def _field(entries: list[dict[str, Any]], key: str, default: Any) -> list[Any]:
    """Field ``key`` of every entry, ``default`` where an entry lacks it."""
    try:
        return list(map(itemgetter(key), entries))
    except KeyError:
        return [entry.get(key, default) for entry in entries]


def _column(
    entries: list[Any], key: str, kinds: tuple[type, ...], where: str = "pulses[{}]."
) -> list[Any]:
    """Field ``key`` of every entry, each value of a type in ``kinds``."""
    values = _field(entries, key, _MISSING)
    if not set(map(type, values)) <= set(kinds):
        i, value = next((i, v) for i, v in enumerate(values) if type(v) not in kinds)
        problem = "missing" if value is _MISSING else f"unexpected type {type(value).__name__}"
        raise ScheduleFormatError(f"{where.format(i)}{key}: {problem}")
    return values


def _expect(doc: dict[str, Any], key: str, kinds: tuple[type, ...], where: str = "") -> Any:
    return _column([doc], key, kinds, where)[0]


def _reals(entries: list[Any], key: str, where: str = "pulses[{}].") -> np.ndarray:
    """Numeric field ``key`` of every entry as float64; an integer past the
    float range is a format error, not an ``OverflowError``."""
    values = _column(entries, key, (int, float), where)
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if type(v) is int and abs(v) >= _FLOAT_END)
        raise ScheduleFormatError(f"{where.format(i)}{key}: integer past the float range") from None


def _parse_note(raw: Any, i: int, j_max: int) -> Component | None:
    if raw is None:
        return None
    where = f"pulses[{i}].note"
    if not (isinstance(raw, list) and len(raw) == 4):
        raise ScheduleFormatError(f"{where}: expected [nx, ny, nz, level] or null")
    nx, ny, nz, label = raw
    for value in (nx, ny, nz):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ScheduleFormatError(f"{where}: occupation numbers must be integers >= 0")
    if nx + ny + nz > j_max:
        raise ScheduleFormatError(
            f"{where}: total occupation {nx + ny + nz} exceeds the cutoff {j_max}"
        )
    try:
        level = Level.from_label(label)
    except DomainError as exc:
        raise ScheduleFormatError(f"{where}: {exc}") from exc
    return Component(Occupation(nx, ny, nz), level)


def _parse_notes(raw: list[Any], j_max: int) -> np.ndarray:
    """The note column parsed note by note by :func:`_parse_note`, -1 for ``null``."""
    index = _layout(j_max).index  # a null note parses as None, which is not a key
    return np.array([index.get(_parse_note(n, i, j_max), -1) for i, n in enumerate(raw)], np.intp)


# Level code of each label Level.from_label accepts.
_LEVEL_CODE = {label: int(level) for level in Level for label in (level.name, level.label)}


class _Unclean(Exception):
    """Input that the column checks leave to the per-entry checkers."""


def _occupations(values: list[Any], j_max: int) -> np.ndarray:
    """``values``, nx, ny, nz after nx, ny, nz, as (3, n) occupations inside the cutoff."""
    if not set(map(type, values)) <= {int}:
        raise _Unclean
    occ = np.array(values, dtype=np.intp).reshape(-1, 3).T
    # Each of 0..j_max first, so that the total cannot wrap.
    if ((occ < 0) | (occ > j_max)).any() or (occ.sum(axis=0) > j_max).any():
        raise _Unclean
    return occ


def _rows(rows: list[Any], width: int) -> list[Any]:
    """The items of ``rows``, row after row, each row a list of ``width``."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        raise _Unclean
    return list(chain.from_iterable(rows))


def _notes(raw: list[Any], j_max: int) -> np.ndarray:
    """The note column as basis indices, -1 for each ``null``, checked whole if clean."""
    # A null note stands in as the note [0, 0, 0, "a"], set to -1 afterwards.
    null = [i for i, note in enumerate(raw) if note is None] if None in raw else []
    rows = [[0, 0, 0, "a"] if note is None else note for note in raw] if null else raw
    try:
        occupations = _rows(rows, 4)
        labels = occupations[3::4]
        del occupations[3::4]
        if not (set(map(type, labels)) <= {str} and set(labels) <= _LEVEL_CODE.keys()):
            raise _Unclean
        index = len(Level) * _vib_index(*_occupations(occupations, j_max))
    except (_Unclean, OverflowError):
        return _parse_notes(raw, j_max)
    index += np.array(list(map(_LEVEL_CODE.__getitem__, labels)), dtype=np.intp)
    index[null] = -1
    return index


def _read_json(path: str | os.PathLike[str], error: type[ValueError]) -> Any:
    """The JSON document in ``path``; a file json cannot decode raises ``error``."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge ints, deep nesting
        raise error(f"{path}: invalid JSON ({exc})") from exc


def load_schedule(path: str | os.PathLike[str]) -> Schedule:
    doc = _read_json(path, ScheduleFormatError)
    if not isinstance(doc, dict):
        raise ScheduleFormatError("top level: expected an object")
    version = _expect(doc, "version", (int,))
    if version != 1:
        raise ScheduleFormatError(f"version: unsupported value {version!r}")

    ld_doc = _expect(doc, "lamb_dicke", (dict,))
    eps = [_reals([ld_doc], key, "lamb_dicke.")[0] for key in ("ex", "ey", "ez", "exc")]
    try:
        ld = LambDickeParams(*map(float, eps))
    except DomainError as exc:
        raise ScheduleFormatError(f"lamb_dicke: {exc}") from exc

    jmax = _expect(doc, "jmax", (int,))
    try:
        truncation = Truncation(jmax)
    except DomainError as exc:
        raise ScheduleFormatError(f"jmax: {exc}") from exc

    raw_direction = _expect(doc, "direction", (str,))
    try:
        direction = Direction(raw_direction)
    except ValueError as exc:
        raise ScheduleFormatError(f"direction: unknown value {raw_direction!r}") from exc

    target = _expect(doc, "target", (str,))

    entries = _expect(doc, "pulses", (list,))
    if not set(map(type, entries)) <= {dict}:
        i = next(i for i, entry in enumerate(entries) if type(entry) is not dict)
        raise ScheduleFormatError(f"pulses[{i}]: expected an object")
    index = _column(entries, "i", (int,))
    if index != list(range(len(entries))):
        i = next(i for i, k in enumerate(index) if k != i)
        raise ScheduleFormatError(f"pulses[{i}].i: expected {i}, got {index[i]}")
    names = _column(entries, "channel", (str,))
    if not set(names) <= _CHANNEL_CODES.keys():
        i = next(i for i, name in enumerate(names) if name not in _CHANNEL_CODES)
        raise ScheduleFormatError(f"pulses[{i}].channel: unknown channel {names[i]!r}")
    x = _reals(entries, "x")
    theta = _reals(entries, "theta")
    channel = np.array(list(map(_CHANNEL_CODES.__getitem__, names)), dtype=np.uint8)
    note = _notes(_field(entries, "note", None), jmax)
    try:
        return Schedule.from_columns(channel, x, theta, note, ld, truncation, direction, target)
    except DomainError as exc:
        raise ScheduleFormatError(str(exc)) from exc


def save_report(report: SweepReport, path: str | os.PathLike[str]) -> None:
    """Write a sweep as CSV with a fixed header and locale-independent floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(REPORT_HEADER + "\n")
        for row in report.rows:
            cells = [
                repr(float(row.delta)),
                repr(float(row.delta_theta)),
                str(row.trials),
                repr(float(row.fid_mean)),
                repr(float(row.fid_std)),
                repr(float(row.fid_post_mean)),
                repr(float(row.efficiency_mean)),
            ]
            f.write(",".join(cells) + "\n")


def _check_components(doc: list[Any], truncation: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """Check the target entries one by one and raise the first bad entry's
    error; otherwise return each entry's basis index and amplitude."""
    entries: dict[Occupation, complex] = {}
    for i, item in enumerate(doc):
        where = f"[{i}]"
        if not isinstance(item, dict):
            raise TargetFormatError(f"{where}: expected an object")
        raw_n = item.get("n")
        if not (isinstance(raw_n, list) and len(raw_n) == 3):
            raise TargetFormatError(f"{where}.n: expected [nx, ny, nz]")
        for value in raw_n:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise TargetFormatError(f"{where}.n: occupation numbers must be integers >= 0")
        occ = Occupation(*raw_n)
        if occ.total > truncation.j_max:
            raise TargetFormatError(
                f"{where}.n: total occupation {occ.total} exceeds the cutoff {truncation.j_max}"
            )
        if occ in entries:
            raise TargetFormatError(f"{where}.n: duplicate component {tuple(occ)}")
        for key in ("re", "im"):
            if key not in item:
                raise TargetFormatError(f"{where}.{key}: missing")
            if not isinstance(item[key], (int, float)) or isinstance(item[key], bool):
                raise TargetFormatError(f"{where}.{key}: expected a number")
            if not abs(item[key]) < _FLOAT_END:
                raise TargetFormatError(f"{where}.{key}: must be finite and within the float range")
        entries[occ] = complex(item["re"], item["im"])
    index = [index_of(Component(occ, Level.A), truncation) for occ in entries]
    return np.array(index, dtype=np.intp), np.array(list(entries.values()), dtype=np.complex128)


def _components(doc: list[Any], truncation: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """Each target entry's basis index and amplitude, checked whole if clean."""
    try:
        if not set(map(type, doc)) <= {dict}:
            raise _Unclean
        vib = _vib_index(*_occupations(_rows(_field(doc, "n", None), 3), truncation.j_max))
        parts = [part for item in doc for part in (item.get("re"), item.get("im"))]
        if not set(map(type, parts)) <= {int, float}:
            raise _Unclean
        values = np.array(parts, dtype=np.float64).view(np.complex128)  # re, im pairs
        if not np.isfinite(values).all() or len(set(vib.tolist())) < len(doc):
            raise _Unclean
    except (_Unclean, OverflowError):  # OverflowError: an int past intp or the float range
        return _check_components(doc, truncation)
    return len(Level) * vib + Level.A, values


def load_target(path: str | os.PathLike[str], truncation: Truncation) -> Target:
    """Read a component-list target file and validate it against ``truncation``."""
    doc = _read_json(path, TargetFormatError)
    if not isinstance(doc, list):
        raise TargetFormatError("top level: expected an array of components")
    if not doc:
        raise TargetFormatError("target file holds no components")
    index, values = _components(doc, truncation)
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    amps[index] = values
    with np.errstate(over="ignore"):  # |amplitude| past sqrt(max float) squares to inf
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise TargetFormatError(f"target norm {norm:.9f} differs from 1 by more than 1e-6")
    return Target(
        state=StateVector._wrap(amps / norm, truncation),
        description=f"file:{os.path.basename(os.fspath(path))}",
        truncated_mass=0.0,
    )
