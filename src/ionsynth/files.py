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
bit.  A pulse note must lie inside the file's cutoff ``jmax`` and on one of the
two levels its channel couples.  ``load_schedule`` checks each pulse field as a
whole column; an error names the first bad entry, ``pulses[i].<field>``.

Target files are a JSON array of ``{"n": [nx, ny, nz], "re": ..., "im": ...}``
components on electronic level a.  The norm must already be 1 to within 1e-6;
files that are not normalized are rejected, not fixed.
"""

from __future__ import annotations

import json
import os
from typing import Any

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
)
from .channels import CHANNELS, ChannelId, LambDickeParams
from .noise import SweepReport
from .pulses import Direction, Schedule
from .targets import Target, _level_a_state

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


# One pulse object and one note list, laid out as json.dump(indent=2) lays
# them out inside the top-level "pulses" array.
_PULSE_JSON = (
    '\n    {{\n      "i": {},\n      "channel": "{}",\n      "x": {!r},'
    '\n      "theta": {!r},\n      "note": {}\n    }}'
)
_NOTE_JSON = '[\n        {},\n        {},\n        {},\n        "{}"\n      ]'
_CHANNEL_NAMES = {cid.value: cid.name for cid in ChannelId}
_CHANNEL_CODES = {cid.name: cid.value for cid in ChannelId}
_MISSING = object()
# The least integer that float() rounds past the largest float.  Every finite
# float lies below it and inf and nan do not, so ``abs(v) < _FLOAT_END`` holds
# exactly for the JSON numbers that convert to a finite float.
_FLOAT_END = 2**1024 - 2**970


def save_schedule(schedule: Schedule, path: str | os.PathLike[str]) -> None:
    """Write ``schedule`` as JSON, streaming one pulse at a time.

    The bytes equal ``json.dump(doc, f, indent=2)`` of the whole document plus
    a trailing newline: the header goes through ``json.dumps``, each pulse
    through a fixed format string with ``repr`` floats.
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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        # The header without its closing "\n}", so the pulses array follows.
        f.write(json.dumps(head, indent=2)[:-2] + ',\n  "pulses": [')
        sep = ""
        columns = zip(
            schedule.channel.tolist(), schedule.x.tolist(), schedule.theta.tolist(), schedule.notes
        )
        for i, (code, x, theta, component) in enumerate(columns):
            note = "null"
            if component is not None:
                occ, level = component
                note = _NOTE_JSON.format(occ.nx, occ.ny, occ.nz, level.label)
            f.write(sep + _PULSE_JSON.format(i, _CHANNEL_NAMES[code], x, theta, note))
            sep = ","
        f.write("\n  ]\n}\n" if len(schedule) else "]\n}\n")


def _column(
    entries: list[Any], key: str, kinds: tuple[type, ...], where: str = "pulses[{}]."
) -> list[Any]:
    """Field ``key`` of every entry, each value of a type in ``kinds``."""
    values = [entry.get(key, _MISSING) for entry in entries]
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


def _parse_note(raw: Any, i: int, j_max: int, channel: ChannelId) -> Component | None:
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
    if level not in (CHANNELS[channel].lower_level, CHANNELS[channel].upper_level):
        raise ScheduleFormatError(f"{where}: level {label} is not coupled by channel {channel.name}")
    return Component(Occupation(nx, ny, nz), level)


# Level code of each label Level.from_label accepts, and whether channel code
# c couples level l, as _COUPLES[c, l].
_LEVEL_CODE = {label: int(level) for level in Level for label in (level.name, level.label)}
_COUPLES = np.zeros((len(ChannelId) + 1, len(Level)), dtype=bool)
for _spec in CHANNELS.values():
    _COUPLES[_spec.cid, [_spec.lower_level, _spec.upper_level]] = True


def _notes(raw: list[Any], channel: np.ndarray, j_max: int) -> list[Component | None]:
    """The note column: each ``null`` gives None, each valid note the canonical
    basis component.  The checks of :func:`_parse_note` run on whole columns;
    the first failing note is parsed by it, so its error names that note."""
    notes: list[Component | None] = [None] * len(raw)
    given = [i for i, note in enumerate(raw) if note is not None]
    # A note that is not a four-element list stands in as an entry that fails.
    rows = [raw[i] if type(raw[i]) is list and len(raw[i]) == 4 else (-1, 0, 0, "") for i in given]
    nx, ny, nz, labels = zip(*rows) if rows else ((), (), (), ())
    # Occupations outside 0..j_max, and any that are not int (bool, float), become -1.
    occ = np.array(
        [n if type(n) is int and 0 <= n <= j_max else -1 for n in nx + ny + nz], dtype=np.intp
    ).reshape(3, -1)
    level = np.array(
        [_LEVEL_CODE.get(label, -1) if type(label) is str else -1 for label in labels],
        dtype=np.intp,
    )
    code = channel[given]
    bad = (occ < 0).any(axis=0) | (occ.sum(axis=0) > j_max) | (level < 0)
    bad |= ~_COUPLES[code, level]
    if bad.any():
        i = given[int(np.flatnonzero(bad)[0])]
        _parse_note(raw[i], i, j_max, ChannelId(int(channel[i])))  # raises
    basis = _layout(j_max).basis
    index = len(Level) * _vib_index(*occ) + level
    for i, k in zip(given, index.tolist()):
        notes[i] = basis[k]
    return notes


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
    codes = list(map(_CHANNEL_CODES.get, names))
    if None in codes:
        i = codes.index(None)
        raise ScheduleFormatError(f"pulses[{i}].channel: unknown channel {names[i]!r}")
    x = _reals(entries, "x")
    theta = _reals(entries, "theta")
    channel = np.array(codes, dtype=np.uint8)
    notes = _notes([entry.get("note") for entry in entries], channel, jmax)
    try:
        return Schedule.from_columns(channel, x, theta, notes, ld, truncation, direction, target)
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


def load_target(path: str | os.PathLike[str], truncation: Truncation) -> Target:
    """Read a component-list target file and validate it against ``truncation``."""
    doc = _read_json(path, TargetFormatError)
    if not isinstance(doc, list):
        raise TargetFormatError("top level: expected an array of components")

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

    if not entries:
        raise TargetFormatError("target file holds no components")
    amps = _level_a_state(entries, truncation)
    with np.errstate(over="ignore"):  # |amplitude| past sqrt(max float) squares to inf
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise TargetFormatError(f"target norm {norm:.9f} differs from 1 by more than 1e-6")
    return Target(
        state=StateVector._wrap(amps / norm, truncation),
        description=f"file:{os.path.basename(os.fspath(path))}",
        truncated_mass=0.0,
    )
