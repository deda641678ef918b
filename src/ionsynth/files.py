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
them pulse by pulse.  Floats are written with Python's shortest round-trip
representation, so ``load_schedule(save_schedule(s)) == s`` bit for bit.  A
pulse note must lie inside the file's cutoff ``jmax`` and on one of the two
levels its channel couples.

Target files are a JSON array of ``{"n": [nx, ny, nz], "re": ..., "im": ...}``
components on electronic level a.  The norm must already be 1 to within 1e-6;
files that are not normalized are rejected, not fixed.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .fock import Component, DomainError, Level, Occupation, StateVector, Truncation
from .channels import CHANNELS, ChannelId, LambDickeParams
from .noise import SweepReport
from .pulses import Direction, Pulse, Schedule
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
        for i, pulse in enumerate(schedule.pulses):
            note = "null"
            if pulse.note is not None:
                occ, level = pulse.note
                note = _NOTE_JSON.format(occ.nx, occ.ny, occ.nz, level.label)
            f.write(sep + _PULSE_JSON.format(i, pulse.channel.name, pulse.x, pulse.theta, note))
            sep = ","
        f.write("\n  ]\n}\n" if schedule.pulses else "]\n}\n")


def _expect(doc: dict[str, Any], key: str, kinds: type | tuple[type, ...], where: str) -> Any:
    if key not in doc:
        raise ScheduleFormatError(f"{where}{key}: missing")
    value = doc[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ScheduleFormatError(f"{where}{key}: unexpected type {type(value).__name__}")
    return value


def _finite(doc: dict[str, Any], key: str, where: str) -> float:
    value = float(_expect(doc, key, (int, float), where))
    if not math.isfinite(value):
        raise ScheduleFormatError(f"{where}{key}: must be finite, got {value!r}")
    return value


def _parse_note(raw: Any, where: str, j_max: int, channel: ChannelId) -> Component | None:
    if raw is None:
        return None
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


def load_schedule(path: str | os.PathLike[str]) -> Schedule:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise ScheduleFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScheduleFormatError("top level: expected an object")
    version = _expect(doc, "version", int, "")
    if version != 1:
        raise ScheduleFormatError(f"version: unsupported value {version!r}")

    ld_doc = _expect(doc, "lamb_dicke", dict, "")
    try:
        ld = LambDickeParams(
            eps_x=_finite(ld_doc, "ex", "lamb_dicke."),
            eps_y=_finite(ld_doc, "ey", "lamb_dicke."),
            eps_z=_finite(ld_doc, "ez", "lamb_dicke."),
            eps_carrier=_finite(ld_doc, "exc", "lamb_dicke."),
        )
    except DomainError as exc:
        raise ScheduleFormatError(f"lamb_dicke: {exc}") from exc

    jmax = _expect(doc, "jmax", int, "")
    try:
        truncation = Truncation(jmax)
    except DomainError as exc:
        raise ScheduleFormatError(f"jmax: {exc}") from exc

    raw_direction = _expect(doc, "direction", str, "")
    try:
        direction = Direction(raw_direction)
    except ValueError as exc:
        raise ScheduleFormatError(f"direction: unknown value {raw_direction!r}") from exc

    target = _expect(doc, "target", str, "")

    raw_pulses = _expect(doc, "pulses", list, "")
    pulses = []
    for i, entry in enumerate(raw_pulses):
        where = f"pulses[{i}]."
        if not isinstance(entry, dict):
            raise ScheduleFormatError(f"pulses[{i}]: expected an object")
        index = _expect(entry, "i", int, where)
        if index != i:
            raise ScheduleFormatError(f"{where}i: expected {i}, got {index}")
        name = _expect(entry, "channel", str, where)
        try:
            channel = ChannelId[name]
        except KeyError as exc:
            raise ScheduleFormatError(f"{where}channel: unknown channel {name!r}") from exc
        x = _finite(entry, "x", where)
        theta = _finite(entry, "theta", where)
        note = _parse_note(entry.get("note"), f"{where}note", jmax, channel)
        try:
            pulses.append(Pulse(channel, x, theta, note))
        except DomainError as exc:
            raise ScheduleFormatError(f"pulses[{i}]: {exc}") from exc

    return Schedule(tuple(pulses), ld, truncation, direction, target)


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
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise TargetFormatError(f"{path}: invalid JSON ({exc})") from exc
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
            if not math.isfinite(item[key]):
                raise TargetFormatError(f"{where}.{key}: must be finite")
        entries[occ] = complex(item["re"], item["im"])

    if not entries:
        raise TargetFormatError("target file holds no components")
    amps = _level_a_state(entries, truncation)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise TargetFormatError(f"target norm {norm:.9f} differs from 1 by more than 1e-6")
    return Target(
        state=StateVector._wrap(amps / norm, truncation),
        description=f"file:{os.path.basename(os.fspath(path))}",
        truncated_mass=0.0,
    )
