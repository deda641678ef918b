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

``load_schedule`` streams the layout that ``save_schedule`` writes and its
constants spell.  It reads :data:`_CHARS_PER_READ` characters at a time, parses
the keys before the array as one small object, and parses the array a batch of
whole entries at a time, cut after each read's last :data:`_ENTRY_END`; only
the columns outlive a batch.  Each search covers what the last read added and
the part of a match that can reach back across its start, so a long header or
entry is scanned once.  Any other layout (another indent, separator or key
order, keys after the array, no final newline), a batch that fails to parse or
a check, bad UTF-8 and deep nesting go to :func:`_load_whole`, which holds the
document and words every error.  Newlines are translated: CRLF copies stream.

This module checks a document's shape: that each field is present and of its
JSON type, the pulse indices, channel names and level labels.  Every number
goes through the rule :mod:`ionsynth.fock` owns for it: a length or phase
through ``fock._real_column`` in ``Schedule.from_columns``, a Lamb-Dicke value
through ``LambDickeParams``, an occupation through ``fock._occupation`` and a
target's ``re`` and ``im`` through ``fock._real``.  The schedule loaders check
clean notes as a whole column by ``fock._index_column``, others note by note through
:func:`_parse_note`, which words every fault; target components are checked
entry by entry through :func:`_check_components`.  An error names the first
bad entry: ``pulses[i].<field>`` in a schedule, ``[i].<field>`` in a target,
and a rule's refusal is its message under that name.  A Lamb-Dicke value is
named as ``LambDickeParams`` names it, after ``lamb_dicke: ``.

One owner each: :func:`_refused` turns a rule's ``DomainError`` into the
file's error, :data:`_LD_KEYS` names the Lamb-Dicke keys for the writer and
the reader, and ``SweepRow``'s fields are the sweep CSV's columns.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import astuple, fields
from itertools import chain, count, islice
from typing import Any, Iterator

import numpy as np

from .fock import (
    Component,
    DomainError,
    Level,
    Occupation,
    StateVector,
    Truncation,
    _basis_index,
    _index_column,
    _occupation,
    _real,
)
from .channels import ChannelId, LambDickeParams
from .noise import SweepReport, SweepRow
from .pulses import Direction, Schedule, _note_components
from .targets import Target, _level_a_state

__all__ = [
    "ScheduleFormatError",
    "TargetFormatError",
    "save_schedule",
    "load_schedule",
    "save_report",
    "load_target",
]

REPORT_HEADER = ",".join(field.name for field in fields(SweepRow))


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
_LD_KEYS = ("ex", "ey", "ez", "exc")  # a schedule file's names of LambDickeParams' fields


@contextmanager
def _refused(error: type[ValueError], where: str = "") -> Iterator[None]:
    """A rule's ``DomainError`` in the block, raised as ``error`` after ``where``."""
    try:
        yield
    except DomainError as exc:
        raise error(where + str(exc)) from exc


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


# The writer's layout, the only one the reader streams: the array opens the
# last key at _ARRAY_OPEN, each entry that another follows ends in _ENTRY_END,
# and the document ends in _DOC_END, or _EMPTY_END for an empty program.
_ARRAY_OPEN = '\n  "pulses": ['
_ENTRY_END = "\n    },"
_DOC_END = "\n  ]\n}\n"
_EMPTY_END = "]\n}\n"


def save_schedule(schedule: Schedule, path: str | os.PathLike[str]) -> None:
    """Write ``schedule`` as JSON, streaming :data:`_PULSES_PER_WRITE` pulses
    per write.

    The bytes equal ``json.dump(doc, f, indent=2)`` of the whole document plus
    a trailing newline: the header goes through ``json.dumps``, each pulse
    through :func:`_pulses_json`.
    """
    head = {
        "version": 1,
        "lamb_dicke": dict(zip(_LD_KEYS, astuple(schedule.lamb_dicke))),
        "jmax": schedule.truncation.j_max,
        "direction": schedule.direction.value,
        "target": schedule.target,
    }
    pulses = _pulses_json(schedule)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        # The header without its closing "\n}", so the pulses array follows.
        f.write(json.dumps(head, indent=2)[:-2] + "," + _ARRAY_OPEN)
        sep = ""
        while chunk := ",".join(islice(pulses, _PULSES_PER_WRITE)):
            f.write(sep + chunk)
            sep = ","
        f.write(_DOC_END if len(schedule) else _EMPTY_END)


def _column(
    entries: list[Any], key: str, kinds: tuple[type, ...], where: str = "pulses[{}].", base: int = 0
) -> list[Any]:
    """Field ``key`` of every entry, each value of a type in ``kinds``; the
    entries are numbered from ``base``."""
    values = [entry.get(key, _MISSING) for entry in entries]
    if not set(map(type, values)) <= set(kinds):
        i, value = next((i, v) for i, v in enumerate(values, base) if type(v) not in kinds)
        problem = "missing" if value is _MISSING else f"unexpected type {type(value).__name__}"
        raise ScheduleFormatError(f"{where.format(i)}{key}: {problem}")
    return values


def _expect(doc: dict[str, Any], key: str, kinds: tuple[type, ...], where: str = "") -> Any:
    return _column([doc], key, kinds, where)[0]


def _parse_note(raw: Any, i: int, j_max: int) -> Component | None:
    if raw is None:
        return None
    where = f"pulses[{i}].note"
    if not (isinstance(raw, list) and len(raw) == 4):
        raise ScheduleFormatError(f"{where}: expected [nx, ny, nz, level] or null")
    with _refused(ScheduleFormatError):
        occ = _occupation(where, raw[:3], j_max)
    with _refused(ScheduleFormatError, f"{where}: "):
        return Component(occ, Level.from_label(raw[3]))


def _parse_notes(raw: list[Any], j_max: int, base: int = 0) -> np.ndarray:
    """The note column parsed note by note by :func:`_parse_note`, -1 for
    ``null``; the notes are those of pulses ``base``, ``base + 1``, ..."""
    notes = (_parse_note(n, i, j_max) for i, n in enumerate(raw, base))
    return np.array([-1 if c is None else _basis_index(*c) for c in notes], np.intp)


# Level code of each label Level.from_label accepts.
_LEVEL_CODE = {label: int(level) for level in Level for label in (level.name, level.label)}


class _Unclean(Exception):
    """Input a fast path leaves to a slower reader: the per-note parser or the whole-document one."""


def _notes(raw: list[Any], j_max: int, base: int = 0) -> np.ndarray:
    """The note column of pulses ``base``, ``base + 1``, ... as basis indices,
    -1 for each ``null``, checked whole by ``fock._index_column`` if clean."""
    # A null note stands in as the note [0, 0, 0, "a"], set to -1 afterwards.
    null = [i for i, note in enumerate(raw) if note is None] if None in raw else []
    rows = [[0, 0, 0, "a"] if note is None else note for note in raw] if null else raw
    try:
        if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {4}):
            raise _Unclean
        quanta = list(chain.from_iterable(rows))
        labels = quanta[3::4]
        del quanta[3::4]
        if not (set(map(type, labels)) <= {str} and set(labels) <= _LEVEL_CODE.keys()):
            raise _Unclean
        level = np.array(list(map(_LEVEL_CODE.__getitem__, labels)), dtype=np.intp)
        index = _index_column("pulses[{}].note ", quanta, level, j_max)
    except (_Unclean, ValueError):  # ValueError: a DomainError, or a ragged entry
        return _parse_notes(raw, j_max, base)
    index[null] = -1
    return index


def _read_json(path: str | os.PathLike[str], error: type[ValueError]) -> Any:
    """The JSON document in ``path``; a file json cannot decode raises ``error``."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge ints, deep nesting
        raise error(f"{path}: invalid JSON ({exc})") from exc


def _header(doc: Any) -> tuple[LambDickeParams, Truncation, Direction, str]:
    """The checked fields of a schedule document other than its pulses."""
    if not isinstance(doc, dict):
        raise ScheduleFormatError("top level: expected an object")
    version = _expect(doc, "version", (int,))
    if version != 1:
        raise ScheduleFormatError(f"version: unsupported value {version!r}")

    ld_doc = _expect(doc, "lamb_dicke", (dict,))
    eps = [_expect(ld_doc, key, (int, float), "lamb_dicke.") for key in _LD_KEYS]
    with _refused(ScheduleFormatError, "lamb_dicke: "):
        ld = LambDickeParams(*eps)

    jmax = _expect(doc, "jmax", (int,))
    with _refused(ScheduleFormatError, "jmax: "):
        truncation = Truncation(jmax)

    raw_direction = _expect(doc, "direction", (str,))
    try:
        direction = Direction(raw_direction)
    except ValueError as exc:
        raise ScheduleFormatError(f"direction: unknown value {raw_direction!r}") from exc

    return ld, truncation, direction, _expect(doc, "target", (str,))


def _pulse_columns(entries: list[Any], j_max: int, base: int = 0) -> tuple[np.ndarray, ...]:
    """The channel, x, theta and note columns of the entries of pulses
    ``base``, ``base + 1``, ...; an error names the first bad entry."""
    if not set(map(type, entries)) <= {dict}:
        i = next(i for i, entry in enumerate(entries, base) if type(entry) is not dict)
        raise ScheduleFormatError(f"pulses[{i}]: expected an object")
    index = _column(entries, "i", (int,), base=base)
    if index != list(range(base, base + len(entries))):
        i = next(i for i, k in enumerate(index, base) if k != i)
        raise ScheduleFormatError(f"pulses[{i}].i: expected {i}, got {index[i - base]}")
    names = _column(entries, "channel", (str,), base=base)
    if not set(names) <= _CHANNEL_CODES.keys():
        i = next(i for i, name in enumerate(names, base) if name not in _CHANNEL_CODES)
        raise ScheduleFormatError(f"pulses[{i}].channel: unknown channel {names[i - base]!r}")
    # Schedule.from_columns checks the values, naming pulses[i].x and .theta.
    x = np.array(_column(entries, "x", (int, float), base=base))
    theta = np.array(_column(entries, "theta", (int, float), base=base))
    channel = np.array(list(map(_CHANNEL_CODES.__getitem__, names)), dtype=np.uint8)
    return channel, x, theta, _notes([entry.get("note") for entry in entries], j_max, base)


def _schedule(columns: tuple[np.ndarray, ...], *header: Any) -> Schedule:
    with _refused(ScheduleFormatError):
        return Schedule.from_columns(*columns, *header)


def _load_whole(path: str | os.PathLike[str]) -> Schedule:
    """The schedule in ``path`` parsed as one document: the reader of any file
    the streaming pass does not take as clean, and the one that words errors."""
    doc = _read_json(path, ScheduleFormatError)
    header = _header(doc)
    entries = _expect(doc, "pulses", (list,))
    return _schedule(_pulse_columns(entries, header[1].j_max), *header)


_CHARS_PER_READ = 1 << 16  # characters read per call while streaming a schedule


def _stream_schedule(path: str | os.PathLike[str]) -> Schedule:
    """The schedule in ``path``, streamed as the module docstring says; another
    layout raises ``_Unclean``, and a failed parse or check its error."""
    with open(path, encoding="utf-8") as f:
        text, key = "", -1
        while key < 0:
            if not (chunk := f.read(_CHARS_PER_READ)):
                raise _Unclean
            text += chunk
            key = text.find(_ARRAY_OPEN, max(0, len(text) - len(chunk) - len(_ARRAY_OPEN) + 1))
        # No JSON string holds the match's raw newline, so the text up to it,
        # the array closed, parses only if the match opens a top-level key.
        end = key + len(_ARRAY_OPEN)
        head = json.loads(text[:end] + "]}")
        j_max = Truncation(_expect(head, "jmax", (int,))).j_max
        rest, batches, base = text[end:], [], 0
        del text
        while True:
            # The end of the last entry that another follows, searched for only
            # where the last read, which rest starts inside at first, can end it.
            cut = rest.rfind(_ENTRY_END, max(0, len(rest) - len(chunk) - len(_ENTRY_END) + 1))
            if cut >= 0:
                entries = json.loads("[" + rest[: cut + len(_ENTRY_END) - 1] + "]")
                batches.append(_pulse_columns(entries, j_max, base))
                base += len(entries)
                rest = rest[cut + len(_ENTRY_END) :]
            if not (chunk := f.read(_CHARS_PER_READ)):
                break
            rest += chunk
    if rest == _EMPTY_END and not base:
        entries = []
    elif rest.endswith("}" + _DOC_END):  # the last entry, not a comma, before "]"
        entries = json.loads("[" + rest[: -len(_DOC_END)] + "]")
    else:
        raise _Unclean
    batches.append(_pulse_columns(entries, j_max, base))
    columns = tuple(map(np.concatenate, zip(*batches)))
    return _schedule(columns, *_header(head))


def load_schedule(path: str | os.PathLike[str]) -> Schedule:
    """Read a schedule file, streaming the pulses of the layout
    :func:`save_schedule` writes; an error names the first bad field or entry."""
    try:
        return _stream_schedule(path)
    except (_Unclean, ValueError, RecursionError):  # bad JSON or UTF-8, a failed check
        pass  # read whole outside the handler, whose traceback holds the stream's text
    return _load_whole(path)


def save_report(report: SweepReport, path: str | os.PathLike[str]) -> None:
    """Write a sweep as CSV with a fixed header and locale-independent floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(REPORT_HEADER + "\n")
        for row in report.rows:
            cells = (str(v) if k == "trials" else repr(float(v)) for k, v in vars(row).items())
            f.write(",".join(cells) + "\n")


def _check_components(doc: list[Any], j_max: int) -> dict[Occupation, complex]:
    """Check the target entries one by one and raise the first bad entry's
    error; otherwise return each entry's amplitude by its occupation."""
    entries: dict[Occupation, complex] = {}
    with _refused(TargetFormatError):
        for i, item in enumerate(doc):
            where = f"[{i}]"
            if not isinstance(item, dict):
                raise TargetFormatError(f"{where}: expected an object")
            raw_n = item.get("n")
            if not (isinstance(raw_n, list) and len(raw_n) == 3):
                raise TargetFormatError(f"{where}.n: expected [nx, ny, nz]")
            occ = _occupation(f"{where}.n", raw_n, j_max)
            if occ in entries:
                raise TargetFormatError(f"{where}.n: duplicate component {tuple(occ)}")
            if "re" not in item:
                raise TargetFormatError(f"{where}.re: missing")
            real = _real(f"{where}.re", item["re"])
            if "im" not in item:
                raise TargetFormatError(f"{where}.im: missing")
            entries[occ] = complex(real, _real(f"{where}.im", item["im"]))
    return entries


def load_target(path: str | os.PathLike[str], truncation: Truncation) -> Target:
    """Read a component-list target file and validate it against ``truncation``."""
    doc = _read_json(path, TargetFormatError)
    if not isinstance(doc, list):
        raise TargetFormatError("top level: expected an array of components")
    if not doc:
        raise TargetFormatError("target file holds no components")
    amps = _level_a_state(_check_components(doc, truncation.j_max), truncation)
    with np.errstate(over="ignore"):  # |amplitude| past sqrt(max float) squares to inf
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise TargetFormatError(f"target norm {norm:.9f} differs from 1 by more than 1e-6")
    return Target(
        state=StateVector(amps / norm, truncation),
        description=f"file:{os.path.basename(os.fspath(path))}",
        truncated_mass=0.0,
    )
