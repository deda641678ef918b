"""Span tracing of ionsynth from outside the package.

The tracer swaps a module attribute at the name the caller uses (for example
``ionsynth.cli.deevolve`` or ``ionsynth.pulses.coupled_pairs``) for a wrapper
that records a span around the call.  The modules import each other by name,
so patching the defining module alone would miss every internal call.  The
program itself is never edited.

Spans hold name, layer, start, end, parent index and request id.  They stay in
memory and are written out when the run ends.  Counters are recorded at the
same boundaries; the time spent computing them is its own ``trace.count``
span, so it lands in the ``trace`` layer and not in the caller's self time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time
from typing import Any, Callable

LAYERS = ("fock", "targets", "channels", "pulses", "synthesis", "noise", "files", "cli")

# (module the caller lives in, attribute name, layer that defines the function)
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("ionsynth.cli", "main", "cli"),
    ("ionsynth.cli", "deevolve", "synthesis"),
    ("ionsynth.cli", "save_schedule", "files"),
    ("ionsynth.cli", "load_schedule", "files"),
    ("ionsynth.cli", "load_target", "files"),
    ("ionsynth.cli", "target_ghz", "targets"),
    ("ionsynth.cli", "target_corr", "targets"),
    ("ionsynth.cli", "target_diag", "targets"),
    ("ionsynth.cli", "apply_schedule", "pulses"),
    ("ionsynth.cli", "fidelity_to_target", "fock"),
    ("ionsynth.cli", "vacuum_state", "fock"),
    ("ionsynth.synthesis", "deevolve", "synthesis"),
    ("ionsynth.synthesis", "dagger_schedule", "pulses"),
    ("ionsynth.pulses", "coupled_pairs", "channels"),
    ("ionsynth.pulses", "apply_schedule", "pulses"),
    ("ionsynth.channels", "enumerate_basis", "fock"),
    ("ionsynth.fock", "enumerate_basis", "fock"),
    ("ionsynth.targets", "target_corr", "targets"),
    ("ionsynth.files", "save_schedule", "files"),
    ("ionsynth.files", "load_schedule", "files"),
    ("ionsynth.noise", "run_trials", "noise"),
    ("ionsynth.noise", "simulate_trial", "noise"),
    ("ionsynth.noise", "perturb", "noise"),
    ("ionsynth.noise", "apply_schedule", "pulses"),
    ("ionsynth.noise", "fidelity_to_target", "fock"),
    ("ionsynth.noise", "vacuum_state", "fock"),
)

NAME, LAYER, START, END, PARENT, REQUEST = range(6)


def _count_deevolve(tracer: "Tracer", counts, args, result) -> None:
    pulses = result.deevolution.pulses
    counts["synthesis.pulses_emitted"] += len(pulses)
    counts["synthesis.zero_pulses"] += sum(1 for p in pulses if p.x == 0.0)


def _count_apply(tracer: "Tracer", counts, args, result) -> None:
    schedule = args[1]
    nonzero = collections.Counter(p.channel for p in schedule.pulses if p.x != 0.0)
    counts["pulses.pulses_applied"] += len(schedule)
    counts["pulses.nonzero"] += sum(nonzero.values())
    for cid, n in nonzero.items():
        size = tracer.pair_count(cid, schedule.truncation, schedule.lamb_dicke)
        counts["pulses.pair_rotations_computed"] += n * size


def _count_coupled_pairs(tracer: "Tracer", counts, args, result) -> None:
    spec, truncation, ld = args
    tracer.pair_sizes[(spec.cid, truncation, ld)] = len(result[0])


def _count_perturb(tracer: "Tracer", counts, args, result) -> None:
    noise = args[1]
    counts["noise.pulses_perturbed"] += len(result)
    if noise.delta > 0.0:
        # With a nonzero width a draw lands exactly on zero only by clamping.
        counts["noise.clamped"] += sum(1 for p in result.pulses if p.x == 0.0)


def _count_save(tracer: "Tracer", counts, args, result) -> None:
    counts["files.saves"] += 1
    counts["files.schedule_bytes"] += os.path.getsize(args[1])


# Counters see the call's positional arguments and its result.  They add to
# Tracer.counts during operations; set-up counts are dropped.
COUNTERS: dict[str, Callable[["Tracer", collections.Counter, tuple, Any], None]] = {
    "synthesis.deevolve": _count_deevolve,
    "pulses.apply_schedule": _count_apply,
    "channels.coupled_pairs": _count_coupled_pairs,
    "noise.perturb": _count_perturb,
    "files.save_schedule": _count_save,
}


class Tracer:
    """Records spans and counters while installed; inert once uninstalled."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.pair_sizes: dict[tuple, int] = {}
        self.request = 0
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._wrappers: list[tuple[Any, str, Any]] = []
        for module_name, attr, layer in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            name = f"{layer}.{original.__name__}"
            self._originals.append((module, attr, original))
            self._wrappers.append((module, attr, self._wrap(original, name, layer)))

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                index = self.open("trace.count", "trace")
                try:
                    counts = self.counts if self.request else collections.Counter()
                    counter(self, counts, args, result)
                finally:
                    self.close(index)
            return result

        return traced

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def pair_count(self, cid, truncation, ld) -> int:
        """Coupled-pair count of one channel, as last seen by the coupled_pairs span."""
        key = (cid, truncation, ld)
        if key not in self.pair_sizes:
            from ionsynth import channels  # never patched at this name

            self.pair_sizes[key] = len(channels.coupled_pairs(channels.CHANNELS[cid], truncation, ld)[0])
        return self.pair_sizes[key]

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans from one thread nest, so children of a span never overlap and their
    durations can be summed.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(tracer: Tracer, ops: int) -> dict[str, float | None]:
    """Per-layer metrics of the traced operations (request ids >= 1).

    Times and counts are per traced operation; ``None`` marks a metric with no
    span behind it.  ``fock.enumerate_basis_s`` is the time spent in set-up
    (request 0), since that is where the basis is built.
    """
    spans = tracer.spans
    own = self_times(spans)
    total: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    selfs: collections.Counter = collections.Counter()
    layer_self: collections.Counter = collections.Counter()
    setup_total: collections.Counter = collections.Counter()
    setup_calls: collections.Counter = collections.Counter()
    roots: dict[int, float] = {}
    request_self: collections.Counter = collections.Counter()
    for s, self_s in zip(spans, own):
        name, layer, start, end, parent, request = s
        if request == 0:
            setup_total[name] += end - start
            setup_calls[name] += 1
            continue
        total[name] += end - start
        calls[name] += 1
        selfs[name] += self_s
        layer_self[layer] += self_s
        request_self[request] += self_s
        if parent < 0:
            roots[request] = end - start
    c = tracer.counts
    ops = max(ops, 1)

    def per_op(name: str, table=total) -> float | None:
        return table[name] / ops if calls[name] else None

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    m: dict[str, float | None] = {
        "fock.enumerate_basis_s": setup_total["fock.enumerate_basis"]
        if setup_calls["fock.enumerate_basis"]
        else None,
        "fock.fidelity_to_target_s": per_op("fock.fidelity_to_target"),
        "targets.build_s": (
            sum(total[f"targets.target_{k}"] for k in ("ghz", "corr", "diag")) / ops
            if any(calls[f"targets.target_{k}"] for k in ("ghz", "corr", "diag"))
            else None
        ),
        "files.load_target_s": per_op("files.load_target"),
        "channels.coupled_pairs_s": total["channels.coupled_pairs"] / ops,
        "channels.coupled_pairs_calls": calls["channels.coupled_pairs"] / ops,
        "synthesis.deevolve_s": per_op("synthesis.deevolve"),
        "synthesis.deevolve_self_s": per_op("synthesis.deevolve", selfs),
        "synthesis.pulses_emitted": c["synthesis.pulses_emitted"] / ops
        if calls["synthesis.deevolve"]
        else None,
        "synthesis.zero_length_ratio": ratio(
            c["synthesis.zero_pulses"], c["synthesis.pulses_emitted"]
        ),
        "pulses.dagger_schedule_s": per_op("pulses.dagger_schedule"),
        "pulses.apply_schedule_s": per_op("pulses.apply_schedule"),
        "pulses.us_per_pulse": ratio(
            1e6 * total["pulses.apply_schedule"], c["pulses.pulses_applied"]
        ),
        "pulses.pulses_applied": c["pulses.pulses_applied"] / ops
        if calls["pulses.apply_schedule"]
        else None,
        "pulses.nonzero_ratio": ratio(c["pulses.nonzero"], c["pulses.pulses_applied"]),
        "pulses.pair_rotations_computed": c["pulses.pair_rotations_computed"] / ops
        if calls["pulses.apply_schedule"]
        else None,
        "noise.perturb_s": per_op("noise.perturb"),
        "noise.perturb_us_per_pulse": ratio(
            1e6 * total["noise.perturb"], c["noise.pulses_perturbed"]
        ),
        "noise.clamped_ratio": ratio(c["noise.clamped"], c["noise.pulses_perturbed"]),
        "noise.simulate_trial_s": per_op("noise.simulate_trial"),
        "files.save_schedule_s": per_op("files.save_schedule"),
        "files.load_schedule_s": per_op("files.load_schedule"),
        "files.schedule_bytes": ratio(c["files.schedule_bytes"], c["files.saves"]),
        "cli.main_self_s": per_op("cli.main", selfs),
    }
    # The cli layer's only span is main, so its self time is cli.main_self_s.
    for layer in LAYERS[:-1] + ("bench", "trace"):
        m[f"{layer}.self_s"] = layer_self[layer] / ops
    m["trace.self_sum_error_s"] = max(
        (abs(request_self[r] - roots[r]) for r in roots), default=0.0
    )
    m["trace.spans_per_op"] = sum(calls.values()) / ops
    return m
