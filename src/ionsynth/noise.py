"""Monte Carlo estimation of preparation fidelity under technical noise.

Each trial perturbs every pulse of a preparation schedule independently:
interaction lengths fluctuate uniformly within an interval of width ``delta``
centered on the ideal value (clamped at zero), phases within an interval of
width ``delta_theta``.  The noisy program is then replayed on the vacuum and
scored against the ideal target.

Post-selection keeps only the population that returned to electronic level a:
the conditional fidelity is the raw fidelity divided by the level-a
probability, and that probability is the efficiency of the filter.

Trials draw from independent substreams seeded by (seed, row, trial), where
the row is a sweep's grid row, so results do not depend on evaluation order
and are reproducible bit for bit.  :func:`perturb` draws all length and phase
offsets of a trial in one call, in slot order (length, then phase, for each
slot), adds them to the schedule's columns and builds the noisy schedule
through ``Schedule._derived``, ``from_columns`` under the ideal schedule's
header, which checks it and shares the channel and note columns with the
ideal one; a trial is
``apply_schedule(vacuum, perturb(...))``, scored.  Replay skips pairs above
the occupied-J frontier, which starts at 0 on the vacuum and rises only on
red-sideband (H9) pulses, the one channel that links J to J-1.

:func:`run_trials` runs its trials in chunks, in trial order.  A chunk holds
as many trials as fit a fixed number of amplitudes, so it shrinks as the
cutoff grows.  :func:`simulate_trial` perturbs each trial of a chunk from its
own stream, made in turn, keeps only its x and theta columns, and replays the
chunk as one batched state (see :mod:`.pulses`), which gives every trial the
result of its own serial replay; the row writes each chunk's results into
three float columns in trial order and aggregates those.  So a row does not
depend on the chunks and holds 24 bytes per trial, and no per-trial generator
or schedule outlives its perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fock import DomainError, Level, StateVector, _integer, _real, _target_norm
from .fock import fidelity_to_target, vacuum_state
from .pulses import Schedule, _replay
from .pulses import apply_schedule  # noqa: F401  perfbench/spans.py patches this name

__all__ = [
    "NoiseModel",
    "TrialResult",
    "SweepRow",
    "SweepReport",
    "perturb",
    "simulate_trial",
    "run_trials",
    "sweep",
]


@dataclass(frozen=True)
class NoiseModel:
    """Widths of the uniform fluctuation intervals on pulse length and phase.

    A pulse of ideal length x runs for a length drawn uniformly from
    [x - delta/2, x + delta/2]; phases fluctuate within delta_theta the same
    way.  Both intervals are centered on the ideal values.
    """

    delta: float = 0.0
    delta_theta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("delta", "delta_theta"):
            object.__setattr__(self, name, _real(name, getattr(self, name), non_negative=True))


@dataclass(frozen=True)
class TrialResult:
    fidelity: float
    postselect_fidelity: float
    level_a_probability: float


@dataclass(frozen=True)
class SweepRow:
    """Aggregates over one batch of noisy trials under one noise model."""

    delta: float
    delta_theta: float
    trials: int
    fid_mean: float
    fid_std: float
    fid_post_mean: float
    efficiency_mean: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    seed: int
    target: str


def perturb(schedule: Schedule, noise: NoiseModel, rng: np.random.Generator) -> Schedule:
    """One noisy realization of ``schedule``; a zero model returns it bit-identically.

    Every pulse slot is perturbed, including zero-length ones — the physical
    program drives each slot regardless of its ideal length.  Lengths that
    would come out negative are clamped to zero.  One uniform call over
    interleaved bounds (length, phase, length, ...) yields the same stream,
    order and bits as one scalar draw per bound.  The result is built by
    ``Schedule._derived`` under the header of ``schedule``, so it is checked as
    any schedule is, and keeps its channel and note columns without copying.
    """
    half = np.tile((0.5 * noise.delta, 0.5 * noise.delta_theta), len(schedule))
    offsets = rng.uniform(-half, half)
    x = schedule.x + offsets[0::2]
    return schedule._derived(
        schedule.channel, np.where(x < 0.0, 0.0, x), schedule.theta + offsets[1::2], schedule.note
    )


def simulate_trial(
    target: StateVector,
    preparation: Schedule,
    noise: NoiseModel,
    rng: np.random.Generator | Iterable[np.random.Generator],
) -> TrialResult | tuple[TrialResult, ...]:
    """Run noisy preparations from the vacuum and score them.

    One generator runs one trial and returns its :class:`TrialResult`.  An
    iterable of generators runs one trial per generator, perturbed through
    :func:`perturb` in order and replayed as one batch, and returns their
    results in the same order; each equals the result of that generator alone.
    Before any perturb, a target at another j_max, off level a or off norm 1 raises DomainError.
    """
    t = preparation.truncation
    if target.truncation != t:
        raise DomainError(f"target has j_max {target.truncation.j_max}, the preparation {t.j_max}")
    if not target.level_probabilities()[Level.B:].sum() <= 1e-24:  # so that NaN fails too
        raise DomainError("target state must have support only on electronic level a")
    _target_norm(target)
    single = isinstance(rng, np.random.Generator)
    noisy = (perturb(preparation, noise, r) for r in ([rng] if single else rng))
    columns = [(s.x, s.theta) for s in noisy]  # no schedule outlives its own trial
    if not columns:
        return ()
    amps = np.repeat(vacuum_state(t).amplitudes[np.newaxis], len(columns), axis=0)
    x, theta = (np.stack(column, axis=1) for column in zip(*columns))
    _replay(amps, t, preparation.lamb_dicke, preparation.channel, x, theta)
    results = tuple(_score(StateVector(out, t), target) for out in amps)
    return results[0] if single else results


def _score(out: StateVector, target: StateVector) -> TrialResult:
    fid = fidelity_to_target(out, target)
    p_a = min(1.0, max(0.0, float(out.level_probabilities()[Level.A])))
    post = min(1.0, fid / p_a) if p_a > 0.0 else 0.0
    return TrialResult(fidelity=fid, postselect_fidelity=post, level_a_probability=p_a)


# Trials replayed in one batch hold at most this many amplitudes (256 KB):
# 9 trials at J_max 12 and 4 at 16.  Batches twice as large ran about as fast
# per trial, so the smaller one keeps the working set small.
_BATCH_AMPLITUDES = 1 << 14


def run_trials(
    target: StateVector,
    preparation: Schedule,
    noise: NoiseModel,
    n: int,
    seed: int,
    substream: tuple[int, ...] = (),
) -> SweepRow:
    """Average fidelity, post-selected fidelity, and efficiency over ``n`` trials.

    ``substream`` namespaces the per-trial random streams; sweeps use it so
    every grid row sees independent draws under the one user-facing seed.
    Checked before any trial runs: ``n``, ``seed`` and ``substream`` entries are
    integers, not bool, >= 1, 0 and 0; the target by :func:`simulate_trial`'s first call.
    """
    n, seed = _integer("n", n, 1), _integer("seed", seed, 0)
    substream = tuple(_integer("substream entry", k, 0) for k in substream)
    chunk = max(1, _BATCH_AMPLITUDES // preparation.truncation.dim)
    fids, posts, probs = np.empty(n), np.empty(n), np.empty(n)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        rngs = (np.random.default_rng([seed, *substream, k]) for k in range(start, stop))
        results = simulate_trial(target, preparation, noise, rngs)
        fids[start:stop] = [r.fidelity for r in results]
        posts[start:stop] = [r.postselect_fidelity for r in results]
        probs[start:stop] = [r.level_a_probability for r in results]
    return SweepRow(
        delta=noise.delta,
        delta_theta=noise.delta_theta,
        trials=n,
        fid_mean=float(fids.mean()),
        fid_std=float(fids.std()),
        fid_post_mean=float(posts.mean()),
        efficiency_mean=float(probs.mean()),
    )


def sweep(
    target: StateVector,
    preparation: Schedule,
    grid: Sequence[NoiseModel],
    n: int,
    seed: int,
) -> SweepReport:
    """Run :func:`run_trials` for every noise model in ``grid``."""
    rows = tuple(
        run_trials(target, preparation, noise, n, seed, substream=(row_index,))
        for row_index, noise in enumerate(grid)
    )
    return SweepReport(rows=rows, seed=seed, target=preparation.target)
