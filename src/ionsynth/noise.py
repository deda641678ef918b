"""Monte Carlo estimation of preparation fidelity under technical noise.

Each trial perturbs every pulse of a preparation schedule independently:
interaction lengths fluctuate uniformly within an interval of width ``delta``
centered on the ideal value (clamped at zero), phases within an interval of
width ``delta_theta``.  The noisy program is then replayed on the vacuum and
scored against the ideal target.

Post-selection keeps only the population that returned to electronic level a:
the conditional fidelity is the raw fidelity divided by the level-a
probability, and that probability is the efficiency of the filter.

Trials draw from independent substreams seeded by (seed, trial index), so
results do not depend on evaluation order and are reproducible bit for bit.
A trial draws all its length and phase offsets in one call, in slot order
(length, then phase, for each slot), and hands them straight to the replay
kernel of :mod:`ionsynth.pulses`.  The kernel skips pairs above the occupied-J
frontier, which starts at 0 on the vacuum and rises only on red-sideband (H9)
pulses, the one channel that links J to J-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import DomainError, Level, StateVector, fidelity_to_target, vacuum_state
from .pulses import Pulse, Schedule, _replay, wrap_angle
from .pulses import apply_schedule  # noqa: F401  perfbench/spans.py traces this name

__all__ = [
    "NoiseModel",
    "TrialResult",
    "TrialStats",
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
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)) or value < 0:
                raise DomainError(f"{name} must be a finite non-negative real, got {value!r}")


@dataclass(frozen=True)
class TrialResult:
    fidelity: float
    postselect_fidelity: float
    level_a_probability: float


@dataclass(frozen=True)
class TrialStats:
    """Aggregates over one batch of noisy trials."""

    fid_mean: float
    fid_std: float
    fid_post_mean: float
    efficiency_mean: float
    trials: int


@dataclass(frozen=True)
class SweepRow:
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


def _draw(
    schedule: Schedule, noise: NoiseModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy lengths (clamped at zero) and unwrapped phases of every slot.

    One uniform call over interleaved bounds (length, phase, length, ...)
    yields the same stream, order and bits as one scalar draw per bound.
    """
    pulses = schedule.pulses
    half = np.tile((0.5 * noise.delta, 0.5 * noise.delta_theta), len(pulses))
    offsets = rng.uniform(-half, half)
    xs = np.fromiter((p.x for p in pulses), np.float64, len(pulses)) + offsets[0::2]
    thetas = np.fromiter((p.theta for p in pulses), np.float64, len(pulses)) + offsets[1::2]
    return np.where(xs < 0.0, 0.0, xs), thetas


def perturb(schedule: Schedule, noise: NoiseModel, rng: np.random.Generator) -> Schedule:
    """One noisy realization of ``schedule``; a zero model returns it bit-identically.

    Every pulse slot is perturbed, including zero-length ones — the physical
    program drives each slot regardless of its ideal length.  Lengths that
    would come out negative are clamped to zero.
    """
    xs, thetas = _draw(schedule, noise, rng)
    return Schedule(
        tuple(
            Pulse(p.channel, x, theta, p.note)
            for p, x, theta in zip(schedule.pulses, xs.tolist(), thetas.tolist())
        ),
        schedule.lamb_dicke,
        schedule.truncation,
        schedule.direction,
        schedule.target,
    )


def simulate_trial(
    target: StateVector,
    preparation: Schedule,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> TrialResult:
    """Run one noisy preparation from the vacuum and score it.

    Equal, bit for bit, to scoring ``apply_schedule(vacuum, perturb(...))``
    without building the noisy :class:`Pulse` objects.
    """
    xs, thetas = _draw(preparation, noise, rng)
    out = vacuum_state(preparation.truncation)
    _replay(
        out.amplitudes,
        preparation.truncation,
        preparation.lamb_dicke,
        zip(
            [p.channel for p in preparation.pulses],
            xs.tolist(),
            map(wrap_angle, thetas.tolist()),
        ),
    )
    fid = fidelity_to_target(out, target)
    p_a = min(1.0, max(0.0, float(out.level_probabilities()[Level.A])))
    post = min(1.0, fid / p_a) if p_a > 0.0 else 0.0
    return TrialResult(fidelity=fid, postselect_fidelity=post, level_a_probability=p_a)


def _trial_rng(seed: int, substream: tuple[int, ...], trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, *substream, trial])


def run_trials(
    target: StateVector,
    preparation: Schedule,
    noise: NoiseModel,
    n: int,
    seed: int,
    substream: tuple[int, ...] = (),
) -> TrialStats:
    """Average fidelity, post-selected fidelity, and efficiency over ``n`` trials.

    ``substream`` namespaces the per-trial random streams; sweeps use it so
    every grid row sees independent draws under the one user-facing seed.
    """
    if n < 1:
        raise DomainError(f"trial count must be >= 1, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    results = [
        simulate_trial(target, preparation, noise, _trial_rng(seed, substream, k))
        for k in range(n)
    ]
    fids = np.array([r.fidelity for r in results])
    posts = np.array([r.postselect_fidelity for r in results])
    probs = np.array([r.level_a_probability for r in results])
    return TrialStats(
        fid_mean=float(fids.mean()),
        fid_std=float(fids.std()),
        fid_post_mean=float(posts.mean()),
        efficiency_mean=float(probs.mean()),
        trials=n,
    )


def sweep(
    target: StateVector,
    preparation: Schedule,
    grid: Sequence[NoiseModel],
    n: int,
    seed: int,
) -> SweepReport:
    """Run :func:`run_trials` for every noise model in ``grid``."""
    rows = []
    for row_index, noise in enumerate(grid):
        stats = run_trials(target, preparation, noise, n, seed, substream=(row_index,))
        rows.append(
            SweepRow(
                delta=noise.delta,
                delta_theta=noise.delta_theta,
                trials=n,
                fid_mean=stats.fid_mean,
                fid_std=stats.fid_std,
                fid_post_mean=stats.fid_post_mean,
                efficiency_mean=stats.efficiency_mean,
            )
        )
    return SweepReport(rows=tuple(rows), seed=seed, target=preparation.target)
