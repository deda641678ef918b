import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsynth import (
    Level,
    NoiseModel,
    Pulse,
    Schedule,
    SweepRow,
    TrialResult,
    Truncation,
    apply_schedule,
    deevolve,
    fidelity_to_target,
    perturb,
    random_target,
    run_trials,
    simulate_trial,
    sweep,
    target_corr,
    vacuum_state,
    wrap_angle,
)
from ionsynth import noise as noise_module
from ionsynth.pulses import _replay


@pytest.fixture(scope="module")
def preparation():
    t = Truncation(3)
    target = random_target(t, np.random.default_rng(2024)).state
    return target, deevolve(target).preparation


def test_zero_noise_returns_schedule_unchanged(preparation):
    _, prep = preparation
    noisy = perturb(prep, NoiseModel(), np.random.default_rng(0))
    assert noisy == prep


def scalar_perturb(schedule, noise, rng):
    """The original per-pulse loop: one scalar length draw, then one phase
    draw, for each slot in order."""
    half_x = 0.5 * noise.delta
    half_theta = 0.5 * noise.delta_theta
    pulses = []
    for p in schedule.pulses:
        x = p.x + rng.uniform(-half_x, half_x)
        if x < 0.0:
            x = 0.0
        theta = p.theta + rng.uniform(-half_theta, half_theta)
        pulses.append(Pulse(p.channel, x, theta, p.note))
    return Schedule(
        tuple(pulses), schedule.lamb_dicke, schedule.truncation, schedule.direction, schedule.target
    )


def bits(schedule):
    return [(p.channel, p.x.hex(), p.theta.hex(), p.note) for p in schedule.pulses]


@pytest.fixture(scope="module")
def corr_preparation():
    t = Truncation(6)
    target = target_corr(1.0, t).state
    return target, deevolve(target).preparation


NOISE_MODELS = [
    NoiseModel(0.03, 0.01),
    NoiseModel(),
    NoiseModel(delta=20.0, delta_theta=1.0),  # clamps about half of all slots
]


@pytest.mark.parametrize("noise", NOISE_MODELS)
def test_perturb_matches_scalar_loop_bit_for_bit(preparation, corr_preparation, noise):
    for _, prep in (preparation, corr_preparation):
        for seed in (0, 1, 42, 2**40 + 3):
            fast = perturb(prep, noise, np.random.default_rng([seed, 5]))
            slow = scalar_perturb(prep, noise, np.random.default_rng([seed, 5]))
            assert bits(fast) == bits(slow)
    if noise.delta > 1.0:
        clamped = sum(p.x == 0.0 for p in fast.pulses)
        assert clamped > len(fast) // 4


@pytest.mark.parametrize("noise", NOISE_MODELS)
def test_simulate_trial_equals_replaying_perturb(corr_preparation, noise):
    target, prep = corr_preparation
    for seed in range(4):
        noisy = perturb(prep, noise, np.random.default_rng([seed, 9]))
        out = apply_schedule(vacuum_state(prep.truncation), noisy)
        fid = fidelity_to_target(out, target)
        p_a = min(1.0, max(0.0, float(out.level_probabilities()[Level.A])))
        r = simulate_trial(target, prep, noise, np.random.default_rng([seed, 9]))
        assert r.fidelity == fid
        assert r.level_a_probability == p_a
        assert r.postselect_fidelity == (min(1.0, fid / p_a) if p_a > 0.0 else 0.0)


def test_perturbation_bounds(preparation):
    """Every realized pulse stays inside the centered interval."""
    _, prep = preparation
    nm = NoiseModel(delta=0.04, delta_theta=0.006)
    rng = np.random.default_rng(1)
    for _ in range(20):
        noisy = perturb(prep, nm, rng)
        for p, q in zip(prep.pulses, noisy.pulses):
            assert abs(q.x - p.x) <= 0.02 + 1e-15 or (q.x == 0.0 and p.x <= 0.02)
            # stored phases live in (-pi, pi], so compare wrapped differences
            assert abs(wrap_angle(q.theta - p.theta)) <= 0.003 + 1e-15
            assert q.x >= 0.0
            assert q.channel == p.channel and q.note == p.note


def test_perturbation_is_centered(preparation):
    """The mean realized length of a long pulse tracks its ideal value."""
    _, prep = preparation
    pulse = max(prep.pulses, key=lambda p: p.x)
    slot = prep.pulses.index(pulse)
    nm = NoiseModel(delta=0.05, delta_theta=0.0)
    rng = np.random.default_rng(5)
    draws = np.array([perturb(prep, nm, rng).pulses[slot].x for _ in range(4000)])
    se = 0.05 / np.sqrt(12.0) / np.sqrt(draws.size)
    assert abs(draws.mean() - pulse.x) <= 3.0 * se


def test_negative_lengths_clamp_to_zero(preparation):
    """Zero-length slots are still driven; their noisy length is never negative
    and is positive about half the time."""
    _, prep = preparation
    slot = next(k for k, p in enumerate(prep.pulses) if p.x == 0.0)
    nm = NoiseModel(delta=0.02)
    rng = np.random.default_rng(9)
    draws = np.array([perturb(prep, nm, rng).pulses[slot].x for _ in range(400)])
    assert np.all(draws >= 0.0)
    assert 100 < np.count_nonzero(draws) < 300


def test_noiseless_trial_is_perfect(preparation):
    target, prep = preparation
    r = simulate_trial(target, prep, NoiseModel(), np.random.default_rng(0))
    assert r.fidelity >= 1 - 1e-9
    assert r.postselect_fidelity >= 1 - 1e-9
    assert r.level_a_probability >= 1 - 1e-9


def test_trial_invariants(preparation):
    """Post-selection can only help, and all three scores are probabilities."""
    target, prep = preparation
    nm = NoiseModel(delta=0.05, delta_theta=0.02)
    for k in range(25):
        r = simulate_trial(target, prep, nm, np.random.default_rng([3, k]))
        assert 0.0 <= r.fidelity <= 1.0
        assert 0.0 <= r.postselect_fidelity <= 1.0
        assert 0.0 <= r.level_a_probability <= 1.0
        assert r.postselect_fidelity >= r.fidelity - 1e-12
        # raw fidelity cannot exceed what the kept branch can supply
        assert r.fidelity <= r.postselect_fidelity * r.level_a_probability + 1e-12


def test_run_trials_reproducible(preparation):
    target, prep = preparation
    nm = NoiseModel(delta=0.03, delta_theta=0.01)
    a = run_trials(target, prep, nm, 10, seed=42)
    b = run_trials(target, prep, nm, 10, seed=42)
    assert a == b
    c = run_trials(target, prep, nm, 10, seed=43)
    assert c != a
    # a batch is a sweep row: the same type, values and substream
    row = run_trials(target, prep, nm, 10, seed=42, substream=(0,))
    assert row == sweep(target, prep, [nm], n=10, seed=42).rows[0]
    assert (row.delta, row.delta_theta, row.trials) == (0.03, 0.01, 10)


def test_run_trials_matches_manual_stream(preparation):
    """First trial of a batch uses the documented (seed, trial) substream."""
    target, prep = preparation
    nm = NoiseModel(delta=0.03, delta_theta=0.01)
    stats = run_trials(target, prep, nm, 1, seed=7)
    manual = simulate_trial(target, prep, nm, np.random.default_rng([7, 0]))
    assert stats.fid_mean == manual.fidelity
    assert stats.fid_std == 0.0
    assert stats.efficiency_mean == manual.level_a_probability


def test_run_trials_takes_numpy_integers(preparation):
    target, prep = preparation
    nm = NoiseModel(0.03, 0.01)
    want = run_trials(target, prep, nm, 3, 7, (2,))
    assert run_trials(target, prep, nm, np.int64(3), np.uint32(7), (np.int8(2),)) == want


def test_a_4096_trial_chunk_holds_no_per_trial_generator_or_schedule():
    """A J_max 0 row of 4,096 trials is one chunk; its traced peak stays at or
    below 3 MB (7.0 MB while each trial's generator and perturbed schedule
    were kept until the chunk replayed)."""
    t = Truncation(0)
    target = target_corr(1.0, t).state
    prep = deevolve(target).preparation
    nm = NoiseModel(0.03, 0.01)
    assert noise_module._BATCH_AMPLITUDES // t.dim == 4096
    run_trials(target, prep, nm, 1, seed=3)  # warm caches and lazy imports
    tracemalloc.start()
    try:
        row = run_trials(target, prep, nm, 4096, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.trials == 4096
    assert peak <= 3_000_000, peak


def test_sweep_rows_use_independent_streams(preparation):
    """Two rows with identical noise settings must not share their draws."""
    target, prep = preparation
    nm = NoiseModel(delta=0.04, delta_theta=0.01)
    report = sweep(target, prep, [nm, nm], n=8, seed=42)
    first, second = report.rows
    assert first.delta == second.delta == 0.04
    assert first.fid_mean != second.fid_mean
    assert report.seed == 42
    assert report.target == prep.target


def test_sweep_degrades_with_noise(preparation):
    target, prep = preparation
    grid = [NoiseModel(0.0, 0.0), NoiseModel(0.02, 0.01), NoiseModel(0.08, 0.01)]
    report = sweep(target, prep, grid, n=30, seed=42)
    fids = [row.fid_mean for row in report.rows]
    assert fids[0] >= 1 - 1e-9
    assert fids[0] > fids[1] > fids[2]
    for row in report.rows[1:]:
        assert row.fid_post_mean >= row.fid_mean


# --- batched trials against serial replay -------------------------------------

@functools.lru_cache(maxsize=None)
def compiled(j_max, seed):
    """A random level-a target and its preparation, compiled once per key."""
    target = random_target(Truncation(j_max), np.random.default_rng(seed)).state
    return target, deevolve(target).preparation


def serial_trial(target, prep, noise, rng):
    """One trial replayed alone: apply_schedule(vacuum, perturb(...)), scored."""
    out = apply_schedule(vacuum_state(prep.truncation), perturb(prep, noise, rng))
    fid = fidelity_to_target(out, target)
    p_a = min(1.0, max(0.0, float(out.level_probabilities()[Level.A])))
    post = min(1.0, fid / p_a) if p_a > 0.0 else 0.0
    return out.amplitudes, TrialResult(fid, post, p_a)


def aggregate(noise, results):
    """The sweep row of ``results``, in their order."""
    fids = np.array([r.fidelity for r in results])
    posts = np.array([r.postselect_fidelity for r in results])
    probs = np.array([r.level_a_probability for r in results])
    return SweepRow(
        noise.delta, noise.delta_theta, len(results), float(fids.mean()), float(fids.std()),
        float(posts.mean()), float(probs.mean()),
    )


@settings(max_examples=60, deadline=None)
@given(
    j_max=st.integers(1, 6),
    target_seed=st.integers(0, 3),
    trials=st.integers(1, 9),
    delta=st.sampled_from([0.0, 0.004, 1.5]),  # 1.5 clamps many lengths to zero
    delta_theta=st.sampled_from([0.0, 0.01, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_trials_equal_serial_replay(j_max, target_seed, trials, delta, delta_theta, seed):
    """Every trial of a batch gets the amplitudes and the result of its own
    serial replay, and ``run_trials`` in chunks of 4 aggregates the same row.
    A batch rotates a pulse that only some of its trials skip, so the signs
    of zeros may differ; ``np.array_equal`` does not see them."""
    target, prep = compiled(j_max, target_seed)
    noise = NoiseModel(delta, delta_theta)

    def rngs():
        return [np.random.default_rng([seed, k]) for k in range(trials)]

    serial = [serial_trial(target, prep, noise, rng) for rng in rngs()]
    results = [result for _, result in serial]
    assert simulate_trial(target, prep, noise, rngs()) == tuple(results)

    noisy = [perturb(prep, noise, rng) for rng in rngs()]
    amps = np.repeat(vacuum_state(prep.truncation).amplitudes[np.newaxis], trials, axis=0)
    x = np.stack([s.x for s in noisy], axis=1)
    theta = np.stack([s.theta for s in noisy], axis=1)
    _replay(amps, prep.truncation, prep.lamb_dicke, prep.channel, x, theta)
    for got, (want, _) in zip(amps, serial):
        assert np.array_equal(got, want)

    with mock.patch.object(noise_module, "_BATCH_AMPLITUDES", 4 * prep.truncation.dim):
        assert run_trials(target, prep, noise, trials, seed) == aggregate(noise, results)


@pytest.mark.parametrize(
    "chunks, extra",
    [
        pytest.param(0, 1, id="1"),
        pytest.param(0, 2, id="2"),
        pytest.param(1, 0, id="chunk"),
        pytest.param(1, 1, id="chunk+1"),
        pytest.param(3, 2, id="3*chunk+2"),
    ],
)
def test_run_trials_aggregates_single_trials(preparation, chunks, extra):
    """``run_trials(n)`` is, bit for bit, the aggregate of n single
    ``simulate_trial`` calls on the (seed, row, trial) streams, at J_max 3 and
    2: rows of whole chunks, one trial past one, and three chunks and two."""
    nm = NoiseModel(0.03, 0.01)
    for target, prep in (preparation, compiled(2, 1)):
        trials = chunks * (noise_module._BATCH_AMPLITUDES // prep.truncation.dim) + extra
        rngs = [np.random.default_rng([11, 3, k]) for k in range(trials)]
        want = aggregate(nm, [simulate_trial(target, prep, nm, rng) for rng in rngs])
        got = run_trials(target, prep, nm, trials, seed=11, substream=(3,))
        assert (got.delta, got.delta_theta, got.trials) == (want.delta, want.delta_theta, trials)
        for name in ("fid_mean", "fid_std", "fid_post_mean", "efficiency_mean"):
            assert getattr(got, name).hex() == getattr(want, name).hex(), (trials, name)
    assert simulate_trial(target, prep, nm, []) == ()
