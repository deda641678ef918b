import numpy as np
import pytest

from ionsynth import (
    DomainError,
    Level,
    NoiseModel,
    Pulse,
    Schedule,
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


def test_run_trials_matches_manual_stream(preparation):
    """First trial of a batch uses the documented (seed, trial) substream."""
    target, prep = preparation
    nm = NoiseModel(delta=0.03, delta_theta=0.01)
    stats = run_trials(target, prep, nm, 1, seed=7)
    manual = simulate_trial(target, prep, nm, np.random.default_rng([7, 0]))
    assert stats.fid_mean == manual.fidelity
    assert stats.fid_std == 0.0
    assert stats.efficiency_mean == manual.level_a_probability


def test_run_trials_rejects_empty_batch(preparation):
    target, prep = preparation
    with pytest.raises(DomainError):
        run_trials(target, prep, NoiseModel(), 0, seed=1)


def test_negative_seed_is_rejected(preparation):
    target, prep = preparation
    with pytest.raises(DomainError, match="seed"):
        run_trials(target, prep, NoiseModel(), 2, seed=-1)
    with pytest.raises(DomainError, match="seed"):
        sweep(target, prep, [NoiseModel()], n=2, seed=-1)


def test_noise_model_validation():
    with pytest.raises(DomainError):
        NoiseModel(delta=-0.1)
    with pytest.raises(DomainError):
        NoiseModel(delta_theta=float("nan"))


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
