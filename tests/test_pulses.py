import cmath
import math

import numpy as np
import pytest

from ionsynth import (
    CHANNELS,
    ChannelId,
    Component,
    Direction,
    DomainError,
    LambDickeParams,
    Level,
    Occupation,
    Pulse,
    Schedule,
    StateVector,
    Truncation,
    apply_pulse,
    apply_schedule,
    basis_state,
    component_of,
    dagger_schedule,
    deevolve,
    nonlinearity,
    random_target,
    solve_kill_lower,
    solve_kill_upper,
    target_corr,
    target_ghz,
    vacuum_state,
    wrap_angle,
)
from ionsynth.pulses import _pair_table, _rotate_inplace, oracle_apply

from conftest import random_state

LD = LambDickeParams()


def rotate_pair(u: complex, v: complex, x: float, theta: float, omega: float):
    """Reference 2x2 rotation on one coupled pair (u = lower, v = upper)."""
    c, s = math.cos(x * omega), math.sin(x * omega)
    return (
        c * u - 1j * cmath.exp(1j * theta) * s * v,
        c * v - 1j * cmath.exp(-1j * theta) * s * u,
    )


def test_wrap_angle_interval():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.5) == -0.5
    for theta in np.linspace(-20, 20, 401):
        w = wrap_angle(float(theta))
        assert -math.pi < w <= math.pi


def test_pulse_validation():
    with pytest.raises(DomainError):
        Pulse(ChannelId.H1, -0.1, 0.0)
    with pytest.raises(DomainError):
        Pulse(ChannelId.H1, float("nan"), 0.0)
    with pytest.raises(DomainError):
        Pulse(ChannelId.H1, 0.1, float("inf"))
    assert Pulse(ChannelId.H1, 0.1, 5 * math.pi).theta == pytest.approx(math.pi)


def test_solve_kill_lower_examples():
    assert solve_kill_lower(0.0, 1.0, 1.0) == (0.0, 0.0)

    x, theta = solve_kill_lower(1.0, 0.0, 1.0)
    assert (x, theta) == pytest.approx((math.pi / 2, -math.pi / 2))

    x, theta = solve_kill_lower(1 / math.sqrt(2), 1 / math.sqrt(2), 2.0)
    assert (x, theta) == pytest.approx((math.pi / 8, -math.pi / 2))


def test_solve_kill_upper_examples():
    assert solve_kill_upper(1.0, 0.0, 1.0) == (0.0, 0.0)

    x, theta = solve_kill_upper(0.0, 1.0, 1.0)
    assert (x, theta) == pytest.approx((math.pi / 2, math.pi / 2))

    x, theta = solve_kill_upper(0.6, 0.8j, 1.0)
    assert x == pytest.approx(math.atan2(0.8, 0.6))
    assert theta == pytest.approx(0.0, abs=1e-15)


def test_solver_rejects_nonpositive_omega():
    with pytest.raises(DomainError):
        solve_kill_lower(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        solve_kill_upper(1.0, 0.0, -1.0)


def test_solvers_satisfy_transfer_conditions():
    """Solved (x, theta) must satisfy the defining transfer conditions literally:

        i e^{-i theta} q_lower cos(x w) + q_upper sin(x w) = 0   (kill lower)
        i e^{+i theta} q_upper cos(x w) + q_lower sin(x w) = 0   (kill upper)

    and actually null the chosen amplitude under the pair rotation.
    """
    rng = np.random.default_rng(101)
    for _ in range(200):
        q_l = complex(rng.normal(), rng.normal())
        q_u = complex(rng.normal(), rng.normal())
        w = float(rng.uniform(0.2, 3.0))

        x, theta = solve_kill_lower(q_l, q_u, w)
        res = 1j * cmath.exp(-1j * theta) * q_l * math.cos(x * w) + q_u * math.sin(x * w)
        assert abs(res) <= 1e-12
        u2, _ = rotate_pair(q_l, q_u, x, theta, w)
        assert abs(u2) <= 1e-12
        assert 0.0 <= x * w <= math.pi / 2 + 1e-12

        x, theta = solve_kill_upper(q_l, q_u, w)
        res = 1j * cmath.exp(1j * theta) * q_u * math.cos(x * w) + q_l * math.sin(x * w)
        assert abs(res) <= 1e-12
        _, v2 = rotate_pair(q_l, q_u, x, theta, w)
        assert abs(v2) <= 1e-12


def test_transfer_preserves_pair_mass():
    rng = np.random.default_rng(55)
    for _ in range(50):
        q_l = complex(rng.normal(), rng.normal())
        q_u = complex(rng.normal(), rng.normal())
        w = float(rng.uniform(0.2, 3.0))
        x, theta = solve_kill_lower(q_l, q_u, w)
        u2, v2 = rotate_pair(q_l, q_u, x, theta, w)
        assert abs(v2) == pytest.approx(math.hypot(abs(q_l), abs(q_u)), abs=1e-12)
        assert abs(u2) ** 2 + abs(v2) ** 2 == pytest.approx(
            abs(q_l) ** 2 + abs(q_u) ** 2, abs=1e-12
        )


def test_apply_pulse_zero_length_is_identity():
    t = Truncation(2)
    s = random_state(t, np.random.default_rng(1))
    out = apply_pulse(s, Pulse(ChannelId.H5, 0.0, 1.3))
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_apply_pulse_red_sideband_pinned():
    """A half-period red-sideband pulse moves |1,0,0;a> to -i |0,0,0;b>."""
    t = Truncation(1)
    src = basis_state(Component(Occupation(1, 0, 0), Level.A), t)
    omega = nonlinearity(LD.eps_carrier, 0)
    out = apply_pulse(src, Pulse(ChannelId.H9, (math.pi / 2) / omega, 0.0))
    dst = Component(Occupation(0, 0, 0), Level.B)
    assert out.amplitude(dst) == pytest.approx(-1j, abs=1e-12)
    assert abs(out.amplitude(Component(Occupation(1, 0, 0), Level.A))) <= 1e-12


@pytest.mark.parametrize("cid", list(ChannelId))
def test_apply_pulse_unitarity_and_untouched(cid):
    t = Truncation(3)
    rng = np.random.default_rng(int(cid))
    from ionsynth.channels import coupled_pairs
    from ionsynth import index_of

    _, untouched = coupled_pairs(CHANNELS[cid], t, LD)
    idx = [index_of(c, t) for c in untouched]
    for _ in range(5):
        s = random_state(t, rng)
        p = Pulse(cid, float(rng.uniform(0, 3)), float(rng.uniform(-math.pi, math.pi)))
        out = apply_pulse(s, p)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(out.amplitudes[idx], s.amplitudes[idx])


def test_pulse_inverse_by_phase_shift():
    t = Truncation(3)
    rng = np.random.default_rng(9)
    s = random_state(t, rng)
    p = Pulse(ChannelId.H1, 0.7, 0.3)
    back = apply_pulse(apply_pulse(s, p), Pulse(ChannelId.H1, 0.7, 0.3 + math.pi))
    assert np.max(np.abs(back.amplitudes - s.amplitudes)) <= 1e-12


def test_apply_schedule_empty_and_singleton():
    t = Truncation(2)
    s = random_state(t, np.random.default_rng(2))
    empty = Schedule((), LD, t, Direction.PREPARATION)
    assert np.array_equal(apply_schedule(s, empty).amplitudes, s.amplitudes)

    p = Pulse(ChannelId.H2, 0.4, -0.2)
    single = Schedule((p,), LD, t, Direction.PREPARATION)
    assert np.array_equal(
        apply_schedule(s, single).amplitudes, apply_pulse(s, p).amplitudes
    )


def test_apply_schedule_truncation_mismatch():
    sched = Schedule((), LD, Truncation(2), Direction.PREPARATION)
    with pytest.raises(DomainError):
        apply_schedule(vacuum_state(Truncation(3)), sched)


def test_dagger_schedule_round_trip():
    t = Truncation(3)
    rng = np.random.default_rng(31)
    pulses = tuple(
        Pulse(
            rng.choice(list(ChannelId)),
            float(rng.uniform(0, 2)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        for _ in range(40)
    )
    sched = Schedule(pulses, LD, t, Direction.DEEVOLUTION, "round-trip")
    inv = dagger_schedule(sched)
    assert inv.direction is Direction.PREPARATION
    assert inv.target == "round-trip"
    assert [p.channel for p in inv.pulses] == [p.channel for p in reversed(pulses)]

    s = random_state(t, rng)
    back = apply_schedule(apply_schedule(s, sched), inv)
    assert np.max(np.abs(back.amplitudes - s.amplitudes)) <= 1e-10

    twice = dagger_schedule(inv)
    assert twice.direction is Direction.DEEVOLUTION
    for p, q in zip(twice.pulses, pulses):
        assert p.channel == q.channel and p.x == q.x
        assert p.theta == pytest.approx(q.theta, abs=1e-12)


@pytest.mark.parametrize("cid", list(ChannelId))
def test_apply_pulse_matches_dense_oracle(cid):
    t = Truncation(3)
    rng = np.random.default_rng(1000 + int(cid))
    for _ in range(10):
        s = random_state(t, rng)
        p = Pulse(cid, float(rng.uniform(0, 3)), float(rng.uniform(-math.pi, math.pi)))
        fast = apply_pulse(s, p)
        slow = oracle_apply(s, p)
        assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) <= 1e-10


def test_oracle_apply_is_unitary():
    t = Truncation(2)
    s = random_state(t, np.random.default_rng(77))
    out = oracle_apply(s, Pulse(ChannelId.H7, 1.1, 0.6))
    assert out.norm() == pytest.approx(1.0, abs=1e-10)


def test_long_schedule_norm_drift():
    """Norm stays put to 1e-10 across thousands of pulses."""
    t = Truncation(2)
    rng = np.random.default_rng(4)
    s = random_state(t, rng)
    pulses = tuple(
        Pulse(
            rng.choice(list(ChannelId)),
            float(rng.uniform(0, 2)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        for _ in range(5000)
    )
    out = apply_schedule(s, Schedule(pulses, LD, t, Direction.PREPARATION))
    assert abs(out.norm() - 1.0) <= 1e-10


def full_table_replay(state: StateVector, schedule: Schedule) -> np.ndarray:
    """Reference replay: every pulse rotates every coupled pair of its channel."""
    amps = state.amplitudes.copy()
    for p in schedule.pulses:
        table = _pair_table(p.channel, schedule.truncation, schedule.lamb_dicke)
        _rotate_inplace(amps, table, p.x, p.theta)
    return amps


def random_schedule(t: Truncation, rng, n: int, h9_slots=()) -> Schedule:
    """Random pulses on channels other than H9, with H9 at the given slots and
    about one slot in five of zero length."""
    others = [cid for cid in ChannelId if cid is not ChannelId.H9]
    pulses = []
    for k in range(n):
        cid = ChannelId.H9 if k in h9_slots else others[rng.integers(len(others))]
        x = 0.0 if rng.random() < 0.2 else float(rng.uniform(0, 2))
        pulses.append(Pulse(cid, x, float(rng.uniform(-math.pi, math.pi))))
    return Schedule(tuple(pulses), LD, t, Direction.PREPARATION)


def low_j_state(t: Truncation, j_top: int, rng) -> StateVector:
    """Random unit state supported on total quanta J <= j_top."""
    amps = random_state(t, rng).amplitudes
    amps[[component_of(k, t).occ.total > j_top for k in range(t.dim)]] = 0.0
    return StateVector(amps / np.linalg.norm(amps), t)


@pytest.mark.parametrize("seed", range(4))
def test_replay_of_dense_state_matches_full_table(seed):
    t = Truncation(4)
    rng = np.random.default_rng(seed)
    sched = random_schedule(t, rng, 300, h9_slots=set(rng.integers(0, 300, 20).tolist()))
    s = random_state(t, rng)
    assert np.array_equal(apply_schedule(s, sched).amplitudes, full_table_replay(s, sched))


@pytest.mark.parametrize("seed", range(6))
def test_replay_of_low_j_state_matches_full_table(seed):
    """The frontier starts below J_max and must rise with every H9 pulse,
    wherever the H9 pulses sit."""
    t = Truncation(5)
    rng = np.random.default_rng(100 + seed)
    n = 120
    h9_slots = set(rng.choice(n, size=int(rng.integers(1, 8)), replace=False).tolist())
    sched = random_schedule(t, rng, n, h9_slots)
    for j_top in range(3):
        s = vacuum_state(t) if j_top == 0 else low_j_state(t, j_top, rng)
        assert np.array_equal(apply_schedule(s, sched).amplitudes, full_table_replay(s, sched))
    pulse = sched.pulses[min(h9_slots)]
    s = low_j_state(t, 1, rng)
    expected = full_table_replay(s, Schedule((pulse,), LD, t, Direction.PREPARATION))
    assert np.array_equal(apply_pulse(s, pulse).amplitudes, expected)


def test_replay_of_compiled_schedules_matches_full_table():
    """Pruned preparations from the vacuum, and de-evolutions of a target
    whose support stops below J_max."""
    t = Truncation(7)
    for target in (target_ghz(1.0, t).state, target_corr(0.8, t).state,
                   random_target(t, np.random.default_rng(3)).state):
        result = deevolve(target)
        prep = result.preparation
        pruned = Schedule(
            tuple(p for p in prep.pulses if p.x > 0.0), LD, t, prep.direction, prep.target
        )
        v = vacuum_state(t)
        for sched in (prep, pruned):
            assert np.array_equal(apply_schedule(v, sched).amplitudes, full_table_replay(v, sched))
        de = result.deevolution
        assert np.array_equal(
            apply_schedule(target, de).amplitudes, full_table_replay(target, de)
        )


@pytest.mark.parametrize("j_max", [0, 1, 4, 7])
@pytest.mark.parametrize("ld", [LD, LambDickeParams(0.0, 0.0, 0.0, 0.0)])
def test_pair_table_frontier_invariants(j_max, ld):
    """The lower-end J never decreases along a table, prefix[f] counts the pairs
    with lower-end J <= f, and only H9 lifts J (by exactly one)."""
    t = Truncation(j_max)
    for cid in ChannelId:
        table = _pair_table(cid, t, ld)
        j_src = np.array([component_of(int(k), t).occ.total for k in table.src_index], dtype=int)
        j_dst = np.array([component_of(int(k), t).occ.total for k in table.dst_index], dtype=int)
        low = np.minimum(j_src, j_dst)
        assert np.all(np.diff(low) >= 0)
        assert table.prefix == tuple(int(np.sum(low <= f)) for f in range(j_max + 1))
        assert table.prefix[-1] == table.src_index.size
        expected_lift = 1 if cid is ChannelId.H9 else 0
        assert np.all(j_src - j_dst == expected_lift)
        assert table.lift == (expected_lift if j_max >= 1 else 0)
