import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    NoiseModel,
    perturb,
    target_corr,
    target_ghz,
    vacuum_state,
    wrap_angle,
)
from ionsynth import pulses
from ionsynth.fock import _total_j
from ionsynth.pulses import (
    _pair_table, _phase_factors, _replay, _rotate, _trig, _wrap_angles, oracle_apply,
)

from conftest import per_pair_rotate, random_state

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
        per_pair_rotate(amps, table, p.x, p.theta)
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
    """The lower-end J never decreases along a table, upto[f] holds the leading
    pairs with lower-end J <= f, and only H9 lifts J (by exactly one)."""
    t = Truncation(j_max)
    for cid in ChannelId:
        table = _pair_table(cid, t, ld)
        j_src = np.array([component_of(int(k), t).occ.total for k in table.src_index], dtype=int)
        j_dst = np.array([component_of(int(k), t).occ.total for k in table.dst_index], dtype=int)
        low = np.minimum(j_src, j_dst)
        assert np.all(np.diff(low) >= 0)
        counts = [upto[0].size for upto in table.upto]
        assert counts == [int(np.sum(low <= f)) for f in range(j_max + 1)]
        assert counts[-1] == table.src_index.size
        expected_lift = 1 if cid is ChannelId.H9 else 0
        assert np.all(j_src - j_dst == expected_lift)
        assert table.lift == (expected_lift if j_max >= 1 else 0)


# --- Distinct-omega rotations against the per-pair kernel --------------------


def signed_zero_state(t: Truncation, rng: np.random.Generator) -> np.ndarray:
    """Random amplitudes with about half of them replaced by signed zeros."""
    amps = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
    zeros = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    mask = rng.random(t.dim) < 0.5
    amps[mask] = zeros[rng.integers(0, 4, size=int(mask.sum()))]
    return amps


@pytest.mark.parametrize(
    "j_max, ld",
    [
        (6, LD),
        (12, LD),
        (8, LambDickeParams(0.0, 0.0, 0.0, 0.0)),
        (12, LambDickeParams(0.5, 0.15, 0.25, 0.15)),
        (12, LambDickeParams(0.6, 0.1, 0.2, 0.1)),  # H5 drops pairs past a zero
    ],
)
def test_rotate_matches_per_pair_kernel_bit_for_bit(j_max, ld):
    t = Truncation(j_max)
    rng = np.random.default_rng(1000 + j_max)
    for cid in ChannelId:
        table = _pair_table(cid, t, ld)
        for upto in table.upto:
            xs = (float(rng.uniform(0, 3)), float(rng.uniform(0, 1e3)), 1e-300)
            thetas = (float(rng.uniform(-math.pi, math.pi)), 0.0, math.pi / 2, math.pi)
            for x, theta in zip(xs * 4, thetas * 3):
                amps = signed_zero_state(t, rng)
                want = amps.copy()
                per_pair_rotate(want, table, x, theta, upto[0].size)
                src, dst, omega, inverse = upto
                c, s = _trig(x, omega)
                plus, minus = -1j * cmath.exp(1j * theta), -1j * cmath.exp(-1j * theta)
                _rotate(amps, src, dst, c.take(inverse), s.take(inverse), plus, minus)
                assert amps.tobytes() == want.tobytes(), (cid, upto[0].size, x, theta)



# --- Block-wise replay trig against the per-pulse loop -----------------------


def per_pulse_replay(amps, truncation, ld, channel, x, theta) -> None:
    """Replay with cos and sin of x*Omega and the ``cmath`` phase factors
    evaluated once per pulse: an inline copy of the loop that block-wise trig
    replaced, kept as its byte-level reference."""
    dim = truncation.dim
    flat = amps.reshape(-1)
    k = flat.size // dim
    live = np.flatnonzero(x.reshape(len(channel), k).any(axis=1))
    phases = theta[live].ravel().tolist()
    plus = [-1j * cmath.exp(1j * t) for t in phases]
    minus = [-1j * cmath.exp(-1j * t) for t in phases]
    if k == 1:
        lengths = x[live].ravel().tolist()
    else:
        lengths = x[live][..., np.newaxis]
        plus = np.array(plus).reshape(lengths.shape)
        minus = np.array(minus).reshape(lengths.shape)
    occupied = np.flatnonzero(flat.reshape(k, dim).any(axis=0))
    frontier = int(_total_j(occupied[-1], truncation)) if occupied.size else 0
    trial = np.arange(k)[:, np.newaxis]
    for code, length, p, m in zip(channel[live].tolist(), lengths, plus, minus):
        table = _pair_table(ChannelId(code), truncation, ld)
        src, dst, omega, inverse = table.upto[frontier]
        src, dst, inverse = src + dim * trial, dst + dim * trial, inverse + omega.size * trial
        ang = length * omega
        c = np.cos(ang).astype(np.complex128).take(inverse)
        s = np.sin(ang).astype(np.complex128).take(inverse)
        u = flat[src]
        v = flat[dst]
        flat[src] = c * u + p * (s * v)
        flat[dst] = c * v + m * (s * u)
        if table.lift and frontier < truncation.j_max:
            frontier += 1


def batch_columns(schedule: Schedule, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """(n, K) columns around the schedule's own: perturbed lengths and phases,
    one pulse in four zero for some trials, one in ten zero for all of them,
    and trial 0 idle throughout when K > 1."""
    n = len(schedule)
    x = schedule.x[:, np.newaxis] * rng.uniform(0.5, 1.5, size=(n, k))
    theta = schedule.theta[:, np.newaxis] + rng.normal(size=(n, k))
    x[rng.random((n, k)) < 0.25] = 0.0
    x[rng.random(n) < 0.1] = 0.0
    if k > 1:
        x[:, 0] = 0.0
    return x, theta


def replay_cases():
    """(name, truncation, start state, schedule) covering frontier segments
    from the vacuum, H9 pulses past the j_max cap, and non-vacuum starts."""
    rng = np.random.default_rng(12)
    t = Truncation(6)
    corr = target_corr(1.0, t)
    result = deevolve(corr.state)
    yield "prep-from-vacuum", t, vacuum_state(t), result.preparation
    yield "deevolution-on-target", t, corr.state, result.deevolution
    t = Truncation(3)
    capped = random_schedule(t, rng, 200, h9_slots=set(range(0, 200, 9)))
    yield "h9-past-cap-from-vacuum", t, vacuum_state(t), capped
    yield "h9-from-low-j", t, low_j_state(t, 1, rng), capped
    yield "h9-from-dense", t, random_state(t, rng), capped


@pytest.mark.parametrize("entries", [None, 1, 37, 1 << 20], ids=["default", "1", "37", "segment"])
@pytest.mark.parametrize("k", [1, 2, 9])
def test_replay_matches_per_pulse_trig_bit_for_bit(k, entries, monkeypatch):
    """Whatever the block size, from one pulse per block to whole segments,
    replay gives the bytes of per-pulse trig, for one state and for batches
    in which some trials idle."""
    if entries is not None:
        monkeypatch.setattr(pulses, "_TRIG_ENTRIES", entries)
    rng = np.random.default_rng(k)
    for name, t, start, schedule in replay_cases():
        if k == 1:
            x, theta = schedule.x, schedule.theta
            amps = start.amplitudes.copy()
        else:
            x, theta = batch_columns(schedule, k, rng)
            amps = np.repeat(start.amplitudes[np.newaxis], k, axis=0)
        want = amps.copy()
        per_pulse_replay(want, t, LD, schedule.channel, x, theta)
        _replay(amps, t, LD, schedule.channel, x, theta)
        assert amps.tobytes() == want.tobytes(), name
        if k > 1:  # trial 0 idled: its start state, up to the sign of zeros
            assert np.array_equal(amps[0], start.amplitudes), name


@pytest.mark.parametrize("k", [1, 2, 9])
def test_replay_of_empty_and_idle_schedules_leaves_the_bytes(k):
    t = Truncation(4)
    rng = np.random.default_rng(5)
    start = np.stack([random_state(t, rng).amplitudes for _ in range(k)])
    if k == 1:
        start = start[0]
    idle = np.array([int(cid) for cid in ChannelId] * 3, dtype=np.uint8)
    for channel in (np.zeros(0, dtype=np.uint8), idle):
        shape = (channel.size,) if k == 1 else (channel.size, k)
        x, theta = np.zeros(shape), rng.uniform(-math.pi, math.pi, size=shape)
        amps = start.copy()
        _replay(amps, t, LD, channel, x, theta)
        assert amps.tobytes() == start.tobytes()


PHASE_EDGES = [
    v
    for base in (0.0, math.pi, 1e-300, 5e-324, 1.0, 1e6, 123456.789)
    for m in (base, math.nextafter(base, math.inf))
    for v in (m, -m)
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(PHASE_EDGES)), max_size=40))
def test_phase_factors_match_cmath_bit_for_bit(thetas):
    plus, minus = _phase_factors(np.array(PHASE_EDGES + thetas, dtype=np.float64))
    want_plus = np.array([-1j * cmath.exp(1j * t) for t in PHASE_EDGES + thetas], dtype=np.complex128)
    want_minus = np.array([-1j * cmath.exp(-1j * t) for t in PHASE_EDGES + thetas], dtype=np.complex128)
    assert plus.tobytes() == want_plus.tobytes()
    assert minus.tobytes() == want_minus.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1e-300, 5e-324, 0.5, 1e6])),
        min_size=1,
        max_size=24,
    ),
    st.sampled_from([1, 2, 3]),
)
def test_block_trig_rows_equal_per_pulse_trig(lengths, k):
    """One (m, K, distinct) evaluation gives each pulse the bytes of its own."""
    omega = _pair_table(ChannelId.H1, Truncation(12), LD).omega_distinct
    m = len(lengths) // k
    x = np.array(lengths[: m * k]).reshape(m, k, 1)
    c, s = _trig(x, omega)
    for i in range(m):
        if k == 1:
            row = _trig(float(x[i, 0, 0]), omega)
        else:
            row = _trig(x[i], omega)
        assert c[i].tobytes() == row[0].tobytes() and s[i].tobytes() == row[1].tobytes()


# --- columnar schedules -----------------------------------------------------

WRAP_EDGES = [
    v
    for base in (math.pi, math.tau, 3 * math.pi, 1e300, 5e-324, 2.2250738585072014e-308, 0.0)
    for m in (base, math.nextafter(base, math.inf), math.nextafter(base, -math.inf))
    for v in (m, -m)
]


def test_vectorised_wrap_matches_wrap_angle_on_edges():
    got = _wrap_angles(np.array(WRAP_EDGES))
    assert [w.hex() for w in got.tolist()] == [wrap_angle(v).hex() for v in WRAP_EDGES]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-10.0, 10.0),
            st.sampled_from(WRAP_EDGES),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_vectorised_wrap_matches_wrap_angle_bit_for_bit(thetas):
    got = _wrap_angles(np.array(thetas, dtype=np.float64))
    assert [w.hex() for w in got.tolist()] == [wrap_angle(v).hex() for v in thetas]


def columns(schedule):
    return (
        schedule.channel.tobytes(),
        schedule.x.tobytes(),
        schedule.theta.tobytes(),
        schedule.note.tobytes(),
        schedule.lamb_dicke,
        schedule.truncation,
        schedule.direction,
        schedule.target,
    )


def compiled_schedules():
    for target in (target_ghz(1.0, Truncation(4)), target_corr(1.0, Truncation(6))):
        result = deevolve(target.state, description=target.description)
        yield result.deevolution
        yield result.preparation


@pytest.mark.parametrize(
    "schedule",
    [
        *compiled_schedules(),
        Schedule((), LD, Truncation(2), Direction.PREPARATION),
        Schedule((Pulse(ChannelId.H9, 0.25, -3.0),), LD, Truncation(2), Direction.DEEVOLUTION, "one"),
    ],
    ids=["ghz-de", "ghz-prep", "corr-de", "corr-prep", "empty", "single"],
)
def test_schedule_round_trips_through_pulse_views(schedule):
    again = Schedule(
        schedule.pulses, schedule.lamb_dicke, schedule.truncation, schedule.direction, schedule.target
    )
    assert again == schedule
    assert columns(again) == columns(schedule)
    assert len(again) == len(schedule.pulses)
    assert (schedule.channel.dtype, schedule.note.dtype) == (np.uint8, np.int32)
    assert all(isinstance(p.channel, ChannelId) for p in schedule.pulses)


def test_pulse_views_equal_validated_pulses():
    """``Schedule.pulses`` skips Pulse's checks on the checked columns; each view
    still equals the validated Pulse field for field, bit for bit, including
    phases at pi, at -pi (wrapped to pi) and at -0.0, and is frozen."""
    note = Component(Occupation(1, 0, 0), Level.A)
    given_pulses = [
        Pulse(ChannelId.H1, 0.5, math.pi),
        Pulse(ChannelId.H9, 0.0, -0.0, note),
        Pulse(ChannelId.H2, 1e-300, -math.pi),
        Pulse(ChannelId.H5, 2.0, 7.0),
    ]
    schedule = Schedule(given_pulses, LD, Truncation(3), Direction.PREPARATION)
    for s in (schedule, next(compiled_schedules())):
        for view in s.pulses:
            validated = Pulse(view.channel, view.x, view.theta, view.note)
            assert view == validated and hash(view) == hash(validated)
            assert type(view.channel) is ChannelId
            assert (view.x.hex(), view.theta.hex()) == (validated.x.hex(), validated.theta.hex())
    views = schedule.pulses
    assert views == tuple(given_pulses)
    assert [v.theta.hex() for v in views] == [p.theta.hex() for p in given_pulses]
    assert views[1].theta.hex() == "-0x0.0p+0" and views[2].theta == math.pi
    with pytest.raises(AttributeError):
        views[0].x = 1.0


def test_schedule_columns_are_read_only_and_shared():
    schedule = next(compiled_schedules())
    with pytest.raises(ValueError):
        schedule.x[0] = 1.0
    with pytest.raises(ValueError):
        schedule.note[0] = -1
    noisy = perturb(schedule, NoiseModel(0.01, 0.01), np.random.default_rng(0))
    assert noisy.channel is schedule.channel and noisy.note is schedule.note


def test_schedule_equality_sees_every_column():
    base = (
        Pulse(ChannelId.H1, 0.5, 0.25, Component(Occupation(0, 1, 0), Level.A)),
        Pulse(ChannelId.H2, 0.0, -1.0),
    )
    t = Truncation(2)
    schedule = Schedule(base, LD, t, Direction.PREPARATION, "t")
    assert schedule == Schedule(base, LD, t, Direction.PREPARATION, "t")
    assert schedule != "not a schedule"
    changed = [
        (ChannelId.H3, 0.0, -1.0, None),
        (ChannelId.H2, 1e-300, -1.0, None),
        (ChannelId.H2, 0.0, math.nextafter(-1.0, 0.0), None),
        (ChannelId.H2, 0.0, -1.0, Component(Occupation(0, 0, 0), Level.A)),
    ]
    for channel, x, theta, note in changed:
        other = Schedule((base[0], Pulse(channel, x, theta, note)), LD, t, Direction.PREPARATION, "t")
        assert schedule != other
    for other in (
        Schedule(base, LambDickeParams(0.3, 0.1, 0.2, 0.2), t, Direction.PREPARATION, "t"),
        Schedule(base, LD, Truncation(3), Direction.PREPARATION, "t"),
        Schedule(base, LD, t, Direction.DEEVOLUTION, "t"),
        Schedule(base, LD, t, Direction.PREPARATION, "u"),
        Schedule(base[:1], LD, t, Direction.PREPARATION, "t"),
    ):
        assert schedule != other


BAD_COLUMNS = [
    ([1, 2, 0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [-1] * 3, "pulses[2].channel"),
    ([1, 2, 10], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [-1] * 3, "pulses[2].channel"),
    ([1, 2, 3], [0.1, 0.2, -0.3], [0.0, 0.0, 0.0], [-1] * 3, "pulses[2].x"),
    ([1, 2, 3], [0.1, math.inf, math.nan], [0.0, 0.0, 0.0], [-1] * 3, "pulses[1].x"),
    ([1, 2, 3], [0.1, 0.2, 0.3], [0.0, 0.0, math.nan], [-1] * 3, "pulses[2].theta"),
    ([1, 2, 3], [0.1, 0.2, 0.3], [0.0, -math.inf, 0.0], [-1] * 3, "pulses[1].theta"),
    ([1, 2], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [-1] * 3, "one length"),
    ([1], [0.0], [0.0], [4 * 999 + 0], "pulses[0].note: basis index must be -1 or in [0, 80)"),
    ([3], [0.0], [0.0], [-2], "pulses[0].note: basis index must be -1 or in [0, 80), got -2"),
    ([1, 1], [0.0, 0.0], [0.0, 0.0], [-1, 3], "pulses[1].note: level d is not coupled by channel H1"),
    ([1, 1], [0.0, -1.0], [0.0, 0.0], [3, -1], "pulses[1].x"),
    ([1], [0.0], [0.0], [Component(Occupation(0, 0, 999), Level.A)], "pulses[0].note"),
    ([1], [0.0], [0.0], [Component(Occupation(0, 0, 0), Level.D)],
     "pulses[0].note: level d is not coupled by channel H1"),
    # Wide or non-integer columns are checked before they are narrowed.
    (np.array([257]), [0.0], [0.0], np.array([2**32]),
     "pulses[0].channel: unknown channel code, got 257"),
    ([1], [0.0], [0.0], np.array([2**32]),
     "pulses[0].note: basis index must be -1 or in [0, 80), got 4294967296"),
    (np.array([1.7]), [0.0], [0.0], [-1], "pulses[0].channel: unknown channel code, got 1.7"),
    ([1], [0.0], [0.0], np.array([4.0]), "pulses[0].note: basis index must be -1 or in [0, 80)"),
    ([257], [0.0], [0.0], [-1], "pulses[0].channel: unknown channel code, got 257"),
    ([2**40], [0.0], [0.0], [-1], "pulses[0].channel"),
    ([1], [0.0], [0.0], [2**40], "pulses[0].note"),
    ([1, 2**70], [0.0, 0.0], [0.0, 0.0], [-1, -1], "pulses[1].channel"),
]


@pytest.mark.parametrize(
    "channel, x, theta, note, fragment",
    BAD_COLUMNS,
    # The ids leave the note column out, so each case keeps a stable name.
    ids=[f"channel{k}-x{k}-theta{k}-{case[-1]}" for k, case in enumerate(BAD_COLUMNS)],
)
def test_schedule_constructor_names_the_first_bad_pulse(channel, x, theta, note, fragment):
    """Columns go through ``from_columns``; notes given as components go
    through ``Schedule(pulses, ...)``."""
    meta = LD, Truncation(3), Direction.PREPARATION
    with pytest.raises(DomainError) as err:
        if any(isinstance(n, Component) for n in note):
            Schedule(map(Pulse, channel, x, theta, note), *meta)
        else:
            Schedule.from_columns(channel, x, theta, note, *meta)
    assert fragment in str(err.value)


def test_from_columns_wraps_phases_like_pulse():
    thetas = [5 * math.pi, -math.pi, math.pi, 1e300, -7.5]
    schedule = Schedule.from_columns(
        [1] * 5, [0.0] * 5, thetas, [-1] * 5, LD, Truncation(1), Direction.PREPARATION
    )
    assert schedule.theta.tolist() == [Pulse(ChannelId.H1, 0.0, v).theta for v in thetas]
