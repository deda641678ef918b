import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre

from ionsynth import (
    CHANNELS,
    ChannelId,
    Component,
    Direction,
    DomainError,
    LambDickeParams,
    Level,
    Occupation,
    Schedule,
    StateVector,
    Truncation,
    apply_schedule,
    basis_state,
    deevolve,
    fidelity_to_target,
    index_of,
    nonlinearity,
    pulse_count_model,
    rabi,
    random_target,
    solve_kill_lower,
    solve_kill_upper,
    target_corr,
    target_diag,
    target_ghz,
    vacuum_state,
)
from ionsynth import pulses, synthesis
from ionsynth.channels import _pairs, partner_occupation
from ionsynth.fock import J_MAX_CAP, _layout, _total_j
from ionsynth.pulses import _pair_table
from ionsynth.synthesis import (
    build_A,
    build_B,
    build_C,
    build_U_abc,
    build_U_bcd,
    bridge,
    plan,
    run_steps,
)

from conftest import (
    full_table_replay, per_pair_rotate, random_level_a, random_state, random_vibronic,
)

LD = LambDickeParams()
LD0 = LambDickeParams(0.0, 0.0, 0.0, 0.0)


# Closed-form pulse counts per stage, derived independently of the compiler:
# a row ladder over (n_x, n_y) emits 2 pulses per rung plus optional lead.
def abc_count(j: int) -> int:
    return 1 if j == 0 else 2 * (j + 1) ** 2


def bcd_count(j: int) -> int:
    return 2 if j == 0 else 2 * j * j + 5 * j + 2


def total_count(j_max: int) -> int:
    per_level = sum(abc_count(J) + bcd_count(J - 1) + 1 for J in range(1, j_max + 1))
    return per_level + abc_count(0)


def cell(nx, ny, nz, level) -> Component:
    return Component(Occupation(nx, ny, nz), level)


def put(state: StateVector, component: Component, value: complex) -> None:
    state.amplitudes[index_of(component, state.truncation)] = value


def test_build_A_two_forced_transfers():
    """|0,0,1;a> walks to |0,1,0;a> through one exchange and one carrier pulse."""
    t = Truncation(1)
    work = basis_state(cell(0, 0, 1, Level.A), t)
    emitted = run_steps(work, build_A(1, 0), LD)
    assert [channel for channel, *_ in emitted] == [ChannelId.H1, ChannelId.H2]

    omega_exchange = nonlinearity(LD.eps_y, 0) * nonlinearity(LD.eps_z, 0)
    omega_carrier = nonlinearity(LD.eps_carrier, 0)
    assert emitted[0][1] * omega_exchange == pytest.approx(math.pi / 2, abs=1e-12)
    assert emitted[1][1] * omega_carrier == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(work.amplitude(cell(0, 1, 0, Level.A))) == pytest.approx(1.0, abs=1e-12)


def test_build_A_clears_row():
    """Random row content ends up concentrated at the top of the ladder."""
    t = Truncation(3)
    rng = np.random.default_rng(42)
    work = StateVector(np.zeros(t.dim), t)
    # a-amplitudes anywhere in the row; b-amplitudes only above the first rung
    populated = [
        cell(1, 0, 2, Level.A),
        cell(1, 1, 1, Level.A),
        cell(1, 2, 0, Level.A),
        cell(1, 1, 1, Level.B),
        cell(1, 2, 0, Level.B),
    ]
    for c in populated:
        put(work, c, complex(rng.normal(), rng.normal()))
    work = work.normalized()

    run_steps(work, build_A(3, 1), LD)

    cleared = [
        cell(1, 0, 2, Level.A),
        cell(1, 1, 1, Level.A),
        cell(1, 0, 2, Level.B),
        cell(1, 1, 1, Level.B),
        cell(1, 2, 0, Level.B),
    ]
    for c in cleared:
        assert abs(work.amplitude(c)) <= 1e-12
    assert abs(work.amplitude(cell(1, 2, 0, Level.A))) == pytest.approx(1.0, abs=1e-12)


def test_build_B_collects_levels_b_and_c():
    t = Truncation(1)
    work = basis_state(cell(0, 0, 1, Level.C), t)
    emitted = run_steps(work, build_B(1, 0), LD)
    assert [channel for channel, *_ in emitted] == [ChannelId.H4, ChannelId.H3, ChannelId.H4]
    assert emitted[0][1] * nonlinearity(LD.eps_carrier, 0) == pytest.approx(
        math.pi / 2, abs=1e-12
    )
    assert abs(work.amplitude(cell(0, 1, 0, Level.B))) == pytest.approx(1.0, abs=1e-12)


def test_build_B_clears_full_row():
    """The leading carrier makes the b/c ladder safe for any row content."""
    t = Truncation(3)
    rng = np.random.default_rng(7)
    work = StateVector(np.zeros(t.dim), t)
    for occ in (Occupation(0, 0, 3), Occupation(0, 1, 2), Occupation(0, 2, 1), Occupation(0, 3, 0)):
        for level in (Level.B, Level.C):
            put(work, Component(occ, level), complex(rng.normal(), rng.normal()))
    work = work.normalized()

    run_steps(work, build_B(3, 0), LD)

    top = cell(0, 3, 0, Level.B)
    assert abs(work.amplitude(top)) == pytest.approx(1.0, abs=1e-12)
    for k in range(t.dim):
        if k != index_of(top, t):
            assert abs(work.amplitudes[k]) <= 1e-12


def test_build_C_single_merge():
    t = Truncation(1)
    work = basis_state(cell(0, 1, 0, Level.A), t)
    ((channel, x, _, _),) = run_steps(work, build_C(1, 0), LD0)
    assert channel is ChannelId.H5
    assert x == pytest.approx(math.pi / 2, abs=1e-12)  # omega = sqrt(1*1) = 1
    assert abs(work.amplitude(cell(0, 1, 0, Level.A))) <= 1e-12
    assert abs(work.amplitude(cell(1, 0, 0, Level.B))) == pytest.approx(1.0, abs=1e-12)


def test_build_U_abc_degenerate():
    t = Truncation(0)
    work = basis_state(cell(0, 0, 0, Level.B), t)
    emitted = run_steps(work, build_U_abc(0), LD)
    assert [channel for channel, *_ in emitted] == [ChannelId.H2]
    assert abs(work.amplitude(cell(0, 0, 0, Level.A))) == pytest.approx(1.0, abs=1e-12)


def test_build_U_abc_concentrates_subspace():
    t = Truncation(1)
    work = StateVector(np.zeros(t.dim), t)
    for c in (cell(1, 0, 0, Level.A), cell(0, 1, 0, Level.B), cell(0, 0, 1, Level.C)):
        put(work, c, 1 / math.sqrt(3))
    run_steps(work, build_U_abc(1), LD)
    target = cell(1, 0, 0, Level.A)
    assert abs(work.amplitude(target)) == pytest.approx(1.0, abs=1e-12)
    for k in range(t.dim):
        if k != index_of(target, t):
            assert abs(work.amplitudes[k]) <= 1e-12


def test_build_U_bcd_degenerate():
    t = Truncation(0)
    work = basis_state(cell(0, 0, 0, Level.C), t)
    emitted = run_steps(work, build_U_bcd(0), LD)
    assert len(emitted) == 2
    assert abs(work.amplitude(cell(0, 0, 0, Level.B))) == pytest.approx(1.0, abs=1e-12)


def test_build_U_bcd_from_level_d():
    t = Truncation(1)
    work = basis_state(cell(0, 0, 1, Level.D), t)
    run_steps(work, build_U_bcd(1), LD)
    assert abs(work.amplitude(cell(1, 0, 0, Level.B))) == pytest.approx(1.0, abs=1e-12)


def test_bridge_forced_transfer():
    t = Truncation(1)
    work = basis_state(cell(1, 0, 0, Level.A), t)
    ((channel, x, _, _),) = run_steps(work, bridge(1), LD0)
    assert channel is ChannelId.H9
    assert x == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(work.amplitude(cell(0, 0, 0, Level.B))) == pytest.approx(1.0, abs=1e-12)


def test_bridge_rabi_at_higher_rung():
    t = Truncation(4)
    work = basis_state(cell(4, 0, 0, Level.A), t)
    ((_, x, _, _),) = run_steps(work, bridge(4), LD)
    omega = 2.0 * nonlinearity(0.1, 3)
    assert x * omega == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(work.amplitude(cell(4, 0, 0, Level.A))) <= 1e-12


@pytest.mark.parametrize("j", range(5))
def test_stage_pulse_counts(j):
    """Step counts match the closed forms; the plan needs no state."""
    assert len(list(build_U_abc(j))) == abc_count(j)
    assert len(list(build_U_bcd(j))) == bcd_count(j)


@pytest.mark.parametrize("j_max", range(41))
def test_pulse_count_model_matches_stage_sum(j_max):
    assert pulse_count_model(j_max) == total_count(j_max)
    assert pulse_count_model(j_max) == sum(1 for _ in plan(j_max))


def test_deevolve_vacuum_is_all_noops():
    result = deevolve(vacuum_state(Truncation(3)))
    assert result.final_residual == 0.0
    assert all(p.x == 0.0 for p in result.deevolution.pulses)


def test_deevolve_single_phonon():
    """|1,0,0> needs exactly two real pulses: the sideband bridge and the
    final carrier."""
    t = Truncation(1)
    target = basis_state(cell(1, 0, 0, Level.A), t)
    result = deevolve(target)
    nontrivial = [p for p in result.deevolution.pulses if p.x > 0]
    assert [p.channel for p in nontrivial] == [ChannelId.H9, ChannelId.H2]
    assert result.final_residual <= 1e-12

    out = apply_schedule(vacuum_state(t), result.preparation)
    assert fidelity_to_target(out, target) >= 1 - 1e-12


def test_deevolve_schedule_shape():
    t = Truncation(2)
    rng = np.random.default_rng(3)
    result = deevolve(random_level_a(t, rng), LD, description="shape-check")
    assert result.pulse_count == total_count(2) == len(result.deevolution)
    assert result.deevolution.direction is Direction.DEEVOLUTION
    assert result.preparation.direction is Direction.PREPARATION
    assert result.deevolution.target == "shape-check"
    # the preparation program is the exact reverse with phases shifted by pi
    for p, q in zip(result.preparation.pulses, reversed(result.deevolution.pulses)):
        assert p.channel == q.channel and p.x == q.x


@pytest.mark.parametrize("j_max", [2, 3, 4, 5])
def test_deevolve_random_targets(j_max):
    t = Truncation(j_max)
    rng = np.random.default_rng(100 + j_max)
    for _ in range(3):
        target = random_level_a(t, rng)
        result = deevolve(target)
        assert result.final_residual <= 1e-12
        out = apply_schedule(vacuum_state(t), result.preparation)
        assert fidelity_to_target(out, target) >= 1 - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    j_max=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    ld=st.sampled_from([LD, LambDickeParams(0.45, 0.15, 0.25, 0.2)]),
)
def test_vibronic_targets_round_trip(j_max, seed, ld):
    """A target on all four levels, with the top level-d block empty (levels c
    and d at J_max 0), compiles and prepares back; so does its pruned schedule."""
    t = Truncation(j_max)
    target = random_vibronic(t, np.random.default_rng(seed))
    result = deevolve(target, ld)
    assert result.final_residual <= 1e-12
    prep = result.preparation
    keep = prep.x > 0.0
    pruned = Schedule.from_columns(
        prep.channel[keep], prep.x[keep], prep.theta[keep], prep.note[keep],
        ld, t, prep.direction, prep.target,
    )
    fid, fid_pruned = (
        fidelity_to_target(apply_schedule(vacuum_state(t), s), target) for s in (prep, pruned)
    )
    assert 1.0 - fid <= 1e-12
    assert fid_pruned == fid


@pytest.mark.parametrize(
    "j_max, component, refusal",
    [
        (3, cell(0, 0, 3, Level.D), "(J=3; d), which the plan at j_max 3 cannot empty; "
         "compiling at j_max 4 empties it"),
        (1, cell(1, 0, 0, Level.D), "(J=1; d), which the plan at j_max 1 cannot empty; "
         "compiling at j_max 2 empties it"),
        (0, cell(0, 0, 0, Level.C), "(J=0; c, d), which the plan at j_max 0 cannot empty; "
         "compiling at j_max 1 empties it"),
        (0, cell(0, 0, 0, Level.D), "(J=0; c, d), which the plan at j_max 0 cannot empty; "
         "compiling at j_max 1 empties it"),
        (J_MAX_CAP, cell(0, J_MAX_CAP, 0, Level.D),
         "(J=40; d), which the plan at j_max 40 cannot empty; j_max 40 is the cap"),
    ],
)
def test_deevolve_refuses_weight_the_plan_cannot_empty_by_name(j_max, component, refusal):
    """Weight on the top stage's level d, or on level c or d at J_max 0, is
    refused by name; one cutoff up, the same state compiles."""
    t = Truncation(j_max)
    target = vacuum_state(t)
    target.amplitudes[0] = 0.8
    put(target, component, 0.6)
    with pytest.raises(DomainError) as err:
        deevolve(target)
    assert str(err.value) == f"target has weight on {refusal}"
    if j_max < J_MAX_CAP:
        wider = Truncation(j_max + 1)
        embedded = StateVector(np.pad(target.amplitudes, (0, wider.dim - t.dim)), wider)
        assert deevolve(embedded).final_residual <= 1e-12


def test_deevolve_is_deterministic():
    t = Truncation(3)
    target = random_level_a(t, np.random.default_rng(8))
    a = deevolve(target).deevolution
    b = deevolve(target.copy()).deevolution
    assert [(p.channel, p.x, p.theta) for p in a.pulses] == [
        (p.channel, p.x, p.theta) for p in b.pulses
    ]


def test_deevolve_notes_record_killed_components():
    """Replaying the de-evolution, the component named in each pulse's note is
    null right after that pulse fires: the transfer conditions hold at every
    single step."""
    t = Truncation(3)
    target = random_level_a(t, np.random.default_rng(12))
    sched = deevolve(target).deevolution
    state = target
    for k, p in enumerate(sched.pulses):
        state = StateVector(full_table_replay(target, sched, k + 1), t)
        assert p.note is not None
        assert abs(state.amplitude(p.note)) <= 1e-10


def test_subspace_monotonicity():
    """After the stage that processes level J, no population remains in any
    subspace with total >= J, nor on level d of subspace J-1."""
    j_max = 4
    t = Truncation(j_max)
    target = random_level_a(t, np.random.default_rng(77))
    sched = deevolve(target).deevolution

    basis = [(c.occ.total, c.level) for c in map(lambda k: _component(k, t), range(t.dim))]

    offset = 0
    for j in range(j_max, 0, -1):
        offset += abc_count(j) + bcd_count(j - 1) + 1
        state = StateVector(full_table_replay(target, sched, offset), t)
        mass = sum(
            abs(a) ** 2
            for a, (total, level) in zip(state.amplitudes, basis)
            if total >= j or (total == j - 1 and level is Level.D)
        )
        assert mass <= 1e-10
    assert offset + abc_count(0) == len(sched)


def _component(k, t):
    from ionsynth import component_of

    return component_of(k, t)


def test_golden_pulse_counts_small():
    assert pulse_count_model(0) == 1
    assert pulse_count_model(4) == 179
    assert pulse_count_model(6) == 482


def test_pulse_count_model_is_not_capped():
    """It counts the plan without a basis, so it sizes cutoffs Truncation refuses."""
    assert pulse_count_model(40) == 92741
    assert pulse_count_model(41) > 92741
    assert pulse_count_model(10_000) == total_count(10_000)


# --- Stage-frontier rotations against the full-table compiler ---------------


def full_table_solve_and_apply(work, cid, occ, *, kill_upper, ld):
    """Reference compiler step: every coupled pair of the channel rotates on
    every pulse, whatever the solved J (the loop before stage frontiers)."""
    spec = CHANNELS[cid]
    table = _pair_table(cid, work.truncation, ld)
    src_index = index_of(Component(occ, spec.lower_level), work.truncation)
    (rows,) = np.nonzero(table.src_index == src_index)
    if rows.size == 0:
        raise RuntimeError(
            f"channel {cid.name} has no coupled pair at occupation {tuple(occ)}"
        )
    row = int(rows[0])
    dst_index = int(table.dst_index[row])
    omega = float(table.omega_distinct[table.omega_inverse[row]])
    q_lower = complex(work.amplitudes[src_index])
    q_upper = complex(work.amplitudes[dst_index])
    if kill_upper:
        x, theta = solve_kill_upper(q_lower, q_upper, omega)
        note = Component(partner_occupation(spec, occ), spec.upper_level)
    else:
        x, theta = solve_kill_lower(q_lower, q_upper, omega)
        note = Component(occ, spec.lower_level)
    per_pair_rotate(work.amplitudes, table, x, theta)
    return cid, x, theta, note


def full_table_rows(work, steps, ld):
    """Run ``steps`` through the full-table step on ``work``; never routes
    through ``synthesis``, so the comparison cannot become a self-compare."""
    return [
        full_table_solve_and_apply(work, cid, occ, kill_upper=kill_upper, ld=ld)
        for cid, occ, kill_upper in steps
    ]


def full_table_deevolve(target, ld):
    """Reference compile over ``plan``: the rows and the final residual."""
    work = StateVector(target.amplitudes / target.norm(), target.truncation)
    rows = full_table_rows(work, plan(target.truncation.j_max), ld)
    return rows, max(0.0, float(1.0 - abs(work.amplitudes[0]) ** 2))


def fingerprint(pulses):
    return [(p.channel, p.x.hex(), p.theta.hex(), p.note) for p in pulses]


def row_fingerprint(rows):
    return [(channel, x.hex(), theta.hex(), note) for channel, x, theta, note in rows]


def sparse_random(t: Truncation, seed: int) -> StateVector:
    """Random level-a target with about 70% of its components zeroed."""
    rng = np.random.default_rng(seed)
    amps = random_level_a(t, rng).amplitudes.copy()
    amps[rng.random(amps.size) < 0.7] = 0.0
    amps[0] += 0.1  # never all zero
    return StateVector(amps / np.linalg.norm(amps), t)


FRONTIER_LDS = {
    "default": LD,
    "random": LambDickeParams(*np.random.default_rng(2024).uniform(0.05, 0.35, 4).tolist()),
    "eps_x=0.5": LambDickeParams(0.5, 0.1, 0.2, 0.1),
}


def frontier_targets(t: Truncation) -> dict[str, StateVector]:
    out = {
        "corr": target_corr(1.0, t).state,
        "ghz": target_ghz(1.0, t).state,
        "dense": random_level_a(t, np.random.default_rng(t.j_max)),
        "sparse": sparse_random(t, 500 + t.j_max),
    }
    if t.j_max >= 12:
        out["diag"] = target_diag(t).state
    return out


@pytest.mark.parametrize("ld_name", list(FRONTIER_LDS))
@pytest.mark.parametrize("j_max", [1, 2, 5, 8, 12])
def test_deevolve_matches_full_table_compiler(j_max, ld_name):
    """Stage-frontier rotations emit bit for bit the full-table program."""
    ld = FRONTIER_LDS[ld_name]
    t = Truncation(j_max)
    for name, target in frontier_targets(t).items():
        got = deevolve(target, ld)
        want, residual = full_table_deevolve(target, ld)
        assert fingerprint(got.deevolution.pulses) == row_fingerprint(want), name
        assert got.final_residual.hex() == residual.hex(), name
        assert got.pulse_count == len(want)


def builder_calls(j_max: int):
    """The (builder, args, solved J) sequence that ``deevolve`` runs."""
    for j in range(j_max, 0, -1):
        yield build_U_abc, (j,), j
        yield build_U_bcd, (j - 1,), j - 1
        yield bridge, (j,), j
    yield build_U_abc, (0,), 0


def run_builder(builder, state: StateVector, args, ld, *, reference: bool):
    """Apply one builder to a copy of ``state``; returns (rows, amplitudes)."""
    work = StateVector(state.amplitudes.copy(), state.truncation)
    if reference:
        rows = full_table_rows(work, builder(*args), ld)
    else:
        rows = run_steps(work, builder(*args), ld)
    return rows, work.amplitudes


def assert_matches_up_to(builder, state, args, solved_j, ld):
    """Pulses and amplitudes at or below ``solved_j`` equal the full-table
    reference; higher amplitudes stay as they came in, except that bridge(J)
    also rotates its (J+1; a) <-> (J; b) pairs.  Returns the new state."""
    t = state.truncation
    got, amps = run_builder(builder, state, args, ld, reference=False)
    want, ref = run_builder(builder, state, args, ld, reference=True)
    assert row_fingerprint(got) == row_fingerprint(want)
    total = _total_j(np.arange(t.dim), t)
    low = total <= solved_j
    assert np.array_equal(amps[low], ref[low])
    untouched = total > solved_j + (1 if builder is bridge else 0)
    assert np.array_equal(amps[untouched], state.amplitudes[untouched])
    return StateVector(amps, t)


@pytest.mark.parametrize("ld_name", list(FRONTIER_LDS))
@pytest.mark.parametrize("j_max", [2, 5])
def test_builders_match_full_table_at_or_below_solved_j(j_max, ld_name):
    """Along the de-evolution of corr and a sparse random target, each
    build_U_abc / build_U_bcd / bridge call, fed the stage-frontier state,
    agrees with the full-table step at or below the J it solves."""
    ld = FRONTIER_LDS[ld_name]
    t = Truncation(j_max)
    for target in (target_corr(1.0, t).state, sparse_random(t, 9)):
        state = target
        for builder, args, solved_j in builder_calls(j_max):
            state = assert_matches_up_to(builder, state, args, solved_j, ld)


@pytest.mark.parametrize("seed", range(3))
def test_row_builders_match_full_table_on_dense_states(seed):
    """Standalone build_A/B/C on a state dense over every level and J."""
    t = Truncation(5)
    rng = np.random.default_rng(900 + seed)
    state = random_state(t, rng)
    j = int(rng.integers(1, 5))
    n_x = int(rng.integers(0, j))
    for builder in (build_A, build_B, build_C):
        state = assert_matches_up_to(builder, state, (j, n_x), j, LD)
    state = assert_matches_up_to(bridge, state, (j,), j, LD)


def test_an_exchange_step_with_no_pair_has_no_partner_in_the_step_columns():
    """H1 lowers z, so it has no pair from (0, 1, 0): its step columns hold
    partner and rank -1, after a coupled H1/H2 ladder whose steps have both
    (the refusal is the row ``run_steps-exchange-no-pair`` of test_refusals)."""
    step = (ChannelId.H1, Occupation(0, 1, 0), False)
    columns = synthesis._step_columns([*build_A(2, 0), step], Truncation(2))
    assert columns.dst[-1] == columns.rank[-1] == -1
    assert np.all(columns.dst[:-1] >= 0) and np.all(columns.rank[:-1] >= 0)


def test_run_steps_of_no_steps_emits_no_pulse():
    assert run_steps(vacuum_state(Truncation(2)), [], LD) == []


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_run_steps_takes_a_bool_or_numpy_bool_kill_upper(flag):
    steps = [(ChannelId.H1, Occupation(0, 0, 1), flag)]
    pulses = run_steps(random_state(Truncation(1), np.random.default_rng(3)), steps, LD)
    steps = [(ChannelId.H1, Occupation(0, 0, 1), bool(flag))]
    assert pulses == run_steps(random_state(Truncation(1), np.random.default_rng(3)), steps, LD)


@pytest.mark.parametrize("j_max", [*range(17), 40])
def test_plan_columns_match_the_plan(j_max):
    """The cached columns hold, step by step, the plan's channel, the basis
    index of its occupation on the lower level, its J and kill_upper."""
    t = Truncation(j_max)
    columns = synthesis._plan_columns(j_max)
    steps = list(plan(j_max))
    assert columns.channel.tolist() == [int(cid) for cid, _, _ in steps]
    assert columns.src.tolist() == [
        index_of(Component(occ, CHANNELS[cid].lower_level), t) for cid, occ, _ in steps
    ]
    assert columns.stage.tolist() == [occ.total for _, occ, _ in steps]
    assert columns.kill_upper.tolist() == [kill_upper for _, _, kill_upper in steps]
    for code, where in columns.groups:
        assert where.tolist() == [k for k, (cid, _, _) in enumerate(steps) if cid == code]
    assert sum(where.size for _, where in columns.groups) == len(steps)
    assert not any(a.flags.writeable for a in columns[:4])


PLAN_POINTS = [
    LD,
    LambDickeParams(0.6, 0.1, 0.2, 0.1),  # past the first zero of L1_11, at J_max 12
    LambDickeParams(1e200, 1e200, 1e200, 1e200),  # every factor underflows to 0
]


@pytest.mark.parametrize("j_max", range(17))
def test_plan_columns_hold_each_steps_partner_omega_rank_and_note(j_max):
    """Step by step, the plan's partner is the basis index of
    ``partner_occupation`` on the upper level, its Omega rank reads ``rabi``
    bit for bit from ``omega_distinct`` at three points, and its note is the
    partner where kill_upper, else the solved component; all three columns
    are read-only int32.  ``_pairs`` over every occupation of the cutoff
    agrees the same way, with -1 ends and ranks exactly where there is no
    partner."""
    t = Truncation(j_max)
    columns = synthesis._plan_columns(j_max)
    for column in (columns.dst, columns.rank, columns.note):
        assert column.dtype == np.int32 and not column.flags.writeable
    distinct = {
        (cid, ld): _pair_table(cid, t, ld).omega_distinct for cid in ChannelId for ld in PLAN_POINTS
    }
    want_omega = {}
    rows = zip(plan(j_max), columns.src.tolist(), columns.dst.tolist(), columns.rank.tolist(),
               columns.note.tolist())
    for (cid, occ, kill_upper), src, dst, rank, note in rows:
        spec = CHANNELS[cid]
        assert dst == index_of(Component(partner_occupation(spec, occ), spec.upper_level), t)
        assert note == (dst if kill_upper else src)
        assert rank >= 0
        for ld in PLAN_POINTS:
            if (cid, occ, ld) not in want_omega:
                want_omega[cid, occ, ld] = rabi(spec, occ, ld).hex()
            assert float(distinct[cid, ld][rank]).hex() == want_omega[cid, occ, ld], (cid, occ, ld)
    occupations = _layout(j_max).occ
    for spec in CHANNELS.values():
        lower, upper, ranks = _pairs(spec, occupations)
        for occ, src, dst, rank in zip(
            map(Occupation._make, occupations.T.tolist()), lower.tolist(), upper.tolist(),
            ranks.tolist(),
        ):
            assert src == index_of(Component(occ, spec.lower_level), t)
            partner = partner_occupation(spec, occ)
            if partner is None:
                assert dst == rank == -1, (spec.cid, occ)
                continue
            assert dst == index_of(Component(partner, spec.upper_level), t), (spec.cid, occ)
            for ld in PLAN_POINTS:
                if (spec.cid, occ, ld) not in want_omega:
                    want_omega[spec.cid, occ, ld] = rabi(spec, occ, ld).hex()
                got = float(distinct[spec.cid, ld][rank]).hex()
                assert got == want_omega[spec.cid, occ, ld], (spec.cid, occ, ld)


def schedule_bytes(schedule) -> bytes:
    return b"".join(
        [schedule.channel.tobytes(), schedule.x.tobytes(), schedule.theta.tobytes(),
         schedule.note.tobytes()]
    )


def test_compiles_at_alternating_cutoffs_give_the_same_bytes():
    """Compiling at J_max 12, then 8, then 12 again: the cached plan columns
    of one cutoff are not disturbed by another's."""
    def compile_at(j_max):
        result = deevolve(target_corr(1.0, Truncation(j_max)).state)
        return schedule_bytes(result.deevolution), schedule_bytes(result.preparation), (
            result.final_residual.hex()
        )

    first = compile_at(12)
    compile_at(8)
    assert compile_at(12) == first


def first_laguerre_zero(j_max: int) -> float:
    """eps**2 at the smallest zero of L1_n over n <= j_max (L1_0 has none)."""
    return float(roots_genlaguerre(j_max, 1)[0].min()) if j_max else 4.0


@st.composite
def below_first_zero(draw):
    j_max = draw(st.integers(0, 8))
    bound = 0.95 * math.sqrt(first_laguerre_zero(j_max))
    eps = draw(st.lists(st.floats(0.0, bound), min_size=4, max_size=4))
    return j_max, LambDickeParams(*eps)


@settings(max_examples=30, deadline=None)
@given(point=below_first_zero(), sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_deevolve_matches_full_table_compiler_below_the_first_zero(point, sparse, seed):
    """Random dense and 70%-sparse level-a targets at Lamb-Dicke points below
    every Laguerre zero: the columnar pass emits the full-table program bit
    for bit (channels, x and theta hex, notes and residual hex)."""
    j_max, ld = point
    t = Truncation(j_max)
    target = sparse_random(t, seed) if sparse else random_level_a(t, np.random.default_rng(seed))
    got = deevolve(target, ld)
    want, residual = full_table_deevolve(target, ld)
    assert fingerprint(got.deevolution.pulses) == row_fingerprint(want)
    assert got.final_residual.hex() == residual.hex()


@settings(max_examples=40, deadline=None)
@given(
    j_max=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    which=st.integers(0, 3),
    f=st.floats(0.95, 1.05),
)
@example(j_max=5, seed=0, which=3, f=1.0)  # eps_carrier on the zero of L1_5
@example(j_max=5, seed=1, which=3, f=1.0 + 1e-9)
@example(j_max=5, seed=2, which=3, f=1.0 - 1e-9)
@example(j_max=4, seed=3, which=0, f=1.0)
@example(j_max=4, seed=4, which=1, f=1.0 + 1e-9)
@example(j_max=3, seed=5, which=2, f=1.0 - 1e-9)
def test_deevolve_on_both_sides_of_a_laguerre_zero(j_max, seed, which, f):
    """One eps at f times the smallest Laguerre zero below the cutoff, the
    rest at the default point: ``deevolve`` refuses with "no coupled pair"
    exactly when some plan step's ``rabi`` is not positive, and otherwise
    the preparation builds the target from the vacuum to 1e-12."""
    t = Truncation(j_max)
    eps = [LD.eps_x, LD.eps_y, LD.eps_z, LD.eps_carrier]
    eps[which] = f * math.sqrt(first_laguerre_zero(j_max))
    ld = LambDickeParams(*eps)
    target = random_target(t, np.random.default_rng(seed)).state
    if any(rabi(CHANNELS[cid], occ, ld) <= 0.0 for cid, occ, _ in plan(j_max)):
        with pytest.raises(DomainError, match="no coupled pair"):
            deevolve(target, ld)
        return
    result = deevolve(target, ld)
    assert result.final_residual <= 1e-12
    prepared = apply_schedule(vacuum_state(t), result.preparation)
    assert 1.0 - fidelity_to_target(prepared, target) <= 1e-12


# (rotation calls, pair operands summed over them) for the compile and for the
# noiseless preparation replay from the vacuum.  Both skip x = 0 pulses and cut
# each rotation at the occupied-J frontier; a kernel that loses either keeps
# every bit, so only these counts catch it.
WORK = {
    ("corr", 10): ((1049, 83229), (1049, 95403)),
    ("corr", 12): ((2441, 426086), (2441, 477554)),
    ("corr", 16): ((4714, 1541274), (4714, 1697671)),
    ("ghz", 10): ((1602, 194654), (1602, 215368)),
    ("ghz", 12): ((2687, 526823), (2687, 578291)),
    ("ghz", 16): ((6133, 2622690), (6133, 2838591)),
}


@pytest.mark.parametrize("name, j_max", list(WORK))
def test_compile_and_replay_do_the_pinned_work(name, j_max, monkeypatch):
    def count(module):
        tally, rotate = [0, 0], module._rotate

        def counted(flat, src, dst, *factors):
            tally[0] += 1
            tally[1] += src.size  # K included
            rotate(flat, src, dst, *factors)

        monkeypatch.setattr(module, "_rotate", counted)
        return tally

    t = Truncation(j_max)
    compiled, replayed = count(synthesis), count(pulses)
    result = deevolve({"corr": target_corr, "ghz": target_ghz}[name](1, t).state)
    apply_schedule(vacuum_state(t), result.preparation)
    assert (tuple(compiled), tuple(replayed)) == WORK[name, j_max]
