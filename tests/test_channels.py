import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsynth import (
    CHANNELS,
    ChannelId,
    ChannelKind,
    Component,
    DomainError,
    LambDickeParams,
    Level,
    Mode,
    Occupation,
    Truncation,
    component_of,
    enumerate_basis,
    index_of,
    nonlinearity,
    rabi,
)
from ionsynth.channels import (
    CoupledPair,
    _nonlinearities,
    coupled_pairs,
    dense_hamiltonian,
    partner_occupation,
)

LD = LambDickeParams()
LD0 = LambDickeParams(0.0, 0.0, 0.0, 0.0)


def series_nonlinearity(eps: float, n: int) -> float:
    """Independent oracle: the finite factorial series for <n| F_eps |n>.

    sum_{k=0}^{n} (-1)^k eps^(2k) n! / ((k+1)! k! (n-k)!), times exp(-eps^2/2).
    Written from the series definition, deliberately not via Laguerre
    polynomials, so it cannot share bugs with the production code.
    """
    total = 0.0
    for k in range(n + 1):
        term = (-1) ** k * eps ** (2 * k) * math.factorial(n)
        term /= math.factorial(k + 1) * math.factorial(k) * math.factorial(n - k)
        total += term
    return math.exp(-0.5 * eps * eps) * total


def test_nonlinearity_at_zero_is_exactly_one():
    for n in range(13):
        assert nonlinearity(0.0, n) == 1.0


def test_nonlinearity_pinned_values():
    assert nonlinearity(0.2, 0) == pytest.approx(math.exp(-0.02), abs=1e-15)
    assert nonlinearity(0.2, 0) == pytest.approx(0.980199, abs=1e-6)
    # L1_1(x) = 2 - x
    assert nonlinearity(0.2, 1) == pytest.approx(math.exp(-0.02) * (2 - 0.04) / 2, abs=1e-15)
    assert nonlinearity(0.2, 1) == pytest.approx(0.960595, abs=1e-6)


def test_nonlinearity_matches_series_oracle():
    for eps in np.linspace(0.0, 0.5, 11):
        for n in range(13):
            assert abs(nonlinearity(float(eps), n) - series_nonlinearity(float(eps), n)) <= 1e-12


def test_nonlinearity_range_and_validation():
    for eps in (0.1, 0.3, 0.5):
        for n in range(13):
            assert 0.0 < nonlinearity(eps, n) <= 1.0
    with pytest.raises(DomainError):
        nonlinearity(-0.1, 0)
    with pytest.raises(DomainError):
        nonlinearity(0.1, -1)


@pytest.mark.parametrize("eps", [38.6, 38.61, 40.0, 1e10, 1e100, 1e200])
def test_nonlinearity_past_the_damping_underflow(eps):
    """Once exp(-eps**2/2) underflows the factor is 0, its limit, in the scalar
    and the array form alike, even where L1_n(eps**2) or eps**2 overflows.
    Just before (eps 38.6) the damping is subnormal and both forms agree."""
    values = [nonlinearity(eps, n) for n in range(13)]
    assert _nonlinearities(eps, 12).tolist() == values
    assert all(math.isfinite(v) for v in values)
    if math.exp(-0.5 * eps * eps) == 0.0:
        assert values == [0.0] * 13
    else:
        assert any(v != 0.0 for v in values)


def test_channel_table():
    """The nine channels: kind, mode roles, and electronic level pair."""
    expect = {
        ChannelId.H1: (ChannelKind.EXCHANGE, Mode.Y, Mode.Z, Level.A, Level.B),
        ChannelId.H2: (ChannelKind.CARRIER, None, None, Level.A, Level.B),
        ChannelId.H3: (ChannelKind.EXCHANGE, Mode.Y, Mode.Z, Level.B, Level.C),
        ChannelId.H4: (ChannelKind.CARRIER, None, None, Level.B, Level.C),
        ChannelId.H5: (ChannelKind.EXCHANGE, Mode.X, Mode.Y, Level.A, Level.B),
        ChannelId.H6: (ChannelKind.CARRIER, None, None, Level.C, Level.D),
        ChannelId.H7: (ChannelKind.EXCHANGE, Mode.Y, Mode.Z, Level.C, Level.D),
        ChannelId.H8: (ChannelKind.EXCHANGE, Mode.X, Mode.Y, Level.B, Level.C),
        ChannelId.H9: (ChannelKind.RED_SIDEBAND, None, Mode.X, Level.A, Level.B),
    }
    assert set(CHANNELS) == set(ChannelId)
    for cid, (kind, raised, lowered, lo, hi) in expect.items():
        spec = CHANNELS[cid]
        assert (spec.kind, spec.raised, spec.lowered, spec.lower_level, spec.upper_level) == (
            kind,
            raised,
            lowered,
            lo,
            hi,
        )


def test_default_lamb_dicke_working_point():
    assert (LD.eps_x, LD.eps_y, LD.eps_z, LD.eps_carrier) == (0.3, 0.1, 0.2, 0.1)


def test_lamb_dicke_validation():
    with pytest.raises(DomainError):
        LambDickeParams(eps_x=-0.1)
    with pytest.raises(DomainError):
        LambDickeParams(eps_carrier=float("nan"))


def test_rabi_lamb_dicke_limit_is_exact():
    # ny=1, nz=2 -> sqrt(2*2) = 2, exactly, with every correction factor at 1
    assert rabi(CHANNELS[ChannelId.H1], Occupation(0, 1, 2), LD0) == 2.0
    for ny in range(5):
        for nz in range(5):
            got = rabi(CHANNELS[ChannelId.H1], Occupation(0, ny, nz), LD0)
            assert got == math.sqrt((ny + 1) * nz)


def test_rabi_pinned_value():
    # H1 on (ny, nz) = (0, 1): sqrt(1) * F(0.1, 0) * F(0.2, 0) = e^-0.025
    got = rabi(CHANNELS[ChannelId.H1], Occupation(0, 0, 1), LD)
    assert got == pytest.approx(math.exp(-0.025), abs=1e-15)
    assert got == pytest.approx(0.975310, abs=1e-6)


def test_rabi_unsupported_transitions_are_zero():
    assert rabi(CHANNELS[ChannelId.H1], Occupation(0, 1, 0), LD) == 0.0
    assert rabi(CHANNELS[ChannelId.H9], Occupation(0, 3, 3), LD) == 0.0


def test_rabi_carrier_and_sideband():
    assert rabi(CHANNELS[ChannelId.H2], Occupation(2, 0, 0), LD) == nonlinearity(0.1, 2)
    assert rabi(CHANNELS[ChannelId.H9], Occupation(4, 0, 0), LD) == pytest.approx(
        2.0 * nonlinearity(0.1, 3), abs=1e-15
    )


def test_rabi_approaches_limit_continuously():
    tiny = LambDickeParams(1e-4, 1e-4, 1e-4, 1e-4)
    occ = Occupation(1, 2, 3)
    for cid in ChannelId:
        limit = rabi(CHANNELS[cid], occ, LD0)
        if limit == 0.0:
            continue
        assert abs(rabi(CHANNELS[cid], occ, tiny) / limit - 1.0) < 1e-6


def test_partner_occupation():
    assert partner_occupation(CHANNELS[ChannelId.H1], Occupation(0, 0, 1)) == Occupation(0, 1, 0)
    assert partner_occupation(CHANNELS[ChannelId.H2], Occupation(2, 1, 0)) == Occupation(2, 1, 0)
    assert partner_occupation(CHANNELS[ChannelId.H9], Occupation(2, 0, 0)) == Occupation(1, 0, 0)
    assert partner_occupation(CHANNELS[ChannelId.H9], Occupation(0, 1, 1)) is None
    assert partner_occupation(CHANNELS[ChannelId.H5], Occupation(1, 0, 2)) is None


def test_coupled_pairs_carrier_at_jmax0():
    pairs, untouched = coupled_pairs(CHANNELS[ChannelId.H2], Truncation(0), LD)
    assert len(pairs) == 1
    (pair,) = pairs
    assert pair.src == (Occupation(0, 0, 0), Level.A)
    assert pair.dst == (Occupation(0, 0, 0), Level.B)
    assert {c.level for c in untouched} == {Level.C, Level.D}


def test_coupled_pairs_red_sideband_at_jmax1():
    pairs, untouched = coupled_pairs(CHANNELS[ChannelId.H9], Truncation(1), LD)
    assert len(pairs) == 1
    (pair,) = pairs
    assert pair.src == (Occupation(1, 0, 0), Level.A)
    assert pair.dst == (Occupation(0, 0, 0), Level.B)
    assert pair.omega == pytest.approx(nonlinearity(0.1, 0), abs=1e-15)
    untouched_a = [c for c in untouched if c.level is Level.A]
    assert all(c.occ.nx == 0 for c in untouched_a)


@pytest.mark.parametrize("cid", list(ChannelId))
def test_coupled_pairs_partition(cid):
    """Every basis component sits in exactly one pair or the untouched list."""
    t = Truncation(4)
    pairs, untouched = coupled_pairs(CHANNELS[cid], t, LD)
    seen = [index_of(c, t) for c in untouched]
    for p in pairs:
        assert p.omega > 0
        assert p.src.level is CHANNELS[cid].lower_level
        assert p.dst.level is CHANNELS[cid].upper_level
        seen.append(index_of(p.src, t))
        seen.append(index_of(p.dst, t))
    assert sorted(seen) == list(range(t.dim))


@pytest.mark.parametrize("cid", list(ChannelId))
def test_pairs_respect_total_quanta(cid):
    t = Truncation(5)
    pairs, _ = coupled_pairs(CHANNELS[cid], t, LD)
    kind = CHANNELS[cid].kind
    for p in pairs:
        if kind is ChannelKind.EXCHANGE:
            assert p.dst.occ.total == p.src.occ.total
        elif kind is ChannelKind.CARRIER:
            assert p.dst.occ == p.src.occ
        else:
            assert p.dst.occ.total == p.src.occ.total - 1


def test_dense_hamiltonian_carrier_block():
    h = dense_hamiltonian(CHANNELS[ChannelId.H2], 0.0, Truncation(0), LD0)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 1] = expect[1, 0] = 1.0
    assert np.allclose(h, expect)


def test_dense_hamiltonian_is_hermitian_with_pair_eigenvalues():
    t = Truncation(3)
    rng = np.random.default_rng(17)
    for cid in (ChannelId.H1, ChannelId.H9, ChannelId.H6):
        theta = float(rng.uniform(-math.pi, math.pi))
        h = dense_hamiltonian(CHANNELS[cid], theta, t, LD)
        assert np.allclose(h, h.conj().T)
        pairs, untouched = coupled_pairs(CHANNELS[cid], t, LD)
        for p in pairs[:10]:
            i, j = index_of(p.src, t), index_of(p.dst, t)
            block = h[np.ix_([i, j], [i, j])]
            eig = np.linalg.eigvalsh(block)
            assert np.allclose(sorted(eig), [-p.omega, p.omega], atol=1e-12)
        for c in untouched[:10]:
            k = index_of(c, t)
            assert np.count_nonzero(h[k]) == 0


# --- Array tables against the per-component loop ----------------------------


def loop_coupled_pairs(spec, t, ld):
    """Reference build: the per-component loop over the basis, one ``rabi`` and
    ``partner_occupation`` call and one ``index_of`` lookup per pair."""
    basis = enumerate_basis(t)
    claimed = np.zeros(len(basis), dtype=bool)
    src, dst, omega = [], [], []
    for k, comp in enumerate(basis):
        if comp.level is not spec.lower_level:
            continue
        pocc = partner_occupation(spec, comp.occ)
        if pocc is None:
            continue
        w = rabi(spec, comp.occ, ld)
        if w <= 0.0:
            continue
        d = index_of(Component(pocc, spec.upper_level), t)
        src.append(k)
        dst.append(d)
        omega.append(w)
        claimed[k] = claimed[d] = True
    untouched = [comp for k, comp in enumerate(basis) if not claimed[k]]
    return (
        np.array(src, dtype=np.intp),
        np.array(dst, dtype=np.intp),
        np.array(omega, dtype=np.float64),
        untouched,
    )


def assert_tables_match_loop(t, ld):
    for cid, spec in CHANNELS.items():
        table, untouched = coupled_pairs(spec, t, ld)
        src, dst, omega, want_untouched = loop_coupled_pairs(spec, t, ld)
        assert table.src_index.dtype == np.intp and table.dst_index.dtype == np.intp
        assert table.omega.dtype == np.float64
        assert table.src_index.tobytes() == src.tobytes(), cid
        assert table.dst_index.tobytes() == dst.tobytes(), cid
        assert table.omega.tobytes() == omega.tobytes(), cid
        assert table.omega_distinct[table.omega_inverse].tobytes() == omega.tobytes(), cid
        assert untouched == want_untouched, cid


@pytest.mark.parametrize("j_max", range(17))
def test_tables_match_loop_at_default_point(j_max):
    assert_tables_match_loop(Truncation(j_max), LD)


@pytest.mark.parametrize(
    "j_max, ld",
    [
        (0, LambDickeParams(0, 0, 0, 0)),
        (5, LambDickeParams(0, 0, 0, 0)),
        (12, LambDickeParams(0, 0, 0, 0)),
        (12, LambDickeParams(0.6, 0.1, 0.2, 0.1)),  # past the first zero of L1_11
        (4, LambDickeParams(0.3, 0.1, 0.2, 1.4142)),  # carrier factor past a zero
        (4, LambDickeParams(1e200, 0.1, 1e100, 38.6)),  # eps**2 or L1_n overflows
    ],
)
def test_tables_match_loop_at_edge_points(j_max, ld):
    assert_tables_match_loop(Truncation(j_max), ld)


@settings(max_examples=60, deadline=None)
@given(
    j_max=st.integers(0, 8),
    eps=st.tuples(*[st.floats(0.0, 1.5, allow_nan=False)] * 4),
)
def test_tables_match_loop_over_random_points(j_max, eps):
    assert_tables_match_loop(Truncation(j_max), LambDickeParams(*eps))


def test_pair_views_index_slice_and_iterate():
    t = Truncation(3)
    table, _ = coupled_pairs(CHANNELS[ChannelId.H5], t, LD)
    views = list(table)
    assert len(views) == len(table) == table.src_index.size > 2
    for k, pair in enumerate(views):
        assert pair == table[k] == CoupledPair(
            component_of(int(table.src_index[k]), t),
            component_of(int(table.dst_index[k]), t),
            float(table.omega[k]),
        )
        assert pair.omega == rabi(CHANNELS[ChannelId.H5], pair.src.occ, LD)
    assert table[-1] == views[-1]
    assert table[1:3] == views[1:3] and table[::-2] == views[::-2]
    with pytest.raises(IndexError):
        table[len(table)]


@pytest.mark.parametrize("ld", [LD, LD0, LambDickeParams(0.6, 0.1, 0.2, 0.1)])
def test_pair_table_row_lookup_and_distinct_omega(ld):
    t = Truncation(6)
    for spec in CHANNELS.values():
        table, _ = coupled_pairs(spec, t, ld)
        rows = {int(s): k for k, s in enumerate(table.src_index)}
        for index in range(t.dim):
            assert table.row_of(index) == rows.get(index)
        assert table.omega_distinct[table.omega_inverse].tobytes() == table.omega.tobytes()
        inverse = table.omega_inverse.tolist()
        # one entry per occupation key that Omega depends on
        keys = {}
        for pair, entry in zip(table, inverse):
            occ = pair.src.occ
            key = (occ.nx,) if spec.raised is None else (occ[spec.raised], occ[spec.lowered])
            assert keys.setdefault(entry, key) == key
        assert len(set(keys.values())) == len(keys)
        # entries are numbered in order of first appearance, and a prefix of
        # rows needs only a prefix of them
        firsts = list(dict.fromkeys(inverse))
        assert firsts == sorted(firsts)
        assert table.distinct_count.tolist() == [
            max(inverse[:c], default=-1) + 1 for c in range(len(table) + 1)
        ]
        if ld != LambDickeParams(0.6, 0.1, 0.2, 0.1):  # no pair dropped: no gaps
            assert firsts == list(range(len(table.omega_distinct)))
