import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionsynth import (
    CHANNELS,
    ChannelId,
    ChannelKind,
    Component,
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
from ionsynth.fock import J_MAX_CAP
from ionsynth.pulses import _pair_table

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


def scipy_nonlinearity(eps: float, n: int) -> float:
    """Reference: the Lamb-Dicke factor through SciPy's own L1_n.  Past the
    damping underflow the package returns +0.0, where this product would keep
    the sign of L1_n and give -0.0 for odd n, so the reference does too."""
    damping = math.exp(-eps * eps / 2)
    if damping == 0.0:
        return 0.0
    return float(damping * scipy.special.eval_genlaguerre(n, 1, eps * eps) / (n + 1))


def damping_edge() -> tuple[float, float]:
    """The largest eps whose damping exp(-eps**2/2) is nonzero and the next
    float up, whose damping is 0, by bisection over the floats: the damping is
    nonzero at lo and 0 at hi throughout."""
    lo, hi = 0.0, 40.0
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        if math.exp(-mid * mid / 2) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


LAST_DAMPED, FIRST_UNDERFLOWED = damping_edge()


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 40.0))
@example(0.0)
@example(5e-324)
@example(1e-160)
@example(LAST_DAMPED)
@example(FIRST_UNDERFLOWED)
def test_nonlinearities_are_scipys_bits(eps):
    """Both forms equal the factor through SciPy's eval_genlaguerre bit for
    bit, for every occupation up to the cap."""
    want = [scipy_nonlinearity(eps, n) for n in range(J_MAX_CAP + 1)]
    assert _nonlinearities(eps, J_MAX_CAP).tobytes() == np.array(want).tobytes()
    assert [nonlinearity(eps, n).hex() for n in range(J_MAX_CAP + 1)] == [v.hex() for v in want]


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


def test_nonlinearity_range():
    for eps in (0.1, 0.3, 0.5):
        for n in range(13):
            assert 0.0 < nonlinearity(eps, n) <= 1.0
    assert 0.0 < nonlinearity(0.1, J_MAX_CAP) < 1.0


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
    t = Truncation(0)
    pairs, untouched = coupled_pairs(CHANNELS[ChannelId.H2], t, LD)
    assert len(pairs) == 1
    (pair,) = pairs
    assert pair.src == (Occupation(0, 0, 0), Level.A)
    assert pair.dst == (Occupation(0, 0, 0), Level.B)
    assert [component_of(k, t).level for k in untouched.tolist()] == [Level.C, Level.D]


def test_coupled_pairs_red_sideband_at_jmax1():
    t = Truncation(1)
    pairs, untouched = coupled_pairs(CHANNELS[ChannelId.H9], t, LD)
    assert len(pairs) == 1
    (pair,) = pairs
    assert pair.src == (Occupation(1, 0, 0), Level.A)
    assert pair.dst == (Occupation(0, 0, 0), Level.B)
    assert pair.omega == pytest.approx(nonlinearity(0.1, 0), abs=1e-15)
    components = [component_of(k, t) for k in untouched.tolist()]
    untouched_a = [c for c in components if c.level is Level.A]
    assert untouched_a and all(c.occ.nx == 0 for c in untouched_a)


@pytest.mark.parametrize("cid", list(ChannelId))
def test_coupled_pairs_partition(cid):
    """At J_max 0-16, ``src_index``, ``dst_index`` and the untouched indices
    are pairwise disjoint and cover ``range(dim)`` exactly once; at J_max 4
    every pair joins the channel's two levels."""
    for j_max in range(17):
        t = Truncation(j_max)
        table, untouched = coupled_pairs(CHANNELS[cid], t, LD)
        assert untouched.dtype == np.intp and np.all(np.diff(untouched) > 0)
        seen = np.concatenate([table.src_index, table.dst_index, untouched])
        assert np.sort(seen).tolist() == list(range(t.dim)), j_max
    t = Truncation(4)
    for p in coupled_pairs(CHANNELS[cid], t, LD)[0]:
        assert p.omega > 0
        assert p.src.level is CHANNELS[cid].lower_level
        assert p.dst.level is CHANNELS[cid].upper_level


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
        for p in list(pairs)[:10]:
            i, j = index_of(p.src, t), index_of(p.dst, t)
            block = h[np.ix_([i, j], [i, j])]
            eig = np.linalg.eigvalsh(block)
            assert np.allclose(sorted(eig), [-p.omega, p.omega], atol=1e-12)
        for k in untouched[:10].tolist():
            assert np.count_nonzero(h[k]) == 0


# --- Array tables against the per-component loop ----------------------------


def loop_coupled_pairs(spec, t, ld):
    """Reference build: the per-component loop over the basis, one ``rabi`` and
    ``partner_occupation`` call and one ``index_of`` lookup per pair.  Every
    pair the cutoff allows is kept, whatever the sign of its Omega."""
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
        d = index_of(Component(pocc, spec.upper_level), t)
        src.append(k)
        dst.append(d)
        omega.append(w)
        claimed[k] = claimed[d] = True
    return (
        np.array(src, dtype=np.intp),
        np.array(dst, dtype=np.intp),
        np.array(omega, dtype=np.float64),
        np.array([k for k in range(len(basis)) if not claimed[k]], dtype=np.intp),
    )


def assert_tables_match_loop(t, ld):
    for cid, spec in CHANNELS.items():
        table, untouched = coupled_pairs(spec, t, ld)
        src, dst, omega, want_untouched = loop_coupled_pairs(spec, t, ld)
        assert table.src_index.dtype == np.intp and table.dst_index.dtype == np.intp
        assert table.omega_distinct.dtype == np.float64
        assert table.src_index.tobytes() == src.tobytes(), cid
        assert table.dst_index.tobytes() == dst.tobytes(), cid
        assert table.omega_distinct[table.omega_inverse].tobytes() == omega.tobytes(), cid
        assert untouched.dtype == np.intp and untouched.tobytes() == want_untouched.tobytes(), cid


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


@pytest.mark.parametrize("j_max", [0, 1, 4, 12])
def test_table_rows_depend_only_on_the_channel_and_the_cutoff(j_max):
    """Past a zero, where Omega underflows to 0 and where every eps is 1e200,
    a table keeps the rows, partners, Omega ranks, frontier slices and
    untouched list of the default point: the point sets only Omega."""
    t = Truncation(j_max)
    points = [
        LD0,
        LambDickeParams(0.6, 0.1, 0.2, 0.1),
        LambDickeParams(1.3, 0.1, 0.2, 0.1),
        LambDickeParams(0.3, 0.1, 0.2, 1.4142),
        LambDickeParams(1e200, 0.1, 1e100, 38.6),
        LambDickeParams(1e200, 1e200, 1e200, 1e200),
    ]
    for spec in CHANNELS.values():
        want, want_untouched = coupled_pairs(spec, t, LD)
        for ld in points:
            table, untouched = coupled_pairs(spec, t, ld)
            assert table.src_index.tobytes() == want.src_index.tobytes(), (spec.cid, ld)
            assert table.dst_index.tobytes() == want.dst_index.tobytes(), (spec.cid, ld)
            assert table.omega_inverse.tobytes() == want.omega_inverse.tobytes(), (spec.cid, ld)
            assert table.omega_distinct.size == want.omega_distinct.size
            for got, expect in zip(table.upto, want.upto, strict=True):
                src, dst, inverse, used = got
                w_src, w_dst, w_inverse, w_used = expect
                assert src.tobytes() == w_src.tobytes() and dst.tobytes() == w_dst.tobytes()
                assert inverse.tobytes() == w_inverse.tobytes() and used == w_used
            assert untouched.tobytes() == want_untouched.tobytes(), (spec.cid, ld)
            assert untouched is want_untouched and not untouched.flags.writeable, (spec.cid, ld)


@settings(max_examples=40, deadline=None)
@given(j_max=st.integers(0, 12), eps=st.tuples(*[st.floats(0.0, 3.0)] * 4))
@example(j_max=12, eps=(0.0, 0.0, 0.0, 0.0))
@example(j_max=12, eps=(1e200, 1e200, 1e200, 1e200))
@example(j_max=12, eps=(0.6, 0.1, 0.2, 0.1))  # past the first zero of L1_11
@example(j_max=4, eps=(0.3, 0.1, 0.2, 1.4142))  # carrier factor past the zero of L1_1
def test_a_point_adds_only_omega_to_the_shared_rows(j_max, eps):
    """Omega is ``rabi`` row by row, bit for bit, and every other array of a
    table is the read-only array of the same channel and cutoff at another
    point, not a copy."""
    t = Truncation(j_max)
    ld = LambDickeParams(*eps)
    basis = enumerate_basis(t)
    for spec in CHANNELS.values():
        table, _ = coupled_pairs(spec, t, ld)
        other, _ = coupled_pairs(spec, t, LD)
        want = np.array([rabi(spec, basis[k].occ, ld) for k in table.src_index.tolist()])
        assert table.omega_distinct[table.omega_inverse].tobytes() == want.tobytes(), spec.cid
        assert table.src_index is other.src_index and table.dst_index is other.dst_index
        assert table.omega_inverse is other.omega_inverse and table.upto is other.upto
        operands = [array for src, dst, inverse, _ in table.upto for array in (src, dst, inverse)]
        columns = table.src_index, table.dst_index, table.omega_inverse, table.omega_distinct
        for array in (*columns, *operands):
            assert not array.flags.writeable, spec.cid


@pytest.mark.parametrize("j_max", [12, 16])
def test_a_table_cached_at_a_new_point_holds_at_most_2_kib(j_max):
    """Once a cutoff's rows exist, each further cached table holds its Omega
    column, not a copy of the index arrays (17.1 KiB at J_max 12 and 30.5 KiB
    at 16 when every table held its own), measured with ``tracemalloc``."""
    t = Truncation(j_max)
    rng = np.random.default_rng(j_max)
    points = [LambDickeParams(*rng.uniform(0.05, 0.6, 4).tolist()) for _ in range(20)]
    _pair_table.cache_clear()
    for cid in ChannelId:
        _pair_table(cid, t, LD)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for ld in points:
            for cid in ChannelId:
                _pair_table(cid, t, ld)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        _pair_table.cache_clear()
    assert held / (len(points) * len(ChannelId)) <= 2048


def test_pair_views_iterate():
    t = Truncation(3)
    table, _ = coupled_pairs(CHANNELS[ChannelId.H5], t, LD)
    views = list(table)
    assert len(views) == len(table) == table.src_index.size > 2
    omega = table.omega_distinct[table.omega_inverse]
    for k, pair in enumerate(views):
        assert pair == CoupledPair(
            component_of(int(table.src_index[k]), t),
            component_of(int(table.dst_index[k]), t),
            float(omega[k]),
        )
        assert pair.omega == rabi(CHANNELS[ChannelId.H5], pair.src.occ, LD)


@pytest.mark.parametrize(
    "ld",
    [
        LD,
        LD0,
        LambDickeParams(0.6, 0.1, 0.2, 0.1),  # H5 has negative Omega past a zero
        LambDickeParams(1e200, 0.1, 1e100, 38.6),  # x- and z-exchange Omega all 0
    ],
)
def test_pair_table_row_lookup_and_distinct_omega(ld):
    """``src_index`` strictly increasing, so a row is found by its lower-level
    end (the plan's lookup, tested in ``test_synthesis``), and ``upto``
    against the lower-J ends read from the basis itself."""
    for j_max in [*range(17), 40]:
        t = Truncation(j_max)
        basis = enumerate_basis(t)
        j_of = np.array([c.occ.total for c in basis])
        for spec in CHANNELS.values():
            table, _ = coupled_pairs(spec, t, ld)
            assert np.all(np.diff(table.src_index) > 0)
            low = np.minimum(j_of[table.src_index], j_of[table.dst_index])
            inverse = table.omega_inverse
            assert len(table.upto) == j_max + 1
            for j, (src, dst, inv, used) in enumerate(table.upto):
                count = int(np.sum(low <= j))
                assert np.all(low[:count] <= j) and np.all(low[count:] > j)  # a leading block
                assert src.tobytes() == table.src_index[:count].tobytes()
                assert dst.tobytes() == table.dst_index[:count].tobytes()
                assert inv.tobytes() == inverse[:count].tobytes()
                assert type(used) is int and used == int(inverse[:count].max(initial=-1)) + 1
            assert table.upto[j_max][0].size == len(table), (j_max, spec.cid)
            if j_max != 6:
                continue
            # one distinct entry per occupation key that Omega depends on
            keys = {}
            for pair, entry in zip(table, inverse.tolist()):
                occ = pair.src.occ
                key = (occ.nx,) if spec.raised is None else (occ[spec.raised], occ[spec.lowered])
                assert keys.setdefault(entry, key) == key
            assert len(set(keys.values())) == len(keys)
            # entries are numbered in order of first appearance
            firsts = list(dict.fromkeys(inverse.tolist()))
            assert firsts == sorted(firsts)
            if ld in (LD, LD0):  # no pair dropped: no gaps
                assert firsts == list(range(len(table.omega_distinct)))
