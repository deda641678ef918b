import math

import numpy as np
import pytest

from ionsynth import (
    Component,
    Level,
    Occupation,
    StateVector,
    Truncation,
    basis_state,
    component_of,
    enumerate_basis,
    fidelity_to_target,
    index_of,
    overlap,
    project_level,
    vacuum_state,
)

from ionsynth.fock import _index_column, _total_j

from conftest import random_state


@pytest.mark.parametrize("j_max,dim", [(0, 4), (1, 16), (4, 140), (10, 1144), (12, 1820), (40, 4 * 12341)])
def test_dimension_formula(j_max, dim):
    assert Truncation(j_max).dim == dim
    assert len(enumerate_basis(Truncation(j_max))) == dim


def test_dimension_matches_exhaustive_count():
    """The 4*C(j+3,3) formula against a brute-force triple loop."""
    for j_max in range(7):
        count = sum(
            1
            for nx in range(j_max + 1)
            for ny in range(j_max + 1)
            for nz in range(j_max + 1)
            if nx + ny + nz <= j_max
        )
        assert Truncation(j_max).dim == 4 * count


def loop_basis(j_max):
    """The canonical order by explicit loops: the reference for the closed form."""
    return [
        Component(Occupation(nx, ny, j - nx - ny), level)
        for j in range(j_max + 1)
        for nx in range(j + 1)
        for ny in range(j - nx + 1)
        for level in Level
    ]


CUTOFFS = [*range(17), 40]


@pytest.mark.parametrize("j_max", CUTOFFS)
def test_canonical_order(j_max):
    """Ascending total, then nx, then ny, with the electronic level innermost."""
    t = Truncation(j_max)
    comps = enumerate_basis(t)
    assert isinstance(comps, tuple) and list(comps) == loop_basis(j_max)
    assert all(type(n) is int for c in comps for n in c.occ)
    assert comps[0] == Component(Occupation(0, 0, 0), Level.A)
    assert [c.level for c in comps[:4]] == [Level.A, Level.B, Level.C, Level.D]
    keys = [(c.occ.total, c.occ.nx, c.occ.ny, int(c.level)) for c in comps]
    assert keys == sorted(keys)


@pytest.mark.parametrize("j_max", CUTOFFS)
def test_basis_bijection(j_max):
    """index_of, its column twin and component_of agree with the basis order,
    also on NumPy integer entries and levels."""
    t = Truncation(j_max)
    for k, comp in enumerate(enumerate_basis(t)):
        assert index_of(comp, t) == k
        assert component_of(k, t) == comp
        assert _total_j(k, t) == comp.occ.total
    comp = enumerate_basis(t)[-1]
    wide = Component(Occupation(*map(np.int64, comp.occ)), np.uint8(comp.level))
    assert index_of(wide, t) == t.dim - 1 and type(index_of(wide, t)) is int
    quanta = [n for comp in enumerate_basis(t) for n in comp.occ]
    levels = [comp.level for comp in enumerate_basis(t)]
    every = list(range(t.dim))
    assert _index_column("", quanta, levels, j_max).tolist() == every
    assert _index_column("", np.array(quanta), np.array(levels), j_max).tolist() == every


def test_index_of_by_exhaustive_search():
    t = Truncation(1)
    comp = Component(Occupation(1, 0, 0), Level.A)
    assert index_of(comp, t) == list(enumerate_basis(t)).index(comp)


def test_level_labels():
    for level in Level:
        assert Level.from_label(level.label) is level


def test_statevector_copies_input():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    s = StateVector(amps, Truncation(0))
    amps[0] = 0.0
    assert s.amplitudes[0] == 1.0


def test_norm_and_normalized():
    t = Truncation(1)
    s = StateVector(np.full(t.dim, 0.5 + 0j), t)
    assert repr(s) == "StateVector(dim=16, j_max=1)"
    assert s.norm() == pytest.approx(2.0)
    assert s.normalized().norm() == pytest.approx(1.0, abs=1e-12)


def test_vacuum_and_basis_state():
    t = Truncation(2)
    vac = vacuum_state(t)
    assert vac.amplitudes[0] == 1.0
    assert vac.norm() == 1.0
    comp = Component(Occupation(0, 1, 1), Level.C)
    s = basis_state(comp, t)
    assert s.amplitude(comp) == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_overlap_properties():
    t = Truncation(2)
    rng = np.random.default_rng(11)
    u, v = random_state(t, rng), random_state(t, rng)
    assert overlap(u, u) == pytest.approx(1.0, abs=1e-12)
    # conjugate-linear in the first argument, linear in the second
    c = 0.3 - 0.7j
    scaled = StateVector(c * u.amplitudes, t)
    assert overlap(scaled, v) == pytest.approx(np.conj(c) * overlap(u, v), abs=1e-12)
    assert overlap(u, scaled) == pytest.approx(c * overlap(u, u), abs=1e-12)
    a = basis_state(component_of(0, t), t)
    b = basis_state(component_of(5, t), t)
    assert overlap(a, b) == 0


def test_gram_bound():
    t = Truncation(2)
    rng = np.random.default_rng(5)
    u, v = random_state(t, rng), random_state(t, rng)
    # component of u orthogonal to v
    perp = u.amplitudes - overlap(v, u) * v.amplitudes
    perp = StateVector(perp / np.linalg.norm(perp), t)
    assert abs(overlap(u, v)) ** 2 + abs(overlap(u, perp)) ** 2 <= 1 + 1e-12


def test_fidelity_examples():
    t = Truncation(1)
    target = vacuum_state(t)
    assert fidelity_to_target(target, target) == 1.0
    other = basis_state(Component(Occupation(1, 0, 0), Level.A), t)
    assert fidelity_to_target(other, target) == 0.0
    half = StateVector((target.amplitudes + other.amplitudes) / math.sqrt(2), t)
    assert fidelity_to_target(half, target) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_global_phase_invariance():
    t = Truncation(2)
    rng = np.random.default_rng(3)
    out = random_state(t, rng)
    target = vacuum_state(t)
    f = fidelity_to_target(out, target)
    rotated = StateVector(np.exp(1.7j) * out.amplitudes, t)
    assert fidelity_to_target(rotated, target) == pytest.approx(f, abs=1e-12)


def test_fidelity_scores_a_target_off_level_a():
    """The score is the overlap, whatever levels the target holds."""
    t = Truncation(0)
    off = basis_state(Component(Occupation(0, 0, 0), Level.B), t)
    assert fidelity_to_target(vacuum_state(t), off) == 0.0
    assert fidelity_to_target(off, off) == 1.0
    half = StateVector(np.array([1.0, 1j, 0.0, 0.0]) / math.sqrt(2), t)
    assert fidelity_to_target(off, half) == pytest.approx(0.5, abs=1e-15)


def test_fidelity_of_an_unnormalized_state_is_capped_without_overflow():
    t = Truncation(1)
    assert fidelity_to_target(StateVector(1e200 * vacuum_state(t).amplitudes, t), vacuum_state(t)) == 1.0


def test_project_level_examples():
    t = Truncation(0)
    vac = vacuum_state(t)
    state, p = project_level(vac, Level.A)
    assert p == 1.0
    assert np.allclose(state.amplitudes, vac.amplitudes)

    b = basis_state(Component(Occupation(0, 0, 0), Level.B), t)
    half = StateVector((vac.amplitudes + b.amplitudes) / math.sqrt(2), t)
    state, p = project_level(half, Level.A)
    assert p == pytest.approx(0.5, abs=1e-12)
    assert state.amplitude(Component(Occupation(0, 0, 0), Level.A)) == pytest.approx(1.0)


def test_level_probabilities_sum_to_one():
    t = Truncation(3)
    rng = np.random.default_rng(21)
    for _ in range(5):
        s = random_state(t, rng)
        probs = s.level_probabilities()
        assert probs.shape == (4,)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
