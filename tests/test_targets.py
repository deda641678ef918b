import math

import numpy as np
import pytest

from ionsynth import (
    Component,
    DomainError,
    Level,
    Occupation,
    Truncation,
    component_of,
    target_corr,
    target_diag,
    target_ghz,
    random_target,
)


def coherent_amplitude(alpha: complex, n: int) -> complex:
    return math.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))


def level_a_support(state):
    t = state.truncation
    out = {}
    for k, amp in enumerate(state.amplitudes):
        if abs(amp) > 0:
            c = component_of(k, t)
            assert c.level is Level.A
            out[c.occ] = amp
    return out


def test_corr_alpha_zero_is_vacuum():
    target = target_corr(0.0, Truncation(6))
    assert target.state.amplitude(Component(Occupation(0, 0, 0), Level.A)) == 1.0
    assert target.truncated_mass == 0.0
    assert np.count_nonzero(target.state.amplitudes) == 1


def test_corr_support_and_norm():
    target = target_corr(1.0, Truncation(12))
    assert target.state.norm() == pytest.approx(1.0, abs=1e-12)
    support = level_a_support(target.state)
    assert set(support) == {Occupation(n, n, n) for n in range(5)}


def test_corr_vacuum_amplitude():
    """With five diagonal terms kept, the renormalized vacuum weight is
    sqrt(24/65)."""
    target = target_corr(1.0, Truncation(12))
    vac = target.state.amplitude(Component(Occupation(0, 0, 0), Level.A))
    assert vac == pytest.approx(math.sqrt(24 / 65), abs=1e-12)
    assert vac == pytest.approx(0.60765, abs=1e-4)


def test_corr_truncated_mass():
    target = target_corr(1.0, Truncation(12))
    kept = math.exp(-1.0) * (1 + 1 + 0.5 + 1 / 6 + 1 / 24)
    assert target.truncated_mass == pytest.approx(1.0 - kept, abs=1e-12)


def test_corr_amplitude_ratios():
    """Successive diagonal amplitudes fall off like alpha/sqrt(n+1)."""
    alpha = 0.7 + 0.2j
    target = target_corr(alpha, Truncation(9))
    support = level_a_support(target.state)
    for n in range(3):
        ratio = support[Occupation(n + 1, n + 1, n + 1)] / support[Occupation(n, n, n)]
        assert ratio == pytest.approx(alpha / math.sqrt(n + 1), abs=1e-12)


def test_diag_exact_amplitudes():
    target = target_diag(Truncation(12))
    support = level_a_support(target.state)
    assert set(support) == {Occupation(n, n, n) for n in range(5)}
    for amp in support.values():
        assert amp == 1.0 / math.sqrt(5.0)
    assert abs(support[Occupation(2, 2, 2)]) == pytest.approx(0.447214, abs=1e-6)
    assert target.truncated_mass == 0.0


def test_diag_needs_deep_truncation():
    with pytest.raises(DomainError, match="j_max >= 12"):
        target_diag(Truncation(11))


def test_ghz_alpha_zero_is_vacuum():
    target = target_ghz(0.0, Truncation(4))
    assert target.state.amplitude(Component(Occupation(0, 0, 0), Level.A)) == 1.0
    assert np.count_nonzero(target.state.amplitudes) == 1


def test_ghz_odd_parity_vanishes():
    target = target_ghz(1.0, Truncation(7))
    for k, amp in enumerate(target.state.amplitudes):
        c = component_of(k, target.state.truncation)
        if c.occ.total % 2 == 1:
            assert amp == 0.0


def test_ghz_matches_two_branch_oracle():
    """Compare with an explicitly summed pair of coherent product states."""
    alpha = 1.0
    t = Truncation(10)
    target = target_ghz(alpha, t)

    oracle = np.zeros(t.dim, dtype=np.complex128)
    for k in range(t.dim):
        c = component_of(k, t)
        if c.level is not Level.A:
            continue
        nx, ny, nz = c.occ
        oracle[k] = coherent_amplitude(alpha, nx) * coherent_amplitude(
            alpha, ny
        ) * coherent_amplitude(alpha, nz) + coherent_amplitude(
            -alpha, nx
        ) * coherent_amplitude(-alpha, ny) * coherent_amplitude(-alpha, nz)
    oracle /= np.linalg.norm(oracle)

    assert np.max(np.abs(target.state.amplitudes - oracle)) <= 1e-12
    assert target.state.norm() == pytest.approx(1.0, abs=1e-12)


def test_ghz_normalization_constant():
    # 1 / sqrt(2 + 2 exp(-6)) for the untruncated alpha = 1 state
    assert 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-6.0)) == pytest.approx(0.70623, abs=1e-5)
    target = target_ghz(1.0, Truncation(12))
    assert target.truncated_mass == pytest.approx(0.0, abs=1e-5)
    assert target.truncated_mass > 0.0


def test_random_target_is_unit_level_a():
    t = Truncation(5)
    target = random_target(t, np.random.default_rng(11))
    assert target.state.norm() == pytest.approx(1.0, abs=1e-12)
    cols = target.state.amplitudes.reshape(-1, 4)
    assert np.all(cols[:, 1:] == 0)
    assert np.all(np.abs(cols[:, 0]) > 0)


@pytest.mark.parametrize("build", [target_ghz, target_corr])
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_non_finite_alpha_is_rejected_by_name(build, alpha):
    with pytest.raises(DomainError, match="alpha"):
        build(alpha, Truncation(3))
