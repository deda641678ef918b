import cmath

import numpy as np

from ionsynth import Level, StateVector, Truncation, enumerate_basis, random_target
from ionsynth.pulses import _pair_table


def random_state(truncation: Truncation, rng: np.random.Generator) -> StateVector:
    """Random unit state over the full (vibrational x electronic) basis."""
    amps = rng.normal(size=truncation.dim) + 1j * rng.normal(size=truncation.dim)
    return StateVector(amps / np.linalg.norm(amps), truncation)


def random_level_a(truncation: Truncation, rng: np.random.Generator) -> StateVector:
    """Random unit state supported only on electronic level a."""
    return random_target(truncation, rng).state


def random_vibronic(truncation: Truncation, rng: np.random.Generator) -> StateVector:
    """Random unit state on every electronic level but the block ``deevolve``
    cannot empty: level d at total J = j_max, and levels c and d at j_max 0."""
    j_max = truncation.j_max
    first = Level.D if j_max else Level.C
    top = [c.occ.total == j_max and c.level >= first for c in enumerate_basis(truncation)]
    amps = random_state(truncation, rng).amplitudes
    amps[top] = 0.0
    return StateVector(amps / np.linalg.norm(amps), truncation)


def per_pair_rotate(amps: np.ndarray, table, x: float, theta: float, count: int | None = None):
    """Reference kernel: rotate the first ``count`` pairs of ``table`` (all of
    them by default) in place, with cos and sin of x*omega evaluated on every
    pair."""
    if x == 0.0 or count == 0 or table.src_index.size == 0:
        return
    src = table.src_index[:count]
    dst = table.dst_index[:count]
    u = amps[src]
    v = amps[dst]
    ang = x * table.omega_distinct[table.omega_inverse[:count]]
    c = np.cos(ang)
    s = np.sin(ang)
    amps[src] = c * u + (-1j * cmath.exp(1j * theta)) * (s * v)
    amps[dst] = c * v + (-1j * cmath.exp(-1j * theta)) * (s * u)


def full_table_replay(state: StateVector, schedule, count: int | None = None) -> np.ndarray:
    """Reference replay of the first ``count`` pulses of ``schedule`` (all of them
    by default) on a copy of ``state``'s amplitudes: every pulse rotates every
    coupled pair of its channel."""
    amps = state.amplitudes.copy()
    for p in schedule.pulses[:count]:
        table = _pair_table(p.channel, schedule.truncation, schedule.lamb_dicke)
        per_pair_rotate(amps, table, p.x, p.theta)
    return amps


# A valid one-pulse schedule document at J_max 1, and a three-pulse one at J_max 2.
ONE_PULSE_DOC = {
    "version": 1,
    "lamb_dicke": {"ex": 0.3, "ey": 0.1, "ez": 0.2, "exc": 0.1},
    "jmax": 1,
    "direction": "preparation",
    "target": "",
    "pulses": [{"i": 0, "channel": "H2", "x": 0.5, "theta": 0.25, "note": [0, 0, 0, "b"]}],
}
THREE_PULSE_DOC = {
    **ONE_PULSE_DOC,
    "jmax": 2,
    "pulses": [
        {"i": 0, "channel": "H2", "x": 0.5, "theta": 0.25, "note": [0, 0, 0, "b"]},
        {"i": 1, "channel": "H9", "x": 0.0, "theta": -1.5, "note": None},
        {"i": 2, "channel": "H1", "x": 1.5, "theta": 3.0, "note": [0, 1, 0, "a"]},
    ],
}
# A length whose product with the largest |Omega| of pulse 17's channel (H3)
# overflows, in the ghz J_max 2 preparation.
OVERFLOWING_X = 1.309890050482794e308
