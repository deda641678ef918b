"""Reference interpreter for pulse schedules, independent of ``ionsynth.pulses``.

It replays a schedule from the vacuum as plain 2x2 rotations on every coupled
pair that ``ionsynth.channels.coupled_pairs`` lists, with its own index arrays
and its own rotation matrix.  The benchmark runs it outside the timed regions.
"""

from __future__ import annotations

import numpy as np

from ionsynth import channels, fock


def reference_replay(schedule) -> np.ndarray:
    """Amplitudes after replaying ``schedule`` on the vacuum."""
    t = schedule.truncation
    amps = np.zeros(t.dim, dtype=np.complex128)
    amps[fock.index_of(fock.Component(fock.Occupation(0, 0, 0), fock.Level.A), t)] = 1.0
    blocks = {}
    for cid, spec in channels.CHANNELS.items():
        pairs, _ = channels.coupled_pairs(spec, t, schedule.lamb_dicke)
        lower = np.array([fock.index_of(p.src, t) for p in pairs], dtype=np.intp)
        upper = np.array([fock.index_of(p.dst, t) for p in pairs], dtype=np.intp)
        blocks[cid] = (lower, upper, np.array([p.omega for p in pairs]))
    for pulse in schedule.pulses:
        lower, upper, omega = blocks[pulse.channel]
        c = np.cos(pulse.x * omega)
        s = np.sin(pulse.x * omega)
        # [[u'], [v']] = [[c, -i e^{i theta} s], [-i e^{-i theta} s, c]] [[u], [v]]
        m01 = -1j * np.exp(1j * pulse.theta) * s
        m10 = -1j * np.exp(-1j * pulse.theta) * s
        u = amps[lower]
        v = amps[upper]
        amps[lower] = c * u + m01 * v
        amps[upper] = m10 * u + c * v
    return amps
