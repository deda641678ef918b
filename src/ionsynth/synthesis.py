"""Compiler from a target vibrational state to an explicit pulse program.

The compiler works backwards ("de-evolution"): starting from the target on
electronic level a it empties one total-quantum-number subspace after another,
walking population down to the motional ground state.  Reversing the emitted
program and shifting every phase by pi yields the preparation schedule that
builds the target out of the vacuum.

Within one subspace of total J the moves are organized in ladders over rows of
fixed nx:

* a *collect* ladder alternates exchange and carrier kills along a row,
  concentrating the row's population of the two addressed levels in the
  ny-maximal component;
* a *merge* pulse pushes a concentrated row into the next row up in nx;
* before each merge, the destination row is collected on the next level pair
  so the merge cannot scatter population backwards.

Every pulse is solved from the current working amplitudes, applied, and
emitted in order.  Components whose amplitude is already zero still emit an
explicit x=0 pulse: the program shape is fixed by the truncation alone,
exactly as a hardware sequence would be fixed before the state is known.

Applying a pulse solved at an occupation of total J rotates only the pairs of
its channel whose lower-J end is <= J (the stage frontier).  Amplitudes the
skipped pairs hold go stale (they differ from a full-table rotation), but no
later solve reads them.  The invariant is: when stage J starts, every
amplitude at total J or below is exact.

* ``build_U_abc(J)`` and ``build_U_bcd(J-1)`` use J-preserving channels and
  solve at J and J-1, rotating every pair at or below the solved J, so what
  they read and write there stays exact.  They leave stale values above J,
  and at J on levels b, c, d only: ``build_U_bcd``'s channels never touch
  level a.
* ``bridge(J)`` on the red sideband H9 reads (J; a) and (J-1; b), both exact.
  H9 links (J'; a) with (J'-1; b), so of the pairs it rotates only
  (J+1; a) <-> (J; b) has a stale end, and its outputs stay at J and above.
* Stage J-1 therefore starts with every amplitude at J-1 or below exact, and
  by induction so does the final read of the vacuum amplitude.

So ``deevolve`` emits bit for bit the pulses and residual it would emit if
every pulse rotated its channel's full pair table.  A standalone ``build_*``
or ``bridge`` call likewise leaves the pairs above its solved J unrotated:
amplitudes at or below that J match a full-table rotation, those above do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .channels import CHANNELS, ChannelId, LambDickeParams, partner_occupation
from .fock import (
    Component,
    DomainError,
    Level,
    Occupation,
    StateVector,
    Truncation,
    _require_level_a_support,
    index_of,
)
from .pulses import (
    Direction,
    Pulse,
    Schedule,
    _pair_table,
    _rotate_inplace,
    dagger_schedule,
    solve_kill_lower,
    solve_kill_upper,
)

__all__ = [
    "CompileResult",
    "build_A",
    "build_B",
    "build_C",
    "build_U_abc",
    "build_U_bcd",
    "bridge",
    "deevolve",
    "pulse_count_model",
]

Emit = Callable[[Pulse], None]


@dataclass(frozen=True)
class CompileResult:
    """Both directions of a compiled program plus how well it closed."""

    deevolution: Schedule
    preparation: Schedule
    final_residual: float
    pulse_count: int


def _solve_and_apply(
    work: StateVector,
    cid: ChannelId,
    occ: Occupation,
    *,
    kill_upper: bool,
    emit: Emit,
    ld: LambDickeParams,
) -> None:
    """Solve one transfer against current amplitudes, emit it, and apply it
    up to the stage frontier ``occ.total`` (see the module docstring)."""
    spec = CHANNELS[cid]
    table = _pair_table(cid, work.truncation, ld)
    src_index = index_of(Component(occ, spec.lower_level), work.truncation)
    row = table.row_by_src.get(src_index)
    if row is None:
        raise RuntimeError(
            f"channel {cid.name} has no coupled pair at occupation {tuple(occ)}"
        )
    dst_index = int(table.dst_index[row])
    omega = float(table.omega[row])
    q_lower = complex(work.amplitudes[src_index])
    q_upper = complex(work.amplitudes[dst_index])
    if kill_upper:
        x, theta = solve_kill_upper(q_lower, q_upper, omega)
        pocc = partner_occupation(spec, occ)
        assert pocc is not None
        note = Component(pocc, spec.upper_level)
    else:
        x, theta = solve_kill_lower(q_lower, q_upper, omega)
        note = Component(occ, spec.lower_level)
    pulse = Pulse(cid, x, theta, note)
    emit(pulse)
    _rotate_inplace(work.amplitudes, table, pulse.x, pulse.theta, table.prefix[occ.total])


def _collect_row(
    work: StateVector,
    j: int,
    n_x: int,
    *,
    exchange: ChannelId,
    carrier: ChannelId,
    lead: bool,
    emit: Emit,
    ld: LambDickeParams,
) -> None:
    """Concentrate a row's population of the channel pair's two levels.

    The ladder kills the lower-level component at ny, then the upper-level
    component at ny+1, walking ny upward; everything ends in the lower-level
    component at (n_x, j-n_x, 0).  With ``lead`` an initial carrier kill also
    folds in the upper-level component at ny=0, which the ladder itself never
    visits.
    """
    if lead:
        _solve_and_apply(
            work, carrier, Occupation(n_x, 0, j - n_x), kill_upper=True, emit=emit, ld=ld
        )
    for n_y in range(j - n_x):
        n_z = j - n_x - n_y
        _solve_and_apply(
            work, exchange, Occupation(n_x, n_y, n_z), kill_upper=False, emit=emit, ld=ld
        )
        _solve_and_apply(
            work, carrier, Occupation(n_x, n_y + 1, n_z - 1), kill_upper=True, emit=emit, ld=ld
        )


def build_A(work: StateVector, j: int, n_x: int, emit: Emit, ld: LambDickeParams) -> None:
    """Collect row n_x of subspace J on levels (a, b) into (n_x, J-n_x, 0; a)."""
    _collect_row(work, j, n_x, exchange=ChannelId.H1, carrier=ChannelId.H2, lead=False, emit=emit, ld=ld)


def build_B(work: StateVector, j: int, n_x: int, emit: Emit, ld: LambDickeParams) -> None:
    """Collect row n_x of subspace J on levels (b, c) into (n_x, J-n_x, 0; b).

    Starts with a carrier kill of (n_x, 0, J-n_x; c) so arbitrary level-c
    population is folded in before the exchange/carrier ladder runs.
    """
    _collect_row(work, j, n_x, exchange=ChannelId.H3, carrier=ChannelId.H4, lead=True, emit=emit, ld=ld)


def _collect_row_cd(work: StateVector, j: int, n_x: int, emit: Emit, ld: LambDickeParams) -> None:
    # build_B shifted one level up: collects (c, d) into (n_x, j-n_x, 0; c).
    _collect_row(work, j, n_x, exchange=ChannelId.H7, carrier=ChannelId.H6, lead=True, emit=emit, ld=ld)


def build_C(work: StateVector, j: int, n_x: int, emit: Emit, ld: LambDickeParams) -> None:
    """Merge the collected row n_x into row n_x+1: one exchange pulse nulling
    (n_x, J-n_x, 0; a) into (n_x+1, J-n_x-1, 0; b)."""
    _solve_and_apply(
        work, ChannelId.H5, Occupation(n_x, j - n_x, 0), kill_upper=False, emit=emit, ld=ld
    )


def build_U_abc(work: StateVector, j: int, emit: Emit, ld: LambDickeParams) -> None:
    """Concentrate all population of subspace J on levels {a, b, c} at (J, 0, 0; a).

    Requires level d of the subspace to be clear.  For J = 0 this degenerates
    to the single final carrier pulse b -> a.
    """
    if j >= 1:
        build_B(work, j, 0, emit, ld)
    for n_x in range(j):
        build_A(work, j, n_x, emit, ld)
        build_B(work, j, n_x + 1, emit, ld)
        build_C(work, j, n_x, emit, ld)
    _solve_and_apply(work, ChannelId.H2, Occupation(j, 0, 0), kill_upper=True, emit=emit, ld=ld)


def build_U_bcd(work: StateVector, j: int, emit: Emit, ld: LambDickeParams) -> None:
    """Concentrate all population of subspace J on levels {b, c, d} at (J, 0, 0; b).

    Level-shifted analog of :func:`build_U_abc` (a->b, b->c, c->d, with the
    merge running on the x-exchange between levels b and c); level a is never
    touched.
    """
    _collect_row_cd(work, j, 0, emit, ld)
    for n_x in range(j):
        build_B(work, j, n_x, emit, ld)
        _collect_row_cd(work, j, n_x + 1, emit, ld)
        _solve_and_apply(
            work, ChannelId.H8, Occupation(n_x, j - n_x, 0), kill_upper=False, emit=emit, ld=ld
        )
    build_B(work, j, j, emit, ld)


def bridge(work: StateVector, j: int, emit: Emit, ld: LambDickeParams) -> None:
    """One red-sideband pulse nulling (J, 0, 0; a) into (J-1, 0, 0; b)."""
    if j < 1:
        raise DomainError(f"bridge needs J >= 1, got {j}")
    _solve_and_apply(work, ChannelId.H9, Occupation(j, 0, 0), kill_upper=False, emit=emit, ld=ld)


def deevolve(
    target: StateVector,
    ld: LambDickeParams = LambDickeParams(),
    description: str = "",
) -> CompileResult:
    """Compile the pulse program that walks ``target`` (on level a) to vacuum.

    Returns the de-evolution schedule, its exact inverse (the preparation
    schedule), the residual population left outside the ground state, and the
    emitted pulse count.  The program shape depends only on the truncation;
    amplitudes only determine the solved (x, theta) values.
    """
    _require_level_a_support(target)
    norm = target.norm()
    if abs(norm - 1.0) > 1e-6:
        raise DomainError(f"target must be normalized, got norm {norm!r}")
    work = StateVector._wrap(target.amplitudes / norm, target.truncation)
    pulses: list[Pulse] = []
    emit = pulses.append
    for j in range(target.truncation.j_max, 0, -1):
        build_U_abc(work, j, emit, ld)
        build_U_bcd(work, j - 1, emit, ld)
        bridge(work, j, emit, ld)
    build_U_abc(work, 0, emit, ld)
    residual = 1.0 - abs(work.amplitudes[0]) ** 2
    deevolution = Schedule(
        tuple(pulses), ld, target.truncation, Direction.DEEVOLUTION, description
    )
    return CompileResult(
        deevolution=deevolution,
        preparation=dagger_schedule(deevolution),
        final_residual=max(0.0, float(residual)),
        pulse_count=len(pulses),
    )


@lru_cache(maxsize=32)
def pulse_count_model(j_max: int) -> int:
    """Emitted pulse count for a full-support target at ``j_max``.

    The count depends only on the truncation, so it is measured by compiling
    one generic random target.  Grows as the cube of ``j_max``.
    """
    if j_max < 0:
        raise DomainError(f"j_max must be >= 0, got {j_max}")
    truncation = Truncation(j_max)
    rng = np.random.default_rng([987654321, j_max])
    amps = np.zeros(truncation.dim, dtype=np.complex128)
    cols = amps.reshape(-1, len(Level))
    vib = truncation.vibrational_dim
    cols[:, Level.A] = rng.normal(size=vib) + 1j * rng.normal(size=vib)
    target = StateVector._wrap(amps / np.linalg.norm(amps), truncation)
    return deevolve(target).pulse_count
