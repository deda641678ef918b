"""Command-line interface.

Subcommands:

* ``compile`` — build a target state, compile its pulse program, write the
  preparation schedule as JSON, and print the vacuum residual.
* ``verify``  — replay a schedule file against a target and report the
  round-trip fidelity; exits with status 2 if it falls below the tolerance.
* ``sweep``   — Monte Carlo noise sweep over a grid of pulse-length errors,
  written as CSV.
* ``targets`` — list the built-in target states.

Exit codes: 0 on success, 2 on validation problems (bad flags, malformed or
unreadable files, below-tolerance verification), 1 on unexpected runtime errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .channels import LambDickeParams
from .files import (
    ScheduleFormatError,
    TargetFormatError,
    load_schedule,
    load_target,
    save_report,
    save_schedule,
)
from .fock import DomainError, Truncation, _integer, _real, fidelity_to_target, vacuum_state
from .noise import NoiseModel, sweep as run_sweep
from .pulses import Direction, Schedule, apply_schedule
from .synthesis import deevolve
from .targets import Target, target_corr, target_diag, target_ghz

__all__ = ["main"]

# Each built-in target's blurb and builder.  A builder looks its target function
# up by name when it runs, so a name patched on this module is the one called.
_BUILTIN_TARGETS = {
    "ghz": ("even cat of three-mode coherent states (uses --alpha)", lambda a, t: target_ghz(a, t)),
    "corr": ("Poissonian superposition of |n,n,n> (uses --alpha)", lambda a, t: target_corr(a, t)),
    "diag": ("equal superposition of |n,n,n> for n = 0..4 (needs --jmax >= 12)",
             lambda a, t: target_diag(t)),
}


def _eps_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad Lamb-Dicke triple {text!r}") from exc


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from exc
    if not (0.0 <= tol < 1.0):
        raise argparse.ArgumentTypeError(f"tolerance must lie in [0, 1), got {text!r}")
    return tol


# Far above any sweep that could finish, below one that would exhaust memory (README).
_GRID_ROWS_CAP, _TRIALS_CAP = 10_000, 1_000_000


def _grid_spec(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:step:count, got {text!r}")
    try:
        start, step = float(parts[0]), float(parts[1])
        count = _integer("grid count", int(parts[2]), 1, _GRID_ROWS_CAP)
        start = _real("grid start", start, non_negative=True)
        step = _real("grid step", step, non_negative=True)
    except DomainError as exc:  # argparse would print only "invalid _grid_spec value"
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from exc
    if start + step * (count - 1) == math.inf:  # the grid's last value
        raise argparse.ArgumentTypeError(
            f"grid's last value {start:g} + {step:g} * {count - 1} overflows"
        )
    return start, step, count


def _add_target_options(parser: argparse.ArgumentParser, *, with_jmax: bool) -> None:
    parser.add_argument(
        "--target",
        required=True,
        metavar="|".join([*_BUILTIN_TARGETS, "file:<path>"]),
        help="built-in target name or file:<path> to a component-list JSON file",
    )
    parser.add_argument("--alpha", type=float, default=1.0, help="coherent amplitude (default 1.0)")
    if with_jmax:
        parser.add_argument(
            "--jmax", type=int, default=12, help="total-occupation cutoff (default 12)"
        )


def _build_target(kind: str, alpha: float, truncation: Truncation) -> Target:
    if kind in _BUILTIN_TARGETS:
        return _BUILTIN_TARGETS[kind][1](alpha, truncation)
    if kind.startswith("file:"):
        return load_target(kind[len("file:") :], truncation)
    names = ", ".join(_BUILTIN_TARGETS)
    raise DomainError(f"unknown target {kind!r}; pick one of {names}, or file:<path>")


def _cmd_compile(args: argparse.Namespace) -> int:
    truncation = Truncation(args.jmax)
    ex, ey, ez = args.eps
    ld = LambDickeParams(ex, ey, ez, args.eps_carrier)
    target = _build_target(args.target, args.alpha, truncation)
    result = deevolve(target.state, ld, description=target.description)

    schedule = result.preparation if args.direction == "preparation" else result.deevolution
    if args.prune_noops:
        keep = schedule.x > 0.0
        schedule = schedule._derived(
            schedule.channel[keep], schedule.x[keep], schedule.theta[keep], schedule.note[keep]
        )
    save_schedule(schedule, args.out)

    print(f"target: {target.description}")
    if target.truncated_mass > 0.0:
        print(f"truncated mass: {target.truncated_mass:.6e}")
    print(f"pulses: {result.pulse_count}")
    if args.prune_noops:
        print(f"pulses written (pruned): {len(schedule)}")
    print(f"residual: {result.final_residual:.6e}")
    print(f"wrote: {args.out}")
    return 0


def _score_schedule(schedule: Schedule, target: Target) -> float:
    start, goal = vacuum_state(schedule.truncation), target.state
    if schedule.direction is Direction.DEEVOLUTION:  # run the target back to the vacuum
        start, goal = goal, start
    return fidelity_to_target(apply_schedule(start, schedule), goal)


def _cmd_verify(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.schedule)
    target = _build_target(args.target, args.alpha, schedule.truncation)
    fidelity = _score_schedule(schedule, target)
    print(f"schedule: {args.schedule} ({schedule.direction.value}, {len(schedule)} pulses)")
    print(f"target: {target.description}")
    print(f"fidelity: {fidelity:.12f}")
    if fidelity < 1.0 - args.tol:
        print(f"status: below tolerance (1 - {args.tol:g})")
        return 2
    print("status: ok")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    trials = _integer("--trials", args.trials, 1, _TRIALS_CAP)
    schedule = load_schedule(args.schedule)
    if schedule.direction is not Direction.PREPARATION:
        raise DomainError(
            "sweep needs a preparation schedule; this file holds a de-evolution program"
        )
    target = _build_target(args.target, args.alpha, schedule.truncation)
    start, step, count = args.delta_grid
    grid = [NoiseModel(start + k * step, args.delta_theta) for k in range(count)]
    report = run_sweep(target.state, schedule, grid, trials, args.seed)
    save_report(report, args.out)
    for row in report.rows:
        print(
            f"delta={row.delta:g} fid={row.fid_mean:.4f} "
            f"post={row.fid_post_mean:.4f} eff={row.efficiency_mean:.4f}"
        )
    print(f"wrote: {args.out}")
    return 0


def _cmd_targets(_: argparse.Namespace) -> int:
    for name, (blurb, _) in _BUILTIN_TARGETS.items():
        print(f"{name:5s} {blurb}")
    print("file:<path>  component list from a JSON file")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionsynth",
        description="Compile laser-pulse programs that prepare three-mode ion states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a target into a schedule file")
    _add_target_options(p_compile, with_jmax=True)
    p_compile.add_argument(
        "--eps",
        type=_eps_triple,
        default=(0.3, 0.1, 0.2),
        metavar="ex,ey,ez",
        help="per-mode Lamb-Dicke parameters (default 0.3,0.1,0.2)",
    )
    p_compile.add_argument(
        "--eps-carrier", type=float, default=0.1, help="carrier Lamb-Dicke parameter (default 0.1)"
    )
    p_compile.add_argument(
        "--direction",
        choices=("preparation", "deevolution"),
        default="preparation",
        help="which half of the round trip to write (default preparation)",
    )
    p_compile.add_argument(
        "--prune-noops",
        action="store_true",
        help="drop zero-length pulses from the written file (for inspection)",
    )
    p_compile.add_argument("--out", default="schedule.json", help="output path (default schedule.json)")
    p_compile.set_defaults(func=_cmd_compile)

    p_verify = sub.add_parser("verify", help="replay a schedule against a target")
    p_verify.add_argument("--schedule", required=True, help="schedule JSON file")
    _add_target_options(p_verify, with_jmax=False)
    p_verify.add_argument(
        "--tol",
        type=_tolerance,
        default=1e-9,
        help="fail when fidelity < 1 - tol, with 0 <= tol < 1 (default 1e-9)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo noise sweep, written as CSV")
    p_sweep.add_argument("--schedule", required=True, help="preparation schedule JSON file")
    _add_target_options(p_sweep, with_jmax=False)
    p_sweep.add_argument("--trials", type=int, default=100, help="trials per grid row (default 100)")
    p_sweep.add_argument("--seed", type=int, default=42, help="master RNG seed (default 42)")
    p_sweep.add_argument(
        "--delta-grid",
        type=_grid_spec,
        default=(0.0, 0.01, 6),
        metavar="start:step:count",
        help="grid of pulse-length error interval widths (default 0:0.01:6)",
    )
    p_sweep.add_argument(
        "--delta-theta", type=float, default=0.01, help="phase error interval width (default 0.01)"
    )
    p_sweep.add_argument("--out", default="sweep.csv", help="output CSV path (default sweep.csv)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_targets = sub.add_parser("targets", help="list built-in targets")
    p_targets.set_defaults(func=_cmd_targets)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, ScheduleFormatError, TargetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
