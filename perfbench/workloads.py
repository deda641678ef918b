"""Workloads of the ionsynth benchmark: inputs, set-up, timed loop and checks.

Every workload is a closed loop with one client in one single-threaded
process.  Inputs come only from the workload seed.

* ``design``: compile -> verify pairs through ``ionsynth.cli.main`` with the
  cutoff cycling through J_max 10, 12 and 16 in equal thirds, at the default
  Lamb-Dicke point with warm pair tables.  The user's compile/verify loop.
* ``ld-scan``: the same pairs at J_max 12, each with a fresh Lamb-Dicke
  tuple, so every compile rebuilds the coupled-pair tables.  One draw in six
  lands past the first Laguerre zero, where the compiler fails today.
* ``sweep``: Monte Carlo rows of K trials through ``ionsynth.noise.run_trials``
  on a J_max 12 corr(alpha=1) preparation schedule compiled, saved and loaded
  during set-up.  Bypasses synthesis, channels and files.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.special import roots_genlaguerre

from ionsynth import channels, cli, files, fock, noise, pulses, synthesis, targets

from reference import reference_replay

WORKLOADS = ("design", "ld-scan", "sweep")
DEFAULT_SEED = 1

EPS_X = (0.05, 0.65)
EPS_YZ = (0.05, 0.35)
EPS_CARRIER = (0.05, 0.2)
LD_BLOCK = 6  # ld-scan requests per block; exactly one has eps_x past the zero
DELTA_MAX = 0.05
DELTA_THETA = 0.01
TOL = 1e-9

# Independent random streams under the one workload seed.
STREAM_DESIGN, STREAM_LD, STREAM_FILES, STREAM_GRID = 1, 2, 3, 4
# Operation indices of worker k start at k * INDEX_STRIDE; a multiple of the
# grid size, so every worker's sweep starts on the zero-noise row.
INDEX_STRIDE = 100_000

RECORDED_ROWS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_rows_seed1.json")


@dataclass(frozen=True)
class Config:
    """Sizes of the workloads; the tests shrink them for smoke runs."""

    design_cutoffs: tuple[int, ...] = (10, 12, 16)
    ld_cutoff: int = 12
    sweep_cutoff: int = 12
    sweep_trials: int = 2
    sweep_grid: int = 8
    target_files: int = 4


@dataclass(frozen=True)
class Request:
    """One compile -> verify pair."""

    jmax: int
    target: str  # ghz | corr | diag | file
    file_index: int = 0
    eps: tuple[float, float, float, float] | None = None


@dataclass
class Op:
    """Outcome of one timed operation: a compile -> verify pair or a sweep row."""

    index: int
    traced: bool
    cutoff: int = 0
    kind: str = ""  # target kind of a pair, grid row of a sweep row
    ok: bool = False
    error: str = ""
    check_failed: bool = False  # an output check failed, not just the request
    compile_s: float = 0.0
    verify_s: float = 0.0
    total_s: float = 0.0


def _rng(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *more])


def target_kinds(jmax: int) -> tuple[str, ...]:
    return ("ghz", "corr", "diag", "file") if jmax >= 12 else ("ghz", "corr", "file")


class _Targets:
    """Target kinds per cutoff, each cycle a seeded permutation, so every run
    holds the kinds in near-equal shares whatever its length."""

    def __init__(self, rng: np.random.Generator, cfg: Config) -> None:
        self.rng, self.cfg, self.queues = rng, cfg, {}

    def request(self, jmax: int, eps=None) -> Request:
        queue = self.queues.setdefault(jmax, [])
        if not queue:
            kinds = target_kinds(jmax)
            queue.extend(kinds[k] for k in self.rng.permutation(len(kinds)))
        kind = queue.pop()
        index = int(self.rng.integers(self.cfg.target_files)) if kind == "file" else 0
        return Request(jmax, kind, index, eps)


def design_requests(seed: int, cfg: Config, worker: int = 0) -> Iterator[Request]:
    """Blocks of one request per cutoff, in seeded order."""
    rng = _rng(seed, STREAM_DESIGN, worker)
    chooser = _Targets(rng, cfg)
    while True:
        for jmax in rng.permutation(cfg.design_cutoffs):
            yield chooser.request(int(jmax))


def laguerre_zero(jmax: int) -> float:
    """eps_x past which the x-raising exchange into the top J stage has Omega <= 0.

    That factor is L1_{J_max-1}(eps**2); its first zero is computed here from
    SciPy's Gauss-Laguerre roots, independently of the program.
    """
    if jmax < 2:
        return math.inf
    roots, _ = roots_genlaguerre(jmax - 1, 1)
    return math.sqrt(float(roots.min()))


def ld_requests(seed: int, cfg: Config, worker: int = 0) -> Iterator[Request]:
    """Fresh Lamb-Dicke tuples, eps_x stratified at the Laguerre zero.

    In each block of LD_BLOCK requests exactly one eps_x is uniform past the
    zero and the rest are uniform below it (a plain uniform draw puts 16% past
    it at J_max 12).  The share of failing requests is then the same in every
    run, so ``failed_ratio`` repeats exactly.
    """
    rng = _rng(seed, STREAM_LD, worker)
    chooser = _Targets(rng, cfg)
    lo, hi = EPS_X
    zero = laguerre_zero(cfg.ld_cutoff)
    while True:
        if zero < hi:
            xs = np.concatenate([rng.uniform(lo, zero, LD_BLOCK - 1), rng.uniform(zero, hi, 1)])
        else:
            xs = rng.uniform(lo, hi, LD_BLOCK)
        for ex in rng.permutation(xs):
            ey, ez = rng.uniform(*EPS_YZ, 2)
            ec = rng.uniform(*EPS_CARRIER)
            yield chooser.request(cfg.ld_cutoff, (float(ex), float(ey), float(ez), float(ec)))


def sweep_grid(seed: int, cfg: Config) -> list[noise.NoiseModel]:
    """One all-zero-noise row, then seeded widths in [0, DELTA_MAX]."""
    deltas = np.sort(_rng(seed, STREAM_GRID).uniform(0.0, DELTA_MAX, cfg.sweep_grid - 1))
    return [noise.NoiseModel(0.0, 0.0)] + [noise.NoiseModel(float(d), DELTA_THETA) for d in deltas]


def target_file_doc(rng: np.random.Generator, jmax: int) -> list[dict]:
    """A random full-support level-a target in the component-list format."""
    occs = [
        (nx, ny, j - nx - ny) for j in range(jmax + 1) for nx in range(j + 1) for ny in range(j - nx + 1)
    ]
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    return [{"n": list(o), "re": float(a.real), "im": float(a.imag)} for o, a in zip(occs, amps)]


@dataclass
class State:
    """Everything set-up leaves for the timed loop and the checks."""

    workload: str
    seed: int
    cfg: Config
    workdir: str
    worker: int = 0
    requests: Iterator[Request] | None = None
    target: targets.Target | None = None
    preparation: pulses.Schedule | None = None
    grid: list = field(default_factory=list)
    setup_errors: list[str] = field(default_factory=list)

    @property
    def schedule_path(self) -> str:
        return os.path.join(self.workdir, "schedule.json")

    def target_arg(self, req: Request) -> str:
        if req.target == "file":
            return "file:" + os.path.join(self.workdir, f"target-j{req.jmax}-{req.file_index}.json")
        return req.target


def _warm_schedule(truncation: fock.Truncation) -> pulses.Schedule:
    # One zero-length pulse per channel: replaying it builds every pair table.
    return pulses.Schedule(
        tuple(pulses.Pulse(cid, 0.0, 0.0) for cid in channels.ChannelId),
        channels.LambDickeParams(),
        truncation,
        pulses.Direction.PREPARATION,
    )


def setup(workload: str, seed: int, cfg: Config, workdir: str, worker: int = 0) -> State:
    """Build inputs and warm the program; everything before the first timed operation.

    Workers of one run share the seed; each draws its own requests.
    """
    os.makedirs(workdir, exist_ok=True)
    state = State(workload, seed, cfg, workdir, worker)
    if workload == "sweep":
        t = fock.Truncation(cfg.sweep_cutoff)
        fock.enumerate_basis(t)
        state.target = targets.target_corr(1.0, t)
        result = synthesis.deevolve(state.target.state, description=state.target.description)
        files.save_schedule(result.preparation, state.schedule_path)
        state.preparation = files.load_schedule(state.schedule_path)
        if state.preparation != result.preparation:
            state.setup_errors.append("load_schedule(save_schedule(s)) != s")
        state.grid = sweep_grid(seed, cfg)
        return state

    cutoffs = cfg.design_cutoffs if workload == "design" else (cfg.ld_cutoff,)
    for jmax in cutoffs:
        t = fock.Truncation(jmax)
        fock.enumerate_basis(t)
        if workload == "design":
            pulses.apply_schedule(fock.vacuum_state(t), _warm_schedule(t))
        for k in range(cfg.target_files):
            doc = target_file_doc(_rng(seed, STREAM_FILES, jmax, k), jmax)
            with open(os.path.join(workdir, f"target-j{jmax}-{k}.json"), "w", encoding="utf-8") as f:
                json.dump(doc, f)
    make = design_requests if workload == "design" else ld_requests
    state.requests = make(seed, cfg, worker)
    # Run the CLI code paths once at a tiny cutoff.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warm = os.path.join(workdir, "warm.json")
        cli.main(["compile", "--target", "corr", "--jmax", "2", "--out", warm])
        cli.main(["verify", "--schedule", warm, "--target", "corr"])
    return state


def _pair(state: State, req: Request, op: Op, sink: io.StringIO) -> None:
    target = state.target_arg(req)
    argv = ["compile", "--target", target, "--jmax", str(req.jmax), "--out", state.schedule_path]
    if req.eps is not None:
        argv += ["--eps", ",".join(repr(e) for e in req.eps[:3]), "--eps-carrier", repr(req.eps[3])]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    t1 = time.perf_counter()
    if rc != 0:
        lines = sink.getvalue().strip().splitlines()
        op.error = f"compile exit {rc}: " + (lines[-1][:100] if lines else "")
        return
    rc = cli.main(["verify", "--schedule", state.schedule_path, "--target", target, "--tol", repr(TOL)])
    t2 = time.perf_counter()
    if rc != 0:
        op.error, op.check_failed = f"verify exit {rc}", True
        return
    op.ok = True
    op.compile_s, op.verify_s, op.total_s = t1 - t0, t2 - t1, t2 - t0


def _row(state: State, op: Op, rows: list) -> None:
    cfg = state.cfg
    model = state.grid[op.index % len(state.grid)]
    t0 = time.perf_counter()
    stats = noise.run_trials(
        state.target.state, state.preparation, model, cfg.sweep_trials, state.seed, substream=(op.index,)
    )
    op.total_s = time.perf_counter() - t0
    row = noise.SweepRow(
        model.delta, model.delta_theta, cfg.sweep_trials,
        stats.fid_mean, stats.fid_std, stats.fid_post_mean, stats.efficiency_mean,
    )
    rows.append(row)
    values = (row.fid_mean, row.fid_post_mean, row.efficiency_mean)
    if not all(0.0 <= v <= 1.0 for v in values):
        op.error = f"row {op.index}: fid/post/eff outside [0, 1]: {values}"
    elif row.fid_post_mean < row.fid_mean:
        op.error = f"row {op.index}: post {row.fid_post_mean} < fid {row.fid_mean}"
    elif model.delta == 0.0 and model.delta_theta == 0.0 and abs(row.fid_mean - 1.0) > TOL:
        op.error = f"row {op.index}: zero-noise fidelity {row.fid_mean!r}"
    op.check_failed = bool(op.error)
    op.ok = not op.error


@dataclass
class Result:
    ops: list[Op]
    rows: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # jmax -> (op index, request, schedule bytes)
    calibration_s: list[float] = field(default_factory=list)
    check_errors: list[str] = field(default_factory=list)


def run_loop(state: State, seconds: float, tracer=None, calibrate=None) -> Result:
    """Run whole blocks of operations, at least one, until ``seconds`` have passed.

    With a tracer, odd operations are traced and even ones are not, so the
    tracing overhead is measured on interleaved operations.  ``calibrate``, if
    given, runs after every operation, outside its timing, and its returned
    times are kept in ``Result.calibration_s``.
    """
    if state.workload == "sweep":
        block = len(state.grid)
        requests: Iterator = itertools.repeat(None)  # rows need no request
    else:
        block = len(state.cfg.design_cutoffs) if state.workload == "design" else LD_BLOCK
        requests = state.requests
    result = Result([])
    sink = io.StringIO()
    deadline = time.perf_counter() + seconds
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for i, req in enumerate(requests):
            if i and i % block == 0 and time.perf_counter() >= deadline:
                break
            index = state.worker * INDEX_STRIDE + i
            op = Op(index, traced=tracer is not None and i % 2 == 1)
            if state.workload == "sweep":
                op.cutoff, op.kind = state.cfg.sweep_cutoff, f"row{index % block}"
            else:
                op.cutoff, op.kind = req.jmax, req.target
            sink.seek(0)
            sink.truncate()
            if op.traced:
                tracer.request = index + 1
                tracer.install()
                root = tracer.open("bench.op", "bench")
            try:
                if state.workload == "sweep":
                    _row(state, op, result.rows)
                else:
                    _pair(state, req, op, sink)
            finally:
                if op.traced:
                    tracer.close(root)
                    tracer.uninstall()
            result.ops.append(op)
            if calibrate is not None:
                result.calibration_s.append(calibrate())
            if op.ok and state.workload != "sweep" and req.jmax not in result.samples:
                with open(state.schedule_path, "rb") as f:
                    result.samples[req.jmax] = (index, req, f.read())
    return result


def _build_target(state: State, req: Request, truncation: fock.Truncation) -> targets.Target:
    if req.target == "ghz":
        return targets.target_ghz(1.0, truncation)
    if req.target == "corr":
        return targets.target_corr(1.0, truncation)
    if req.target == "diag":
        return targets.target_diag(truncation)
    return files.load_target(state.target_arg(req)[len("file:"):], truncation)


def _reference_fidelity(schedule: pulses.Schedule, target: targets.Target) -> float:
    out = reference_replay(schedule)
    return abs(np.vdot(out, target.state.amplitudes)) ** 2


def check(state: State, result: Result) -> None:
    """Output checks that run outside the timed regions.

    A failed check marks the operation it checked as failed.
    """
    errors = result.check_errors
    errors.extend(state.setup_errors)

    def fail(index: int, message: str) -> None:
        errors.append(message)
        for op in result.ops:
            if op.index == index and op.ok:
                op.ok, op.error, op.check_failed = False, message, True

    if state.workload == "sweep":
        fid = _reference_fidelity(state.preparation, state.target)
        if abs(fid - 1.0) > TOL:
            fail(0, f"reference replay fidelity {fid!r}")
        _check_rows(state, result, fail)
        return

    for jmax, (index, req, data) in sorted(result.samples.items()):
        first = os.path.join(state.workdir, "check-a.json")
        second = os.path.join(state.workdir, "check-b.json")
        with open(first, "wb") as f:
            f.write(data)
        schedule = files.load_schedule(first)
        files.save_schedule(schedule, second)
        with open(second, "rb") as f:
            resaved = f.read()
        if resaved != data or files.load_schedule(second) != schedule:
            fail(index, f"J_max {jmax}: schedule file does not round-trip exactly")
        fid = _reference_fidelity(schedule, _build_target(state, req, schedule.truncation))
        if abs(fid - 1.0) > TOL:
            fail(index, f"J_max {jmax}: reference replay fidelity {fid!r}")


def _check_rows(state: State, result: Result, fail) -> None:
    cfg = state.cfg
    if len(result.rows) >= 2:
        # Rerun the first two rows through the public sweep; CSV bytes must match.
        rerun = noise.sweep(state.target.state, state.preparation, state.grid[:2], cfg.sweep_trials, state.seed)
        paths = [os.path.join(state.workdir, n) for n in ("rows-a.csv", "rows-b.csv")]
        files.save_report(noise.SweepReport(tuple(result.rows[:2]), state.seed, rerun.target), paths[0])
        files.save_report(rerun, paths[1])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            if a.read() != b.read():
                fail(0, "rerun of rows 0-1 differs in CSV bytes")
    if state.seed == DEFAULT_SEED and cfg == Config():
        with open(RECORDED_ROWS, encoding="utf-8") as f:
            recorded = json.load(f)["rows"]
        for index, (row, want) in enumerate(zip(result.rows, recorded)):
            got = (row.delta, row.fid_mean, row.fid_post_mean, row.efficiency_mean)
            if any(abs(g - w) > TOL for g, w in zip(got, want)):
                fail(index, f"row {index} {got} differs from the recorded {want}")


def quantile(values: list[float], q: float) -> float:
    return float(np.percentile(values, 100.0 * q))


def mix_latency(ops: list[Op]) -> float:
    """Latency of one operation under the workload's mix.

    The median of each (cutoff, kind) class, averaged over the kinds of a
    cutoff, then over the cutoffs.  That is the mix the generators draw (equal
    shares per cutoff, kinds balanced within one, every grid row once per
    pass), so the value does not move with the few operations a run ends on.
    """
    classes: dict[int, dict[str, list[float]]] = {}
    for op in ops:
        classes.setdefault(op.cutoff, {}).setdefault(op.kind, []).append(op.total_s)
    return statistics.fmean(
        statistics.fmean(statistics.median(xs) for xs in kinds.values()) for kinds in classes.values()
    )


def summarize(ops: list[Op], trials_per_row: int | None = None) -> dict:
    """End-to-end numbers of untraced operations, each with its sample count.

    ``trials_per_row`` is set for sweep rows and None for compile -> verify pairs.
    """
    done = [op for op in ops if op.ok and not op.traced]
    out: dict = {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
    }
    out["failed_ratio"] = out["failed"] / max(1, out["attempted"])
    kinds = ("row_s",) if trials_per_row else ("compile_s", "verify_s")
    for kind in ("op_s",) + kinds:
        xs = [op.total_s if kind in ("op_s", "row_s") else getattr(op, kind) for op in done]
        out[kind] = {
            "n": len(xs),
            "mean": statistics.fmean(xs) if xs else None,
            "p50": quantile(xs, 0.5) if xs else None,
            "p75": quantile(xs, 0.75) if xs else None,
            "p90": quantile(xs, 0.9) if xs else None,
        }
    out["op_s"]["mix"] = mix_latency(done) if done else None
    if trials_per_row and done:
        out["trials_per_s"] = trials_per_row * len(done) / sum(op.total_s for op in done)
    out["errors"] = collections.Counter(op.error for op in ops if op.error)
    return out


def trace_overhead(ops: list[Op]) -> tuple[float, float]:
    """Mix latency of traced minus untraced successful operations, and its ratio."""
    traced = [op for op in ops if op.ok and op.traced]
    plain = [op for op in ops if op.ok and not op.traced]
    if not traced or not plain:
        return 0.0, 0.0
    diff = mix_latency(traced) - mix_latency(plain)
    return diff, diff / mix_latency(plain)
