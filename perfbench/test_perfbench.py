"""Tests of the benchmark itself: inputs, tracing arithmetic and smoke runs.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import itertools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from ionsynth import (  # noqa: E402
    ChannelId,
    LambDickeParams,
    Truncation,
    apply_schedule,
    deevolve,
    nonlinearity,
    random_target,
    vacuum_state,
)
from reference import reference_replay  # noqa: E402

SMALL = workloads.Config(
    design_cutoffs=(2, 3, 4), ld_cutoff=4, sweep_cutoff=3, sweep_trials=1, sweep_grid=3, target_files=2
)


def _take(gen, n):
    return list(itertools.islice(gen, n))


@pytest.mark.parametrize("make", [workloads.design_requests, workloads.ld_requests])
def test_requests_repeat_per_seed_and_differ_across_seeds_and_workers(make):
    cfg = workloads.Config()
    assert _take(make(5, cfg), 60) == _take(make(5, cfg), 60)
    assert _take(make(5, cfg), 60) != _take(make(6, cfg), 60)
    assert _take(make(5, cfg, 1), 60) != _take(make(5, cfg, 2), 60)


def test_grid_and_target_files_repeat_per_seed():
    cfg = workloads.Config()
    assert workloads.sweep_grid(3, cfg) == workloads.sweep_grid(3, cfg)
    assert workloads.sweep_grid(3, cfg) != workloads.sweep_grid(4, cfg)
    a = workloads.target_file_doc(np.random.default_rng([3, 1]), 4)
    assert a == workloads.target_file_doc(np.random.default_rng([3, 1]), 4)
    assert a != workloads.target_file_doc(np.random.default_rng([4, 1]), 4)


def test_design_cycles_cutoffs_in_equal_thirds_with_balanced_targets():
    reqs = _take(workloads.design_requests(7, workloads.Config()), 36)
    for block in range(0, 36, 3):
        assert sorted(r.jmax for r in reqs[block:block + 3]) == [10, 12, 16]
    for jmax in (10, 12, 16):
        kinds = [r.target for r in reqs if r.jmax == jmax]
        counts = {k: kinds.count(k) for k in workloads.target_kinds(jmax)}
        assert max(counts.values()) - min(counts.values()) <= 1
    assert all(r.target != "diag" for r in reqs if r.jmax < 12)


def test_ld_scan_draws_stay_in_range_with_one_in_six_past_the_zero():
    zero = workloads.laguerre_zero(12)
    reqs = _take(workloads.ld_requests(9, workloads.Config()), 600)
    eps = np.array([r.eps for r in reqs])
    for col, (lo, hi) in enumerate(
        [workloads.EPS_X, workloads.EPS_YZ, workloads.EPS_YZ, workloads.EPS_CARRIER]
    ):
        assert lo <= eps[:, col].min() and eps[:, col].max() <= hi
    past = (eps[:, 0] >= zero).reshape(-1, workloads.LD_BLOCK).sum(axis=1)
    assert (past == 1).all()
    assert all(r.jmax == 12 for r in reqs)


def test_laguerre_zero_is_where_the_program_loses_the_top_exchange_pair():
    zero = workloads.laguerre_zero(12)
    assert 0.55 < zero < 0.56
    assert nonlinearity(zero * (1 - 1e-9), 11) > 0.0 > nonlinearity(zero * (1 + 1e-9), 11)
    assert workloads.laguerre_zero(4) > workloads.EPS_X[1]


def _span(name, layer, start, end, parent, request=1):
    return [name, layer, start, end, parent, request]


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        _span("bench.op", "bench", 0.0, 10.0, -1),
        _span("cli.main", "cli", 1.0, 9.0, 0),
        _span("synthesis.deevolve", "synthesis", 2.0, 6.0, 1),
        _span("channels.coupled_pairs", "channels", 2.5, 3.5, 2),
        _span("pulses.dagger_schedule", "pulses", 5.0, 5.5, 2),
        _span("trace.count", "trace", 6.0, 6.25, 1),
        _span("files.save_schedule", "files", 7.0, 8.0, 1),
    ]
    assert spans.self_times(tree) == [2.0, 2.75, 2.5, 1.0, 0.5, 0.25, 1.0]

    tracer = spans.Tracer.__new__(spans.Tracer)
    tracer.spans = tree + [_span(n, l, s + 20, e + 20, p + 7 if p >= 0 else -1, 2) for n, l, s, e, p, _ in tree]
    tracer.counts = spans.collections.Counter()
    m = spans.summarize(tracer, ops=2)
    assert m["trace.self_sum_error_s"] == 0.0
    assert m["synthesis.deevolve_s"] == 4.0
    assert m["synthesis.deevolve_self_s"] == 2.5
    assert m["cli.main_self_s"] == 2.75
    assert m["channels.coupled_pairs_calls"] == 1.0
    layer_sum = m["cli.main_self_s"] + sum(
        m[f"{layer}.self_s"] for layer in spans.LAYERS[:-1] + ("bench", "trace")
    )
    assert layer_sum == 10.0
    assert m["noise.perturb_s"] is None


def test_reference_replay_matches_the_program():
    t = Truncation(5)
    ld = LambDickeParams(0.4, 0.2, 0.3, 0.15)
    target = random_target(t, np.random.default_rng(1))
    prep = deevolve(target.state, ld).preparation
    np.testing.assert_allclose(
        reference_replay(prep), apply_schedule(vacuum_state(t), prep).amplitudes, atol=1e-12
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_run_at_a_tiny_cutoff(workload, traced, tmp_path):
    # A fresh seed per case: a repeated Lamb-Dicke tuple would hit the pair-table cache.
    state = workloads.setup(workload, 3 + traced, SMALL, str(tmp_path))
    tracer = spans.Tracer() if traced else None
    result = workloads.run_loop(state, 0.3, tracer)
    workloads.check(state, result)
    assert result.ops and not result.check_errors
    assert all(op.ok for op in result.ops), [op.error for op in result.ops if not op.ok]
    summary = workloads.summarize(result.ops, SMALL.sweep_trials if workload == "sweep" else None)
    assert summary["failed"] == 0 and summary["op_s"]["n"] > 0
    if traced:
        traced_ops = sum(op.traced for op in result.ops)
        m = spans.summarize(tracer, traced_ops)
        assert m["trace.self_sum_error_s"] < 1e-9
        if workload == "ld-scan":
            assert m["channels.coupled_pairs_calls"] == len(ChannelId)
        else:
            assert m["channels.coupled_pairs_calls"] == 0
        if workload == "sweep":
            assert m["noise.simulate_trial_s"] > 0 and m["files.save_schedule_s"] is None
        else:
            assert m["synthesis.pulses_emitted"] > 0 and m["noise.perturb_s"] is None


def test_ld_scan_block_at_the_real_cutoff_fails_exactly_one_request(tmp_path):
    cfg = workloads.Config(target_files=1)
    state = workloads.setup("ld-scan", 2, cfg, str(tmp_path))
    result = workloads.run_loop(state, 0.0)
    assert len(result.ops) == workloads.LD_BLOCK
    failed = [op for op in result.ops if not op.ok]
    assert len(failed) == 1 and "no coupled pair" in failed[0].error
