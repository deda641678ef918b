"""The benchmark's tracer and reference interpreter still find what they use.

``perfbench/spans.py`` wraps ionsynth functions at the module attribute names
their callers use, and ``perfbench/reference.py`` replays schedules from
``channels.coupled_pairs``.  A package change that renames or reshapes one of
these breaks the traced benchmark run or its correctness check, so both files
are loaded here by path, exactly as they are.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ionsynth import (
    CHANNELS,
    ChannelId,
    LambDickeParams,
    NoiseModel,
    Truncation,
    deevolve,
    target_corr,
    target_ghz,
    vacuum_state,
)
from ionsynth import noise, pulses
from ionsynth.channels import coupled_pairs
from ionsynth.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_patched_name():
    spans = load("spans")
    tracer = spans.Tracer()  # looks up every (module, attribute) in PATCHES
    assert [(m.__name__, attr) for m, attr, _ in tracer._originals] == [
        (module, attr) for module, attr, _ in spans.PATCHES
    ]
    assert all(callable(original) for _, _, original in tracer._originals)


def test_traced_compile_counts_its_pulses(tmp_path, capsys):
    """Installed, the tracer sees the CLI's deevolve and save_schedule calls,
    and uninstalling puts every original back."""
    spans = load("spans")
    tracer = spans.Tracer()
    tracer.request = 1
    tracer.install()
    try:
        argv = ["compile", "--target", "ghz", "--jmax", "4", "--out", str(tmp_path / "s.json")]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for module, attr, original in tracer._originals:
        assert getattr(module, attr) is original
    m = spans.summarize(tracer, 1)
    assert m["synthesis.pulses_emitted"] == 179
    assert m["synthesis.deevolve_s"] > 0 and m["files.save_schedule_s"] > 0
    assert m["files.schedule_bytes"] == (tmp_path / "s.json").stat().st_size


def test_reference_replay_closes_ghz_preparation():
    reference = load("reference")
    target = target_ghz(1.0, Truncation(4)).state
    out = reference.reference_replay(deevolve(target).preparation)
    assert abs(np.vdot(out, target.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_traced_compile_at_fresh_point_builds_nine_tables(tmp_path, capsys):
    """At a Lamb-Dicke point no other test uses, the compile misses the pair
    table cache once per channel, through the patched ``pulses.coupled_pairs``."""
    spans = load("spans")
    tracer = spans.Tracer()
    tracer.request = 1
    tracer.install()
    try:
        argv = ["compile", "--target", "corr", "--jmax", "5", "--eps", "0.2718,0.1414,0.1732",
                "--eps-carrier", "0.1123", "--out", str(tmp_path / "s.json")]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    built = [span for span in tracer.spans if span[spans.NAME] == "channels.coupled_pairs"]
    assert len(built) == len(ChannelId)
    t = Truncation(5)
    ld = LambDickeParams(0.2718, 0.1414, 0.1732, 0.1123)
    for cid, spec in CHANNELS.items():
        pairs, _ = coupled_pairs(spec, t, ld)
        assert tracer.pair_sizes[(cid, t, ld)] == len(pairs)
        assert tracer.pair_count(cid, t, ld) == len(pairs)


def test_traced_trials_perturb_each_trial_inside_one_batched_simulate_trial():
    """``run_trials`` perturbs every trial through ``perturb`` and replays the
    batch inside one ``simulate_trial`` call, so a traced batch of 3 trials
    records one simulate_trial span holding 3 perturb spans; a directly traced
    ``apply_schedule`` still counts every replayed pulse."""
    target = target_corr(1.0, Truncation(4)).state
    preparation = deevolve(target).preparation
    spans = load("spans")
    tracer = spans.Tracer()
    tracer.request = 1
    tracer.install()
    try:
        noise.run_trials(target, preparation, NoiseModel(0.03, 0.01), 3, seed=5)
    finally:
        tracer.uninstall()
    names = [span[spans.NAME] for span in tracer.spans]
    assert names.count("noise.simulate_trial") == 1
    trial = names.index("noise.simulate_trial")
    perturbs = [span for span in tracer.spans if span[spans.NAME] == "noise.perturb"]
    assert len(perturbs) == 3 and all(span[spans.PARENT] == trial for span in perturbs)
    m = spans.summarize(tracer, 1)
    assert m["noise.perturb_s"] > 0 and m["noise.simulate_trial_s"] > 0

    tracer = spans.Tracer()
    tracer.request = 1
    tracer.install()
    try:
        pulses.apply_schedule(vacuum_state(preparation.truncation), preparation)
    finally:
        tracer.uninstall()
    m = spans.summarize(tracer, 1)
    assert m["pulses.pulses_applied"] == len(preparation)
    assert m["pulses.apply_schedule_s"] > 0
