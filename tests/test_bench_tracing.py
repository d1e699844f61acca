"""The traced benchmark (bench/tracing.py) wraps each policy class's
``init``/``observe`` by name and the controller's stages as module
attributes. These tests install that wrapping, unedited, over short sessions
of every policy: a class that inherited a wrapped method from another wrapped
class would be wrapped twice, and a stage called other than through its
module attribute would go unseen."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from conftest import agreement_model, make_cfg, profile_with
from test_bench_workloads import NoClock, load_workloads

from delsim import baselines, controller, harness
from delsim.baselines import make_policy

ROOT = Path(__file__).resolve().parents[1]
METHOD_SPANS = ["baselines.init", "baselines.observe", "controller.init", "controller.observe"]
STAGES = ("shadow_tokens", "round_stats", "push", "estimate_alpha", "update_threshold", "select_plan")
POLICIES = [
    ("vanilla", {}, "baselines"),
    ("ls", {"exit_layer": 2, "gamma": 3}, "baselines"),
    ("fs", {"exit_layer": 2, "gamma": 3}, "baselines"),
    ("dv", {"exit_layer": 2}, "baselines"),
    ("del", {}, "controller"),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_one_policy_update_span_per_round_and_every_stage():
    tracer = load_tracing().Tracer()
    cfg = make_cfg(L=8, V=32, max_new_tokens=24)
    model = agreement_model(cfg, profile_with(8, best=2))
    prompt = model.sample_prompt(8, np.random.default_rng(0))
    classes = (baselines.VanillaPolicy, baselines.LsPolicy, baselines.FsPolicy, baselines.DvPolicy,
               controller.DelController)
    tracer.install()
    try:
        for name, params, module in POLICIES:
            first = len(tracer.name)
            res = harness.run_session(model, make_policy(name, cfg, **params), cfg, prompt, 1)
            # copies: a view of the tracer's buffers would stop it appending
            nid, parent = [np.array(a) for a in tracer.arrays()[:2]]
            span_names = np.array(tracer.names)[nid]
            names = span_names[first:]
            parents = np.where(parent >= 0, span_names[np.maximum(parent, 0)], "")[first:]
            assert np.sum(names == f"{module}.init") == 1, name
            assert np.sum(names == f"{module}.observe") == res.rounds, name
            # a method wrapped twice shows as a span nested in one of its own name
            assert not np.any((names == parents) & np.isin(names, METHOD_SPANS)), name
            for stage in STAGES:
                in_update = (names == f"controller.{stage}") & (parents == "controller.observe")
                assert np.sum(in_update) == (res.rounds if name == "del" else 0), (name, stage)
    finally:
        tracer.restore()
    for cls in classes:
        for method in ("init", "observe"):
            assert not hasattr(getattr(cls, method), "__wrapped__")
    for stage in STAGES:
        assert not hasattr(getattr(controller, stage), "__wrapped__")


def test_a_model_step_returns_only_its_target_row():
    # returned_bytes gives model.step.bytes from vars(step): the arrays a
    # step holds are its target row alone, before and after its layers are
    # read (a LayerStep with __slots__ has no vars and would crash it)
    cfg = make_cfg(L=8, V=32)
    model = agreement_model(cfg, profile_with(8, best=2))
    returned_bytes = load_tracing().returned_bytes
    for ctx in ([1], [1, 2, 3]):
        step = model.step(ctx)
        arrays = [v for v in vars(step).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == cfg.V * 8
        controller.shadow_tokens([step])
        assert returned_bytes(step) == cfg.V * 8


# ``Profile.step_calls`` of block 0 of each workload at seed 1: a step made
# inside ``engine.draft`` counts as a draft step, one made in ``run_round``
# itself (the bonus position, and every position of a zero-threshold round)
# as a verify step
STEP_CALLS = {
    "policies-greedy": {"prefill": 64, "draft": 1029, "verify": 1585, "reference": 0, "other": 0},
    "del-sampling-long": {"prefill": 128, "draft": 11517, "verify": 4492, "reference": 0, "other": 0},
}


@pytest.mark.parametrize("name", sorted(STEP_CALLS))
def test_traced_block_splits_its_model_steps_as_pinned(name, tmp_path):
    tracing, workloads = load_tracing(), load_workloads()
    wl = workloads.make_workload(name, 1, tmp_path)
    res = workloads.Results(exact_blocks=1)
    tracer = tracing.Tracer()
    plain = wl.model
    tracer.install()
    try:
        wl.model = tracer.model(plain)
        start = perf_counter()
        tracer.wrap(tracing.BLOCK, wl.block)(0, res, NoClock())
        wall = perf_counter() - start
    finally:
        tracer.restore()
        wl.model = plain
    assert res.failed == 0, res.failures
    prof = tracing.Profile(tracer, wall, exact_blocks=1)
    assert prof.step_calls == STEP_CALLS[name]
