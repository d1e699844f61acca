"""The benchmark's workloads (bench/workloads.py), loaded unedited: block 0 of
each at seed 1, with a clock that times nothing, runs every session without a
failure and gives the pinned digest of its outputs.

A workload's digest covers what the benchmark records of its exact blocks:
the vanilla references, each session's output, ledger and trace records, the
summary and aggregate CSVs, and the sweep grid. A change to the RNG stream or
to any of these outputs re-pins these digests together with the golden ones
(test_golden.py)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "policies-greedy": "8a3299d36c058e27d9577142fd27f70a40f2f50d8d3eb3015d9df2fbdc789c0d",
    "del-sampling-long": "698e71c20a122734958e9d451d26a4f7e4489280c85185db8c6e9f1804295cfc",
    "sweep-static": "d5b462cb2b6eee94428feb8ddce8fe6b11a4d3f8147e82164759189f7b49c2fb",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class NoClock:
    """A clock whose laps take no time."""

    raw = 0.0
    scale = 1.0

    def lap(self) -> float:
        return 0.0


def test_every_workload_is_pinned():
    assert sorted(load_workloads().WORKLOADS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_first_block_of_each_workload_keeps_its_digest(name, tmp_path):
    workloads = load_workloads()
    wl = workloads.make_workload(name, 1, tmp_path)
    res = workloads.Results(exact_blocks=1)
    wl.block(0, res, NoClock())
    # the sweep re-runs its exact block's sessions one by one and checks them
    wl.finish(res)
    assert res.attempted > 0
    assert res.failed == 0, res.failures
    assert res.digest.hexdigest() == DIGESTS[name]
