"""Byte-identity gate: SHA-256 digests of run outputs pinned to known values.

A refactor that keeps the RNG stream must keep every trace, table and grid
byte-identical; any drift in a draw, a float's last digit or the record
layout changes a digest here. The digests were computed under numpy 2.4; a
numpy release that changes a sampler's stream changes them too.

The three run digests whose sessions read exit-layer confidences or
off-target tokens were re-pinned once, when each position's draws became one
keyed row of uniforms with tabulated confidence laws; the toy run, the
sweep grid and the prompts, which read neither, kept theirs.

The four run digests, whose outputs all hold `del` traces, were re-pinned
once more for trace format v2, which prints each entry of `del`'s
alpha_snapshot at six significant digits (`%.6g`) in place of its shortest
repr. Against the v1 outputs only the alpha_snapshot lists of the `del`
traces differ, each parsed entry within 5e-6 relative of the v1 one; every
other line, field and file, and the sweep-grid and prompt digests, held.

The four run digests were re-pinned a third time when the session field
``default_threshold``, which no session could read, was removed: against
the earlier outputs only that key's line in each ``config.json`` is gone;
every trace, summary and aggregate byte held.

The four run digests were re-pinned a fourth time when two inputs changed
form with every output kept: the session field ``alpha_clamp_eps``, which
no config set, became the constant ``controller.ALPHA_FLOOR``, so its line
is gone from each ``config.json``; and the deterministic toy became an
``agreement`` spec (``conftest.toy_spec``), so the toy run's ``config.json``
holds that spec's model section. Against the earlier outputs every other
file held byte for byte, and so did the sweep-grid and prompt digests, the
toy's prompts now drawn from the table spec.
"""

import hashlib
import json
from array import array
from pathlib import Path

import pytest
from conftest import STABLE_CONF, make_cfg, profile_with, toy_spec

from delsim.config import GREEDY, SAMPLING
from delsim.harness import grid_sweep, make_prompts, run_experiment
from delsim.model import AGREEMENT, REGIME_SWITCHING, LayeredModel, ModelSpec

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

ALL_POLICIES = [
    ("vanilla", {}),
    ("ls", {"exit_layer": 2, "gamma": 5}),
    ("fs", {"exit_layer": 2, "gamma": 5}),
    ("dv", {"exit_layer": 2}),
    ("del", {}),
]


def output_digest(out_dir, skip=()) -> str:
    """One digest over every file a run writes, in a fixed order, less the
    top-level files named in ``skip``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if str(path.relative_to(out_dir)) in skip:
            continue
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_digest(tmp_path, spec, cfg, policies, prompt_len=16) -> str:
    run_experiment(spec, cfg, policies, n_prompts=2, prompt_len=prompt_len, out_dir=tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert {"config.json", "summary.csv", "aggregate.csv", "traces"} <= names
    return output_digest(tmp_path)


GREEDY_ALL_POLICIES = "ef8ec73b440d18df493f7d883ceb3a07df68215b477e01d4b4ad0c43abb673d2"
SAMPLING_REGIMES = "a0cf939a6c9a06b7b06a4bbaf393676bda0dd1afaf78b1bd29ad59aafd6a17d6"
TOY_RUN = "2e1e5a6f433673c4c83c94a7975b2449fe108c8aa249d35fecae3e03d4ae9ebb"
SAMPLING_LONG_ROUNDS = "0c329188822dabff1683bcd675f75418712a95e681d3b5dab8976e7fcfe20db0"
SWEEP_GRID = "fb11ab71acac3e944c9525b17c8229d1725b2d0a39093d629044493de7883347"


def test_greedy_run_all_policies_is_byte_stable(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=11, max_new_tokens=96, prefill_window=16)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=profile_with(8, best=2), **STABLE_CONF)
    assert run_digest(tmp_path, spec, cfg, ALL_POLICIES) == GREEDY_ALL_POLICIES


def test_sampling_run_is_byte_stable(tmp_path):
    cfg = make_cfg(L=8, V=16, seed=5, max_new_tokens=96, prefill_window=16,
                   decode_mode="sampling", d_max=8)
    spec = ModelSpec(
        kind=REGIME_SWITCHING,
        regimes=((40, profile_with(8, best=2)), (40, profile_with(8, best=5))),
        **STABLE_CONF,
    )
    policies = [("vanilla", {}), ("ls", {"exit_layer": 2, "gamma": 4}), ("del", {})]
    assert run_digest(tmp_path, spec, cfg, policies) == SAMPLING_REGIMES


def test_sampling_run_with_long_rounds_is_byte_stable(tmp_path):
    # d_max = 18 lets rounds reach width 19, past the 8-element blocks in
    # which numpy's pairwise summation changes the order of round_stats' sums
    cfg = make_cfg(L=16, V=16, seed=17, max_new_tokens=96, prefill_window=16,
                   decode_mode="sampling", d_max=18)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=profile_with(16, best=3), **STABLE_CONF)
    policies = [("vanilla", {}), ("ls", {"exit_layer": 3, "gamma": 18}), ("del", {})]
    assert run_digest(tmp_path, spec, cfg, policies) == SAMPLING_LONG_ROUNDS


def test_deterministic_toy_run_is_byte_stable(tmp_path):
    cfg = make_cfg(L=6, V=16, seed=3, max_new_tokens=48, prefill_window=8)
    spec = toy_spec(6, 16)
    # the example config holds the same model
    example = json.loads((EXAMPLES / "deterministic_toy.json").read_text())
    assert ModelSpec.from_dict(example["model"]) == spec
    assert run_digest(tmp_path, spec, cfg, ALL_POLICIES, prompt_len=8) == TOY_RUN


@pytest.mark.parametrize("mode", [GREEDY, SAMPLING])
def test_one_segment_regimes_write_what_the_agreement_kind_writes(tmp_path, mode):
    # a 7-position segment wraps several times along each session's path
    cfg = make_cfg(L=8, V=32, seed=11, max_new_tokens=48, prefill_window=16, decode_mode=mode)
    profile = profile_with(8, best=2)
    specs = [ModelSpec(kind=AGREEMENT, agreement_profile=profile, **STABLE_CONF),
             ModelSpec(kind=REGIME_SWITCHING, regimes=((7, profile),), **STABLE_CONF)]
    digests = []
    for i, spec in enumerate(specs):
        run_experiment(spec, cfg, ALL_POLICIES, n_prompts=2, prompt_len=16,
                       out_dir=tmp_path / str(i))
        digests.append(output_digest(tmp_path / str(i), skip={"config.json"}))
    assert digests[0] == digests[1]


def test_grid_sweep_is_byte_stable():
    cfg = make_cfg(L=8, V=32, seed=13, max_new_tokens=40)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=profile_with(8, best=3), **STABLE_CONF)
    grid = grid_sweep(spec, cfg, ells=range(1, 5), ds=(0, 2, 5), n_prompts=2, prompt_len=12,
                      segment_len=16)
    assert grid.values.shape == (3, 4, 3)
    assert hashlib.sha256(grid.values.tobytes()).hexdigest() == SWEEP_GRID


PROMPT_SPECS = {
    AGREEMENT: (
        ModelSpec(kind=AGREEMENT, agreement_profile=(0.3, 0.9, 0.5, 1.0)),
        "52fd4ca91fbbf1ec45dc9165ddfe152e8bd28a73ef8cd22ba29f8f3f28a10003",
    ),
    REGIME_SWITCHING: (
        ModelSpec(kind=REGIME_SWITCHING, base_process={"kind": "dirichlet", "concentration": 3.0},
                  regimes=((5, (0.9, 0.1, 0.5, 1.0)), (3, (0.1, 0.9, 0.5, 1.0)))),
        "d39a7fa77ac812a4191740c5217855d8732e01e66232b5b19f83d6cbdd040b20",
    ),
    "deterministic_toy": (
        toy_spec(4, 23, [(t + 5) % 23 for t in range(23)]),
        "478b461f5a23e78db49c263d4a5b0873380c24fc5f9356a4c01d76971502ec01",
    ),
}


@pytest.mark.parametrize("kind", list(PROMPT_SPECS))
def test_prompts_are_byte_stable(kind):
    spec, digest = PROMPT_SPECS[kind]
    prompts = make_prompts(LayeredModel(spec, 4, 23, 5), make_cfg(L=4, V=23, seed=19), 3, 40)
    assert [len(p) for p in prompts] == [40] * 3
    joined = b"".join(array("q", p).tobytes() for p in prompts)
    assert hashlib.sha256(joined).hexdigest() == digest
