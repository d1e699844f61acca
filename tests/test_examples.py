"""The experiments in ``examples/`` are config files run through the CLI:
each runs end to end on small overrides and prints its lines, a run's
output directory replays clean, and every ``delsim`` command the README
documents parses."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from delsim.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"
SMALL = ["--prompts", "1", "--max-new-tokens", "16"]

# each example's command, and the start of each line it prints
RUNS = [
    ("compare_policies.json", ["run"],
     [f"policy={p} runs=1 mean_etpl=" for p in ("vanilla", "ls", "fs", "dv", "del")] + ["wrote "]),
    ("deterministic_toy.json", ["run"],
     [f"policy={p} runs=1 mean_etpl=" for p in ("vanilla", "ls", "fs", "dv", "del")] + ["wrote "]),
    ("omega_sensitivity.json", ["omega-sweep"],
     [f"omega={w} etpl=" for w in ("0.50", "0.60", "0.70", "0.80", "0.90", "0.95", "1.00")]
     + ["spread: ", "wrote "]),
    ("regime_adaptation.json", ["run"],
     [f"policy={p} runs=1 mean_etpl=" for p in ("vanilla", "ls", "del")] + ["wrote "]),
    # one best cell per window of 8 emitted tokens: 16 tokens make two
    ("regime_adaptation.json",
     ["sweep", "--ell", "1,2,4,6,8", "--d", "0,3,6,9,12,15,18", "--segment-len", "8"],
     ["best cell (segment 0): exit_layer=", "best cell (segment 1): exit_layer=", "wrote "]),
]


def test_every_example_is_covered():
    assert sorted(p.name for p in EXAMPLES.iterdir()) == sorted({r[0] for r in RUNS})


@pytest.mark.parametrize("name, command, starts", RUNS,
                         ids=[f"{r[0]}-{r[1][0]}" for r in RUNS])
def test_example_runs_and_prints_its_lines(tmp_path, capsys, name, command, starts):
    argv = [command[0], "--config", str(EXAMPLES / name), *command[1:], *SMALL,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == len(starts), captured.out
    for line, start in zip(lines, starts):
        assert line.startswith(start), (start, captured.out)
    if command[0] == "run":
        assert main(["replay", "--dir", str(tmp_path / "out")]) == 0


def test_a_sampling_run_of_an_example_replays_clean(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(EXAMPLES / "compare_policies.json"), *SMALL,
                 "--decode-mode", "sampling", "--out", out]) == 0
    assert main(["replay", "--dir", out]) == 0
    assert capsys.readouterr().out.endswith(f"replay OK: {out}\n")


def readme_commands() -> list[list[str]]:
    """The argv of every ``delsim`` line in the README's code blocks."""
    blocks = re.findall(r"```[a-z]*\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("delsim ")]


def test_every_documented_command_parses():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "sweep", "oracle", "omega-sweep", "replay"}
    for argv in commands:
        args = build_parser().parse_args(argv)
        config = getattr(args, "config", None)
        if config and config.startswith("examples/"):
            assert (ROOT / config).is_file(), argv
    documented = {argv[argv.index("--config") + 1] for argv in commands if "--config" in argv}
    assert {f"examples/{p.name}" for p in EXAMPLES.iterdir()} <= documented
