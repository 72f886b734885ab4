"""The CI workflow and tests/ci/run_all.sh, which runs its steps outside CI,
name the same steps in the same order."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def runner_steps(text: str) -> list:
    """The steps run_all.sh defines, in its order: each step_* function, as its dispatcher lists them."""
    return re.findall(r"^step_([a-z0-9_]*)\(\) \{", text, re.M)


def workflow_calls(text: str) -> list:
    """The arguments of each run_all.sh call in the workflow, in its order; comments call nothing."""
    return [line.split() for line in re.findall(r"^[^#\n]*tests/ci/run_all\.sh\b(.*)", text, re.M)]


def test_the_workflow_runs_each_runner_step_once_in_the_runner_order():
    steps = runner_steps((ROOT / "tests" / "ci" / "run_all.sh").read_text(encoding="utf-8"))
    calls = workflow_calls((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    assert "tier1" in steps and "mutants" in steps
    # the installed command, and one step per call: no call runs them all
    assert [args[0] for args in calls] == ["paraloq"] * len(calls) and all(len(args) == 2 for args in calls), calls
    assert [args[1] for args in calls] == steps
