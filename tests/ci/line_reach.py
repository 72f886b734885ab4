"""The lines of src/ that tier-1 never runs.

    python3 tests/ci/line_reach.py [PYTEST_ARG ...]

runs tier-1 (pytest over tests/, with any PYTEST_ARG added) in this process
under a stdlib sys.settrace tracer, set for this thread and every thread
started after it, and prints each executable line of src/paraloq that no
test ran, as `file:line  text`. A line of cli.py is followed by the step of
tests/ci/run_all.sh that runs it (CLI_STEPS), or by "run by no CI step".
The tracer sees this process only, so a line that runs only in a subprocess
a test starts (a `simulate` stopped by a signal) is listed too.

A line is executable if the compiler gives it an instruction: it is in
co_lines() of the module's code object or of a code object nested in it.
The line a code object starts at (a function's `def`, a module's line 0)
counts as run when the code is entered.

It is run by hand, not in CI: tier-1 takes about 85 s under the tracer,
against about 30 s without. It exits with pytest's code if a test fails,
and otherwise 0.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "paraloq"

# (function, line text less its comment) of each cli.py line that tier-1 runs
# only in a subprocess, if at all, and the steps of tests/ci/run_all.sh that run it
CLI_STEPS = {
    ("_terminate", 'raise Terminated("terminated")'): "sigterm",
    ("main", "return EXIT_TERMINATED"): "sigterm",
    ("main", "except BrokenPipeError:"): "pipe",
    ("main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): "pipe",
    ("main", "return EXIT_BROKEN_PIPE"): "pipe",
    # CI runs the installed script, which calls main(); a `python3 -m paraloq.cli` run runs this
    ("<module>", "raise SystemExit(main())"): "tier1, in a subprocess",
}


def executable_lines(path: Path) -> dict:
    """{line number: name of the innermost code object that holds it} for
    each line of the file that has an instruction."""
    lines = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        for _, _, line in code.co_lines():
            if line is not None:
                lines[line] = code.co_name  # a code object comes off the stack before those in it
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None  # no line events for code outside the package
        ran.add((code.co_filename, frame.f_lineno))
        return lines

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return int(code)
    unrun = by_step = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line, owner in sorted(executable_lines(path).items()):
            if (str(path), line) in ran:
                continue
            unrun += 1
            source = text[line - 1].strip()
            where = f"{path.relative_to(ROOT)}:{line}  {source}"
            if path.name == "cli.py":
                step = CLI_STEPS.get((owner, source.partition("  #")[0]))
                by_step += step is not None
                where += f"  [{'run by CI step ' + step if step else 'run by no CI step'}]"
            print(where)
    print(f"{unrun} executable lines of src/ unrun by tier-1, {by_step} of them run by a named CI step")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
