"""pytest tests/test_acceptance.py -v -s | python3 tests/ci/acceptance_lines.py: prints the gate's output,
which holds one distinct PASS line for each criterion 01..10 and names no other; exits 1 if not."""
import re, sys

output = sys.stdin.read()
print(output, end="")
# a criterion whose report() line is lost, or printed twice over, fails
seen = {}
for match in re.finditer(r"criterion (\d\d) PASS\b.*", output):
    seen.setdefault(match.group(1), set()).add(match.group(0))
want = [f"{n:02d}" for n in range(1, 11)]
problems = [f"criterion {n}: {len(seen.get(n, ()))} distinct PASS lines" for n in want if len(seen.get(n, ())) != 1]
problems += [f"criterion {n}: not a criterion 01..10" for n in sorted(set(seen) - set(want))]
print("\n".join(problems) or "criteria 01..10: one PASS line each")
sys.exit(1 if problems else 0)
