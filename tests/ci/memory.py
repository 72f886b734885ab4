"""python3 tests/ci/memory.py PARALOQ PREFIX: `PARALOQ simulate` of 24 h into PREFIX.csv,
then summarize and plot of it, each peak within its RSS bound; plot --out writes the bytes
plot prints, and simulate prints summarize's table. Outputs go to PREFIX*; exits 1 if not."""
import os, sys

LIMIT_MIB = 45  # importing the package alone takes about 20 MiB
SVG_ABOVE_ASCII_MIB = 10  # the 24 h SVG is 2.4 MB, and drawing it holds about two copies
paraloq, prefix = sys.argv[1:]

def peak_mib(args, out):
    """Run `PARALOQ *args` as a child with stdout to out; its peak RSS in MiB."""
    with open(out, "wb") as fh:
        pid = os.posix_spawnp(paraloq, [paraloq, *args], os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1)])
    _, status, usage = os.wait4(pid, 0)  # the rusage of this child alone
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{paraloq} {' '.join(args)} exited {code}")
    return usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

log = f"{prefix}.csv"
day = ["--duration", "86400", "--seed", "0", "--start-time", "2026-08-10T12:00:00", "--out", log]
peaks = {
    "simulate": peak_mib(["simulate", *day], f"{prefix}-simulate.out"),
    "summarize": peak_mib(["summarize", "--input", log], f"{prefix}-summarize.out"),
    "plot --format ascii": peak_mib(["plot", "--input", log, "--column", "dry_temp_c"], f"{prefix}.txt"),
}
svg_plot = ["plot", "--input", log, "--column", "dry_temp_c", "--format", "svg"]
svgs = {
    "plot --format svg": peak_mib(svg_plot, f"{prefix}.svg"),
    "plot --format svg --out": peak_mib([*svg_plot, "--out", f"{prefix}-out.svg"], os.devnull),
}
problems = []
for name, mib in peaks.items():
    print(f"{name}: {mib:.1f} MiB peak RSS (bound {LIMIT_MIB})")
    if mib >= LIMIT_MIB:
        problems.append(f"{name} peaked at {mib:.1f} MiB")
svg_bound = peaks["plot --format ascii"] + SVG_ABOVE_ASCII_MIB
for name, svg in svgs.items():
    print(f"{name}: {svg:.1f} MiB peak RSS (bound {svg_bound:.1f}: the ASCII plot's + {SVG_ABOVE_ASCII_MIB})")
    if svg > svg_bound:
        problems.append(f"{name} peaked at {svg:.1f} MiB, more than {SVG_ABOVE_ASCII_MIB} MiB above the ASCII plot")
if open(f"{prefix}.svg", "rb").read() != open(f"{prefix}-out.svg", "rb").read():
    problems.append("plot --out wrote other bytes than plot to standard output")
# the table simulate prints after its "wrote" line is the table summarize prints for its log
simulated = open(f"{prefix}-simulate.out", encoding="utf-8").read().splitlines()
summarized = open(f"{prefix}-summarize.out", encoding="utf-8").read().splitlines()
print("\n".join(simulated))
if not simulated[0].startswith(f"wrote {log}: 172801 ticks,") or len(summarized) != 4 or simulated[1:] != summarized:
    problems.append(f"simulate printed {simulated[1:]}, summarize {summarized}")
sys.exit("\n".join(problems) or None)
