"""python3 tests/ci/stopped_run.py PARALOQ INT|TERM|KILL OUT: a 24 h `simulate` sent the signal 2 s in exits 130,
143 or killed, and OUT holds whole CRLF lines, its k rows the first k rows of the same run, then
`# aborted = tick k: interrupted` (INT), `...: terminated` (TERM) or nothing (KILL); exits 1 if not."""
import signal, subprocess, sys, time
from datetime import datetime
from paraloq import RunConfig, read_csv, run_acquisition

STOPS = {"INT": (130, "interrupted"), "TERM": (143, "terminated"), "KILL": (-signal.SIGKILL, None)}
paraloq, name, out = sys.argv[1:]
status, reason = STOPS[name]
run = subprocess.Popen([paraloq, *"simulate --duration 86400 --filter-substeps 32 --seed 0 --start-time 2026-08-10T12:00:00".split(), "--out", out])
time.sleep(2)
run.send_signal(getattr(signal, f"SIG{name}"))
code = run.wait(60)
lines = open(out, encoding="utf-8", newline="").read().split("\r\n")
print(f"exit {code}, {len(lines) - 1} lines, ending {lines[-2:]!r}")
if code != status or lines[-1]:
    sys.exit(f"want exit {status} and a log whose last line ends in CRLF")
rows = read_csv(out).rows
k = len(rows)
# five metadata lines and the header, the rows, and the trailer if any
if lines[6 + k :] != ([f"# aborted = tick {k}: {reason}"] if reason else []) + [""]:
    sys.exit(f"want {k} rows after the header, then {'the trailer' if reason else 'nothing'}")
same = dict(filter_substeps=32, seed=0, start_time=datetime(2026, 8, 10, 12))
if not k or rows != run_acquisition(RunConfig(duration_s=(k - 1) / 2.0, **same)).rows:
    sys.exit(f"the {k} rows are not the first rows of the same run")
