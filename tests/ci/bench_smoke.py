"""python3 tests/ci/bench_smoke.py BENCHMARK_JSON SEED TRACE...: runs each declared workload for 3 s per TRACE, from
the directory of BENCHMARK_JSON, printing its output; exits 1 at the first result not correct with 0 failed."""
import json, subprocess, sys
from pathlib import Path

bench_json, seed, *traces = sys.argv[1:]
bench = json.loads(Path(bench_json).read_text(encoding="utf-8"))
for trace in traces:
    for workload in bench["workloads"]:
        args = [*bench["command"], "--workload", workload["name"], "--seed", seed, "--seconds", "3", "--trace", trace]
        out = subprocess.run(args, cwd=Path(bench_json).parent, stdout=subprocess.PIPE, text=True, check=True).stdout
        print(out, end="", flush=True)
        result = json.loads(out.splitlines()[-1])
        if not (result["correct"] is True and result["failed"] == 0):
            sys.exit(f"{' '.join(args)}: correct {result['correct']}, failed {result['failed']}")
