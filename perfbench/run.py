"""paraloq benchmark: host time per tick and per log row over three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``steady``, ``filtered_sine`` and
``postprocess``. The process runs one pass at a time in a closed loop, with
no threads: a checked warm-up, then main iterations alternating with side
passes for ``--seconds`` seconds, and reports medians over the passes.
Every pass's outputs are checked; a mismatch or an exception counts as one
failed operation.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` prints the per-layer metrics instead: spans recorded from this
directory around the calls into each paraloq module (``layers.py``), exact
simulated counts from a separate counting pass, and the tracing overhead
measured against untraced iterations interleaved with the traced ones.

All timings are host time, scaled to a reference speed (see timed_loop).
The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``. Progress and the span table go to
standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("steady", "filtered_sine", "postprocess")
SETUP_SAMPLES = 9  # fresh processes per run; setup_s is their median
MIN_ROUNDS = 3
REFERENCE_S = 2.5e-3  # reported times are scaled to a machine where reference_loop takes this long

# A fresh interpreter imports paraloq and builds the workload's config and port.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import paraloq, workloads; "
    "paraloq.build_port(workloads.CONFIGS[sys.argv[3]](int(sys.argv[4])))"
)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def reference_loop() -> float:
    """Fixed interpreter work that does not touch paraloq: calls, float
    arithmetic, formatting and small allocations, like the simulator's own."""
    acc = 0.0
    texts = []
    for i in range(3000):
        x = i * 0.37
        acc += (x * 1.5 - acc) * 0.01
        texts.append(f"{x:.6f}")
        pair = {"code": i, "volts": x}
        acc += pair["volts"] * 1e-9
    return acc


def reference_times(runs: int = 3) -> list:
    """Seconds each of ``runs`` back-to-back runs of reference_loop takes."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


class Tally:
    """Attempted and failed operations; an operation is a checked pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, fn):
        """Run ``fn() -> (stages, problems)``; return stages, or None if it failed."""
        self.attempted += 1
        try:
            stages, problems = fn()
        except Exception:
            self.failed += 1
            log(f"{label} raised:")
            traceback.print_exc()
            return None
        if problems:
            self.failed += 1
            for problem in problems:
                log(f"{label}: {problem}")
            return None
        return stages


def make_workload(name: str, seed: int, workdir: Path, golden: dict):
    import workloads

    if name == "postprocess":
        return workloads.PostprocessWorkload(seed, workdir, golden)
    return workloads.AcquireWorkload(workloads.CONFIGS[name](seed), workdir / "run.csv", golden)


def timed_loop(tally: Tally, passes, seconds: float = 0.0, rounds: int = MIN_ROUNDS):
    """Cycle through ``passes`` [(label, fn)] for ``rounds`` rounds and at least ``seconds``.

    reference_loop runs three times after every pass, and each pass's stage
    times are scaled by REFERENCE_S over the mean of the median reference
    times just before and just after it. A shared VM's speed can drift by up
    to 2x, in spells from a fraction of a second to tens of seconds; scaled
    passes of about 0.1 s repeat from run to run to a few percent, raw ones
    to 10-25 %. Returns one list of scaled stage dicts per pass, failed
    passes left out.
    """
    results = [[] for _ in passes]
    before = median(reference_times())
    deadline = time.perf_counter() + seconds
    done = 0
    while done < rounds or time.perf_counter() < deadline:
        done += 1
        for (label, fn), out in zip(passes, results):
            gc.collect()
            stages = tally.attempt(label, fn)
            after = median(reference_times())
            if stages is not None:
                scale = REFERENCE_S / ((before + after) / 2)
                out.append({key: value * scale for key, value in stages.items()})
            before = after
    return results


def stage_median(samples, key: str):
    return median(s[key] for s in samples)


def setup_pass(name: str, seed: int):
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), name, str(seed)]
    t0 = time.perf_counter()
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms, which shows in the figure
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return {"setup": time.perf_counter() - t0}, []


def end_to_end(name: str, seed: int, seconds: float, workdir: Path, golden: dict, tally: Tally) -> dict:
    """Untraced run: every end-to-end metric of one workload."""
    tally.attempt("setup warm-up", lambda: setup_pass(name, seed))  # compiles the bytecode
    (setups,) = timed_loop(tally, [("setup", lambda: setup_pass(name, seed))], rounds=SETUP_SAMPLES)

    wl = make_workload(name, seed, workdir, golden)
    if tally.attempt("prepare", wl.prepare) is None:
        return {}
    samples, side = timed_loop(tally, [("iteration", wl.iterate), ("side pass", wl.side_pass)], seconds)
    log(f"{name}: {len(samples)} timed iterations and {len(side)} side passes")

    def allocation_pass():
        tracemalloc.start()
        try:
            wl.timed()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"peak": peak}, wl.check()

    gc.collect()
    alloc = tally.attempt("allocation pass", allocation_pass)

    metrics = {}
    if setups:
        metrics["setup_s"] = stage_median(setups, "setup")
    timed = samples + side
    for metric, key, per, unit in (
        ("tick_us", "acquire", wl.ticks, 1e6),
        ("log_write_us_per_row", "write", wl.rows, 1e6),
        ("log_read_us_per_row", "read", wl.rows, 1e6),
        ("chart_ms", "chart", 1, 1e3),
        ("run_s", "total", 1, 1),
    ):
        values = [s[key] for s in timed if key in s]
        if values:
            metrics[metric] = median(values) / per * unit
    if alloc is not None:
        metrics["peak_alloc_mib"] = alloc["peak"] / 2**20
    return metrics


def per_layer(name: str, seed: int, seconds: float, workdir: Path, golden: dict, tally: Tally) -> dict:
    """Traced run: every per-layer metric of one workload, plus the tracing overhead."""
    import layers
    import workloads
    from spans import Counter, Tracer, patched

    wl = make_workload(name, seed, workdir, golden)
    tracer = Tracer()
    tracer.calibrate()
    log(f"span bias: {tracer.bias_ns[0]:.0f} ns inside, {tracer.bias_ns[1]:.0f} ns outside each span")
    spans_on = layers.span_replacements(tracer)
    table: dict = {}  # every span folded, for the table on stderr

    def fold():
        agg = tracer.fold()
        for span_name, values in agg.items():
            table[span_name] = tuple(a + b for a, b in zip(table.get(span_name, (0, 0, 0)), values))
        return agg

    def traced(fn):
        """fn under spans. Its stages gain the per-layer times (names with a
        dot), so that timed_loop scales them with the stage times."""

        def run():
            with patched(spans_on):
                stages, problems = fn()
            return {**stages, **layers.span_metrics(fold(), wl.ticks, wl.rows)}, problems

        return run

    counts = {}

    def counted(fn, acquired, written_path):
        def run():
            counter = Counter()
            with patched(layers.count_replacements(counter)):
                stages, problems = fn()
            counts.update(layers.count_metrics(counter.counts, acquired, written_path, wl.rows))
            return stages, problems

        return run

    if name == "postprocess":
        tally.attempt("counted prepare", counted(wl.prepare, wl.source, wl.source.path))
        tally.attempt("counted iteration", counted(wl.iterate, None, wl.out))
        acquired_run = wl.source.run
    else:
        tally.attempt("prepare", wl.prepare)
        tally.attempt("counted iteration", counted(wl.iterate, wl, wl.path))
        acquired_run = wl.run
    counts["plotting.points"] = len(workloads.plot_series(acquired_run)[1])

    plain, traced_main, side, traced_side = timed_loop(
        tally,
        [
            ("iteration", wl.iterate),
            ("traced iteration", traced(wl.iterate)),
            ("side pass", wl.side_pass),
            ("traced side pass", traced(wl.side_pass)),
        ],
        seconds,
    )
    log(f"{name}: {len(plain)} untraced and {len(traced_main)} traced iterations")

    metrics = {}
    for samples in (traced_main, traced_side):  # the main loop's figure wins where both have one
        for key in {k for s in samples for k in s if "." in k}:
            metrics.setdefault(key, median(s[key] for s in samples if key in s))
    metrics.update(counts)

    untraced = plain + side
    traced_all = traced_main + traced_side
    if any("acquire" in s for s in untraced) and any("acquire" in s for s in traced_all):
        untraced_s = median(s["acquire"] for s in untraced if "acquire" in s)
        traced_s = median(s["acquire"] for s in traced_all if "acquire" in s)
        metrics["trace.overhead_us_per_tick"] = (traced_s - untraced_s) / wl.ticks * 1e6
    if plain and traced_main:
        metrics["trace.overhead_ratio"] = stage_median(traced_main, "total") / stage_median(plain, "total") - 1

    def check_counts():
        if "counts" not in golden:
            return {}, []
        expected = golden["counts"]
        return {}, [
            f"{key} = {metrics.get(key)!r}, golden.json has {expected.get(key)!r}"
            for key in layers.EXACT_COUNTS
            if metrics.get(key) != expected.get(key)
        ]

    tally.attempt("simulated counts", check_counts)

    log("span table (host ms over all traced passes, unscaled):")
    log(f"{'span':32} {'calls':>10} {'total_ms':>12} {'self_ms':>12}")
    for span_name, (calls, total_ns, self_ns) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        log(f"{span_name:32} {calls:10d} {total_ns / 1e6:12.3f} {self_ns / 1e6:12.3f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "paraloq" / "__init__.py").is_file() or not spec_path.is_file():
        log(f"{SRC / 'paraloq'} or {spec_path} is missing; run from a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import paraloq

    if Path(paraloq.__file__).resolve().parent != SRC / "paraloq":
        log(f"imported paraloq from {paraloq.__file__}, not from {SRC}")
        return 2
    import workloads

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    golden = {}
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    log(f"{args.workload} seed={args.seed} trace={args.trace} on {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}")

    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args.workload, args.seed, args.seconds, workdir, golden, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
