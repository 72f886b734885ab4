"""Where each paraloq layer is wrapped, and how its per-layer metrics are derived.

Span targets are the names callers look up: ``acquisition`` imports
``acquire_byte``, ``chain_voltage``, ``lowpass_step``, ``decode_temp`` and
``decode_volts`` into its own namespace, ``pport`` calls
``adc0808.sar_convert``, and ``acquisition`` and ``read_csv`` build rows
through ``logstore.PsychroRow``. Stimulus ``temp_at`` is a method, so it is
wrapped on the stimulus classes.
"""

from __future__ import annotations

from paraloq import acquisition, adc0808, logstore, plotting, pport, psychro

from spans import Counter, Tracer

SPAN_TARGETS = (
    (acquisition, "run_acquisition", "acquisition.run_acquisition"),
    (acquisition.Constant, "temp_at", "acquisition.stimulus"),
    (acquisition.Sine, "temp_at", "acquisition.stimulus"),
    (acquisition, "chain_voltage", "signal_chain.chain_voltage"),
    (acquisition, "lowpass_step", "signal_chain.lowpass_step"),
    (acquisition, "acquire_byte", "pport.acquire_byte"),
    (adc0808, "sar_convert", "adc0808.sar_convert"),
    (acquisition, "decode_temp", "adc0808.decode_temp"),
    (acquisition, "decode_volts", "adc0808.decode_volts"),
    (psychro, "reading", "psychro.reading"),
    (logstore, "PsychroRow", "logstore.PsychroRow"),
    (logstore, "write_csv", "logstore.write_csv"),
    (logstore, "read_csv", "logstore.read_csv"),
    (plotting, "ascii_chart", "plotting.ascii_chart"),
    (plotting, "svg_chart", "plotting.svg_chart"),
)

COUNT_TARGETS = (
    (pport.SimulatedPort, "write_control", "control_writes"),
    (pport.SimulatedPort, "read_status", "status_polls"),
    (pport.SimulatedPort, "read_data", "data_reads"),
    (pport.SimulatedPort, "advance_to", "clock_advances"),
    (acquisition, "acquire_byte", "acquire_byte"),
    (adc0808, "sar_convert", "conversions"),
    (acquisition, "chain_voltage", "chain_voltage"),
    (acquisition, "lowpass_step", "lowpass_step"),
)

# Simulated counts: for a fixed seed they repeat exactly, run after run.
EXACT_COUNTS = (
    "pport.polls_per_conversion",
    "pport.poll_hit_ratio",
    "pport.control_writes_per_conversion",
    "pport.timeouts",
    "pport.sim_s",
    "adc0808.conversions",
    "adc0808.rail_codes",
    "psychro.computed_ratio",
    "signal_chain.calls_per_tick",
    "logstore.bytes_written",
    "logstore.flushes_per_row",
    "plotting.points",
)


def span_replacements(tracer: Tracer):
    return [(owner, attr, tracer.wrap(name, owner.__dict__[attr])) for owner, attr, name in SPAN_TARGETS]


def count_replacements(counter: Counter):
    wrapped = [(owner, attr, counter.wrap(name, owner.__dict__[attr])) for owner, attr, name in COUNT_TARGETS]
    return wrapped + [(logstore, "open", counter.counting_open())]


def span_metrics(agg: dict, ticks: int, rows: int) -> dict:
    """Per-layer host times (every value a time) from one pass's folded spans.

    ``ticks`` is how many ticks each run_acquisition call of the pass made,
    ``rows`` how many rows each write_csv / read_csv call handled.
    """

    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def total_us(name):
        return agg.get(name, (0, 0, 0))[1] / 1e3

    def self_us(name):
        return agg.get(name, (0, 0, 0))[2] / 1e3

    m = {}
    if ticks and calls("acquisition.run_acquisition"):
        chain = ("signal_chain.chain_voltage", "signal_chain.lowpass_step")
        m["signal_chain.self_us_per_tick"] = sum(self_us(n) for n in chain) / ticks
        m["acquisition.self_us_per_tick"] = self_us("acquisition.run_acquisition") / ticks
        m["acquisition.stimulus_us_per_tick"] = total_us("acquisition.stimulus") / ticks
        m["pport.acquire_us"] = self_us("pport.acquire_byte") / calls("pport.acquire_byte")
        m["adc0808.sar_us"] = self_us("adc0808.sar_convert") / calls("adc0808.sar_convert")
        decodes = ("adc0808.decode_temp", "adc0808.decode_volts")
        m["adc0808.decode_us"] = sum(total_us(n) for n in decodes) / calls("adc0808.decode_temp")
        m["psychro.reading_us"] = total_us("psychro.reading") / calls("psychro.reading")
    if calls("logstore.PsychroRow"):
        m["logstore.row_build_us"] = total_us("logstore.PsychroRow") / calls("logstore.PsychroRow")
    if calls("logstore.write_csv"):
        m["logstore.write_self_us_per_row"] = self_us("logstore.write_csv") / (rows * calls("logstore.write_csv"))
    if calls("logstore.read_csv"):
        m["logstore.read_self_us_per_row"] = self_us("logstore.read_csv") / (rows * calls("logstore.read_csv"))
    if calls("plotting.ascii_chart"):
        m["plotting.ascii_ms"] = total_us("plotting.ascii_chart") / 1e3 / calls("plotting.ascii_chart")
        m["plotting.svg_ms"] = total_us("plotting.svg_chart") / 1e3 / calls("plotting.svg_chart")
    return m


def count_metrics(counts: dict, acquired, written_path, rows: int) -> dict:
    """Per-layer counts from one counted pass.

    ``acquired`` is the AcquireWorkload the pass ran (its port and run), or
    None if it acquired nothing; ``written_path`` the log the pass wrote,
    with ``rows`` rows.
    """
    m = {}
    conversions = counts.get("conversions", 0)
    if acquired is not None and conversions:
        polls = counts["status_polls"]
        run_rows = acquired.run.rows
        m["signal_chain.calls_per_tick"] = (counts["chain_voltage"] + counts["lowpass_step"]) / len(run_rows)
        m["pport.polls_per_conversion"] = polls / conversions
        m["pport.poll_hit_ratio"] = conversions / polls
        m["pport.control_writes_per_conversion"] = counts["control_writes"] / conversions
        m["pport.timeouts"] = counts["acquire_byte.raised"]
        m["pport.sim_s"] = acquired.port.now_s
        m["adc0808.conversions"] = conversions
        m["adc0808.rail_codes"] = sum(
            code in (0, adc0808.CODE_MAX) for row in run_rows for code in (row.dry_code, row.wet_code)
        )
        m["psychro.computed_ratio"] = sum(row.rh_pct is not None for row in run_rows) / len(run_rows)
    m["logstore.bytes_written"] = written_path.stat().st_size
    m["logstore.flushes_per_row"] = counts["flush"] / rows
    return m
