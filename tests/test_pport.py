import math
import sys
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraloq import (
    AdcConfig,
    DeviceTimeoutError,
    InvalidInputError,
    SimulatedPort,
    acquire_byte,
    conversion_time_s,
    quantize,
    sar_convert,
)
from paraloq.adc0808 import CONVERSION_CYCLES
from paraloq.pport import EOC_BIT, EOC_MASK, HIGH_Z, START_ALE_BIT


# The port's register rules with literal masks, the oracle its primitives are
# checked against: C0, C1 and C3 are inverted between a control byte and its
# wire level, both ways; S7 is inverted on read, and S0..S2 are not pins.
def flip_control(byte):
    return byte ^ 0x0B


def status_read(wire):
    return (wire ^ 0x80) & 0xF8


class TestRegisterInversion:
    """The inversions as a program sees them through SimulatedPort's
    primitives: C0 drives START+ALE, C1 OUTPUT ENABLE, C4..C6 the address."""

    def test_writing_zero_raises_inverted_lines(self):
        port = SimulatedPort()
        port.set_input(0, 2.5)
        port.write_control(0x00)  # C0 and C1 sit high on the wire: a conversion starts, OE is on
        port.advance_to(port.latency_s)
        assert port.read_data() == 128

    def test_writing_the_mask_drops_all_wire_lines(self):
        port = SimulatedPort()
        port.set_input(0, 2.5)
        port.write_control(0x00)
        port.advance_to(port.latency_s)
        port.write_control(0x0B)  # OE drops: the converter lets go of the bus
        assert port.read_data() == HIGH_Z
        port.write_control(0x00)  # ALE was low, so this is a new rising edge
        assert (port.read_status() >> EOC_BIT) & 1 == 0

    def test_write_is_idempotent(self):
        port = SimulatedPort()
        port.set_input(0, 1.0)
        port.write_control(0x00)
        port.set_input(0, 4.0)
        port.advance_to(port.latency_s / 2)
        port.write_control(0x00)  # ALE already high: no edge, no new conversion
        port.advance_to(port.latency_s)
        assert (port.read_status() >> EOC_BIT) & 1 == 1
        assert port.read_data() == quantize(1.0)

    def test_control_inversion_is_an_involution(self):
        # writing flip_control(wire) puts that wire level on the port, for every byte
        for wire in range(256):
            port = SimulatedPort()
            for ch in range(8):
                port.set_input(ch, 0.3 + 0.6 * ch)
            port.write_control(flip_control(wire))
            port.advance_to(port.latency_s)
            started = wire & 0x01
            assert (port.read_status() >> EOC_BIT) & 1 == started
            if started and wire & 0x02:
                assert port.read_data() == quantize(0.3 + 0.6 * ((wire >> 4) & 0x07))
            else:
                assert port.read_data() == HIGH_Z

    def test_status_all_low_reads_busy_bit(self):
        assert SimulatedPort().read_status() == 0x80  # only the inverted S7 shows

    def test_status_eoc_wire_passes_through(self):
        port = SimulatedPort()
        port.write_control(flip_control(0x01))
        port.advance_to(port.latency_s)
        assert port.read_status() == 0x88  # EOC high on the wire reads high

    def test_status_low_bits_masked(self):
        port = SimulatedPort()
        assert port.read_status() & 0x07 == 0
        port.write_control(flip_control(0x01))
        port.advance_to(port.latency_s)
        assert port.read_status() & 0x07 == 0

    def test_data_lines_uninverted(self):
        port = SimulatedPort()
        port.set_input(0, 90.5 * 5.0 / 256)  # the middle of code 0x5A
        port.write_control(flip_control(0x03))
        port.advance_to(port.latency_s)
        assert port.read_data() == 0x5A

    def test_status_reads_one_of_two_bytes(self):
        port = SimulatedPort()
        assert port.read_status() == status_read(0x00) == 0x80  # no conversion started yet
        port.write_control(0x00)
        assert port.read_status() == status_read(0x00)  # converting
        port.advance_to(port.latency_s)
        assert port.read_status() == status_read(0x08) == 0x88  # EOC high on S3
        port.connected = False
        assert port.read_status() == status_read(0x00)

    @pytest.mark.parametrize("value", [256, 1.5, True], ids=["256", "1.5", "True"])
    def test_register_bytes_validated(self, value):
        # a float or a bool is not a byte, in range or not
        with pytest.raises(InvalidInputError, match=f"^control value must be a byte, got {value}$"):
            SimulatedPort().write_control(value)


@contextmanager
def counted_port_calls(*names):
    """Count the calls of the named SimulatedPort methods, wrapped on the class
    as the benchmark wraps them; yields the live name -> count dict."""
    counts = dict.fromkeys(names, 0)
    originals = {name: SimulatedPort.__dict__[name] for name in names}

    def counting(name, method):
        def wrapper(self, *args):
            counts[name] += 1
            return method(self, *args)

        return wrapper

    for name, method in originals.items():
        setattr(SimulatedPort, name, counting(name, method))
    try:
        yield counts
    finally:
        for name, method in originals.items():
            setattr(SimulatedPort, name, method)


class TestAcquireByte:
    @settings(max_examples=100, deadline=None)
    @given(
        t0=st.floats(min_value=0.0, max_value=1e6),
        channel=st.integers(min_value=0, max_value=7),
        volts=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_one_handshake_is_16_polls_5_writes_1_read_and_one_latency(self, t0, channel, volts):
        port = SimulatedPort()
        port.set_input(channel, volts)
        port.advance_to(t0)
        with counted_port_calls("read_status", "write_control", "read_data") as counts:
            code = acquire_byte(port, channel)
        assert code == quantize(volts)
        assert counts == {"read_status": 16, "write_control": 5, "read_data": 1}
        # the clock stands at the 16th poll, t0 + polls * poll_dt to the bit
        assert port.now_s == t0 + 16 * (port.latency_s / 16)

    def test_conversion_through_the_full_handshake(self):
        port = SimulatedPort()
        port.set_input(0, 2.5)
        assert acquire_byte(port, 0) == 128
        assert port.now_s >= 100e-6  # simulated, not wall, time

    def test_observed_latency_within_poll_granularity(self):
        port = SimulatedPort()
        port.set_input(0, 1.0)
        t0 = port.now_s
        acquire_byte(port, 0)
        observed = port.now_s - t0
        assert port.latency_s <= observed < 2 * port.latency_s

    @settings(max_examples=100, deadline=None)
    @given(clock=st.floats(min_value=10e3, max_value=1280e3))
    @example(clock=320e3)
    def test_latency_is_the_converter_conversion_time(self, clock):
        assert SimulatedPort(clock_hz=clock).latency_s == conversion_time_s(clock) == CONVERSION_CYCLES / clock

    @pytest.mark.parametrize("name", ["latency_s"])
    def test_the_converter_and_its_clock_are_fixed_when_the_port_is_built(self, name):
        port = SimulatedPort()
        with pytest.raises(AttributeError):
            setattr(port, name, getattr(port, name))

    def test_repeated_acquisitions_are_identical(self):
        port = SimulatedPort()
        port.set_input(2, 3.3)
        first = acquire_byte(port, 2)
        second = acquire_byte(port, 2)
        assert first == second

    def test_every_mux_input_is_addressable(self):
        port = SimulatedPort()
        volts = [0.1 * (ch + 1) * 5.0 for ch in range(8)]
        for ch, v in enumerate(volts):
            port.set_input(ch, min(v, 5.0))
        for ch, v in enumerate(volts):
            assert acquire_byte(port, ch) == quantize(min(v, 5.0))

    def test_disconnected_device_times_out(self):
        port = SimulatedPort()
        port.connected = False
        with pytest.raises(DeviceTimeoutError):
            acquire_byte(port, 0)

    def test_timeout_budget_is_ten_conversions(self):
        for t0 in (0.0, 0.3, 1234.5):
            port = SimulatedPort(clock_hz=640e3)
            port.connected = False
            port.advance_to(t0)
            with counted_port_calls("read_status", "write_control", "read_data") as counts:
                with pytest.raises(DeviceTimeoutError) as err:
                    acquire_byte(port, 0)
            assert str(err.value) == "EOC not asserted on channel 0 within 10 conversion times (0.001 s)"
            # the address and the START+ALE pulse, then 160 polls: no OUTPUT ENABLE, no data read
            assert counts == {"read_status": 160, "write_control": 3, "read_data": 0}
            # the clock stands at the 160th poll, t0 + polls * poll_dt to the bit
            assert port.now_s == t0 + 160.0 * (port.latency_s / 16)

    def test_a_clock_too_far_out_for_a_poll_step_to_move_still_times_out(self, monkeypatch):
        # at 1e20 s one poll step (6.25 us) leaves the clock where it is, so a
        # deadline on the clock is never passed; the timeout counts polls instead
        port = SimulatedPort()
        port.advance_to(1e20)
        port.connected = False
        read_status = SimulatedPort.read_status
        calls = 0

        def read_status_at_most_1000_times(self):
            nonlocal calls
            calls += 1
            if calls > 1000:
                raise AssertionError("1,000 status reads and no timeout")
            return read_status(self)

        monkeypatch.setattr(SimulatedPort, "read_status", read_status_at_most_1000_times)
        with pytest.raises(DeviceTimeoutError, match="^EOC not asserted on channel 0 within 10 conversion times"):
            acquire_byte(port, 0)
        assert calls == 160
        assert port.now_s == 1e20

    @pytest.mark.parametrize("channel", [8, 1.5, True], ids=["8", "1.5", "True"])
    def test_bad_channel_rejected(self, channel):
        # a float or a bool is not a mux address, in range or not
        with pytest.raises(InvalidInputError, match=f"^channel must be 0..7, got {channel}$"):
            acquire_byte(SimulatedPort(), channel)
        with pytest.raises(InvalidInputError, match=f"^channel must be 0..7, got {channel}$"):
            SimulatedPort().set_input(channel, 2.0)

    def test_out_of_window_clock_propagates(self):
        from paraloq import ClockRangeError

        # refused when the port is built, not inside its first handshake
        with pytest.raises(ClockRangeError, match="clock 5000 Hz outside"):
            SimulatedPort(clock_hz=5e3)

    def test_noise_is_seeded_and_reproducible(self):
        from random import Random

        def run(seed):
            port = SimulatedPort(adc=AdcConfig(noise_sigma_lsb=2.0), rng=Random(seed))
            port.set_input(0, 2.5)
            return [acquire_byte(port, 0) for _ in range(20)]

        assert run(1) == run(1)
        assert run(1) != run(2)
        assert all(abs(code - 128) <= 10 for code in run(1))


class TestHandshakeOrder:
    """Driving the wires by hand, outside acquire_byte's choreography."""

    def test_reading_data_before_output_enable_sees_high_z(self):
        port = SimulatedPort()
        port.set_input(0, 2.5)
        port.write_control(flip_control(0x01))  # ALE rise: start conversion
        port.write_control(flip_control(0x00))  # ALE fall
        port.advance_to(port.now_s + 2 * port.latency_s)
        assert (port.read_status() >> EOC_BIT) & 1 == 1  # conversion done
        assert port.read_data() == HIGH_Z  # but nobody enabled the outputs
        port.write_control(flip_control(0x02))  # now assert OE
        assert port.read_data() == 128

    def test_data_bus_idles_high_z_before_any_conversion(self):
        port = SimulatedPort()
        port.write_control(flip_control(0x02))  # OE asserted, nothing converted
        assert port.read_data() == HIGH_Z

    def test_eoc_stays_low_until_conversion_completes(self):
        port = SimulatedPort()
        port.set_input(0, 1.0)
        port.write_control(flip_control(0x01))
        port.write_control(flip_control(0x00))
        assert (port.read_status() >> EOC_BIT) & 1 == 0
        port.advance_to(port.now_s + port.latency_s / 2)
        assert (port.read_status() >> EOC_BIT) & 1 == 0
        port.advance_to(port.now_s + port.latency_s)
        assert (port.read_status() >> EOC_BIT) & 1 == 1

    def test_time_never_runs_backwards(self):
        port = SimulatedPort()
        port.advance_to(1.0)
        with pytest.raises(InvalidInputError):
            port.advance_to(0.5)

    @pytest.mark.parametrize(
        "t_s, shown",
        [
            (math.nan, "nan"),
            (math.inf, "inf"),
            (10**400, str(10**400)),
            (-(10**5000), "a negative int of 5001 digits"),
        ],
        ids=["nan", "inf", "10**400", "-10**5000"],
    )
    def test_a_nan_time_is_rejected(self, t_s, shown):
        # a clock at nan left acquire_byte polling forever, one at 10**400 made it
        # raise a bare OverflowError, and -10**5000 failed to format its message
        port = SimulatedPort()
        with pytest.raises(InvalidInputError) as err:
            port.advance_to(t_s)
        assert str(err.value) == f"time must be >= now_s (0.0) and finite, got {shown}"
        assert acquire_byte(port, 0) == 0

    def test_the_largest_float_time_is_accepted(self):
        port = SimulatedPort()
        port.advance_to(sys.float_info.max)
        assert port.now_s == sys.float_info.max


class TestPortPrimitives:
    """SimulatedPort's primitives agree with the literal-mask oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.floats(min_value=0.0, max_value=300e-6, allow_nan=False),
            ),
            max_size=12,
        ),
        connected=st.booleans(),
    )
    def test_status_is_the_oracle_view_of_eoc(self, steps, connected):
        port = SimulatedPort()
        port.set_input(0, 2.5)
        port.connected = connected
        ale = 1 << START_ALE_BIT  # on the wire
        wire = 0  # the control wire level, tracked here: a new port drives every line low
        started_at = None
        for control, dt in steps:
            prev, wire = wire, flip_control(control)
            port.write_control(control)
            if connected and wire & ale and not prev & ale:
                started_at = port.now_s
            port.advance_to(port.now_s + dt)
            eoc = EOC_MASK if started_at is not None and port.now_s >= started_at + port.latency_s else 0
            status = port.read_status()
            assert status == status_read(eoc)
            assert status & EOC_MASK == eoc  # EOC reads as it sits on the wire

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sigma=st.floats(min_value=0.1, max_value=300.0),
        levels=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=5.0),
                st.sampled_from([0.0, -0.0, 0.01, 4.99, 5.0]),  # codes at or next to a rail
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_noisy_code_is_the_min_max_clamp_of_code_plus_noise(self, seed, sigma, levels):
        from random import Random

        adc = AdcConfig(noise_sigma_lsb=sigma)
        port = SimulatedPort(adc=adc, rng=Random(seed))
        rng = Random(seed)
        for volts in levels:
            port.set_input(2, volts)
            code = sar_convert(volts) + round(rng.gauss(0.0, sigma))
            assert acquire_byte(port, 2) == min(max(code, 0), 255)

    @pytest.mark.parametrize("value", [256, -1])
    def test_port_rejects_a_control_value_that_is_not_a_byte(self, value):
        with pytest.raises(InvalidInputError, match=f"^control value must be a byte, got {value}$"):
            SimulatedPort().write_control(value)
