import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraloq import (
    AdcConfig,
    DeviceTimeoutError,
    InvalidInputError,
    PortRegisters,
    SimulatedPort,
    acquire_byte,
    conversion_time_s,
    quantize,
    sar_convert,
)
from paraloq.pport import (
    CONTROL_INVERT_MASK,
    EOC_BIT,
    EOC_MASK,
    HIGH_Z,
    START_ALE_BIT,
    read_control,
    read_data,
    read_status,
    write_control,
)


class TestRegisterInversion:
    def test_writing_zero_raises_inverted_lines(self):
        regs = write_control(PortRegisters(), 0x00)
        assert regs.control == 0x0B  # C0, C1, C3 sit high on the wire

    def test_writing_the_mask_drops_all_wire_lines(self):
        regs = write_control(PortRegisters(), 0x0B)
        assert regs.control & 0x0F == 0x00

    def test_write_is_idempotent(self):
        regs = PortRegisters()
        write_control(regs, 0xA5)
        first = regs.control
        write_control(regs, 0xA5)
        assert regs.control == first

    def test_control_inversion_is_an_involution(self):
        regs = PortRegisters()
        for value in range(256):
            write_control(regs, value)
            assert read_control(regs) == value

    def test_status_all_low_reads_busy_bit(self):
        regs = PortRegisters(status=0x00)
        assert read_status(regs) == 0x80  # only the inverted S7 shows

    def test_status_s7_wire_high_reads_zero(self):
        regs = PortRegisters(status=0x80)
        assert (read_status(regs) >> 7) & 1 == 0

    def test_status_eoc_wire_passes_through(self):
        regs = PortRegisters(status=0x08)
        assert (read_status(regs) >> 3) & 1 == 1

    def test_status_low_bits_masked(self):
        regs = PortRegisters(status=0x07)
        assert read_status(regs) & 0x07 == 0

    def test_data_lines_uninverted(self):
        assert read_data(PortRegisters(data=0x5A)) == 0x5A

    @pytest.mark.parametrize("value", [256, 1.5, True], ids=["256", "1.5", "True"])
    def test_register_bytes_validated(self, value):
        # a float or a bool is not a byte, in range or not
        with pytest.raises(InvalidInputError, match=f"^data register must be a byte, got {value}$"):
            PortRegisters(data=value)
        with pytest.raises(InvalidInputError, match=f"^control value must be a byte, got {value}$"):
            write_control(PortRegisters(), value)
        with pytest.raises(InvalidInputError, match=f"^control value must be a byte, got {value}$"):
            SimulatedPort().write_control(value)


class TestAcquireByte:
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

    def test_latency_is_the_converter_conversion_time(self):
        adc = AdcConfig(conversion_cycles=72)
        assert SimulatedPort(adc, clock_hz=320e3).latency_s == conversion_time_s(320e3, adc) == 72 / 320e3

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
        port = SimulatedPort()
        port.connected = False
        t0 = port.now_s
        with pytest.raises(DeviceTimeoutError):
            acquire_byte(port, 0)
        assert port.now_s - t0 <= 10 * port.latency_s

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

    def _wire(self, value):
        # acquire desired wire levels through the inverting register write
        return value ^ CONTROL_INVERT_MASK

    def test_reading_data_before_output_enable_sees_high_z(self):
        port = SimulatedPort()
        port.set_input(0, 2.5)
        port.write_control(self._wire(0x01))  # ALE rise: start conversion
        port.write_control(self._wire(0x00))  # ALE fall
        port.advance_to(port.now_s + 2 * port.latency_s)
        assert (port.read_status() >> EOC_BIT) & 1 == 1  # conversion done
        assert port.read_data() == HIGH_Z  # but nobody enabled the outputs
        port.write_control(self._wire(0x02))  # now assert OE
        assert port.read_data() == 128

    def test_data_bus_idles_high_z_before_any_conversion(self):
        port = SimulatedPort()
        port.write_control(self._wire(0x02))  # OE asserted, nothing converted
        assert port.read_data() == HIGH_Z

    def test_eoc_stays_low_until_conversion_completes(self):
        port = SimulatedPort()
        port.set_input(0, 1.0)
        port.write_control(self._wire(0x01))
        port.write_control(self._wire(0x00))
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


class TestPortPrimitives:
    """SimulatedPort's primitives agree with the module's register helpers."""

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
    def test_status_is_the_register_helper_view_of_eoc(self, steps, connected):
        port = SimulatedPort()
        port.set_input(0, 2.5)
        port.connected = connected
        ale = 1 << START_ALE_BIT  # on the wire
        started_at = None
        for control, dt in steps:
            prev_ale = port.regs.control & ale
            port.write_control(control)
            if connected and port.regs.control & ale and not prev_ale:
                started_at = port.now_s
            port.advance_to(port.now_s + dt)
            done = started_at is not None and port.now_s >= started_at + port.latency_s
            assert port.read_status() == read_status(
                PortRegisters(status=EOC_MASK if done else 0)
            )
            assert port.regs.status == (EOC_MASK if done else 0)  # the wire level it set

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
            code = sar_convert(volts, adc) + round(rng.gauss(0.0, sigma))
            assert acquire_byte(port, 2) == min(max(code, 0), 255)

    @pytest.mark.parametrize("value", [256, -1])
    def test_port_rejects_a_control_value_that_is_not_a_byte(self, value):
        port = SimulatedPort()
        with pytest.raises(InvalidInputError):
            port.write_control(value)
