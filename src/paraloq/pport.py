"""D25 parallel port register emulation and the ADC handshake.

Register map follows the legacy PC port: data at base+0, status at base+1,
control at base+2. The port hardware inverts some lines between the
software register and the connector pins:

  * status bit S7 (BUSY) is inverted on read        -> mask 0x80
  * control bits C0, C1, C3 are inverted on write   -> mask 0x0B

``PortRegisters`` stores *wire* levels (what the device sees); the
read/write helpers translate between software bytes and wire levels, so
applying a helper twice cancels the inversion.

``SimulatedPort`` exposes three primitives in software-byte space --
read_data, read_status, write_control -- which is all the polled handshake
needs, over an ADC0808 model with its own simulated clock.

Handshake wiring is fixed, as on the logger: control bit C0
(``START_ALE_BIT``) drives START+ALE, C1 (``OUTPUT_ENABLE_BIT``) drives
OUTPUT ENABLE, status bit S3 (``EOC_BIT``) carries EOC, and the mux
address rides on control bits 4..6, latched at the ALE rising edge. The
data register reads the converter's output latch as one byte; an
undriven bus reads as the high-impedance sentinel 0xFF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from . import adc0808
from .errors import DeviceTimeoutError, InvalidInputError, require_finite, shown

CONTROL_INVERT_MASK = 0x0B  # C0, C1, C3
STATUS_INVERT_MASK = 0x80  # S7
STATUS_READ_MASK = 0xF8  # S0..S2 are not pins; they read as zero

HIGH_Z = 0xFF  # undriven data bus

ADDRESS_SHIFT = 4  # mux address on control bits 4..6

START_ALE_BIT = 0  # control bit: START+ALE pulse
OUTPUT_ENABLE_BIT = 1  # control bit: OUTPUT ENABLE level
EOC_BIT = 3  # status bit: END OF CONVERSION
EOC_MASK = 1 << EOC_BIT
_ALE_MASK = 1 << START_ALE_BIT
_OE_MASK = 1 << OUTPUT_ENABLE_BIT

POLLS_PER_CONVERSION = 16  # EOC polls spread over one conversion time
TIMEOUT_CONVERSIONS = 10  # conversion times to wait for EOC before giving up


@dataclass
class PortRegisters:
    """Wire-level state of the three port registers."""

    data: int = HIGH_Z
    status: int = 0
    control: int = 0

    def __post_init__(self):
        for name in ("data", "status", "control"):
            value = getattr(self, name)
            if type(value) is not int or not (0 <= value <= 255):
                raise InvalidInputError(f"{name} register must be a byte, got {shown(value)}")


def write_control(regs: PortRegisters, value: int) -> PortRegisters:
    """Write a software byte to the control register; wire gets it inverted."""
    if type(value) is not int or not (0 <= value <= 255):
        raise InvalidInputError(f"control value must be a byte, got {shown(value)}")
    regs.control = value ^ CONTROL_INVERT_MASK
    return regs


def read_control(regs: PortRegisters) -> int:
    """Software readback of the control register (inversion cancels)."""
    return regs.control ^ CONTROL_INVERT_MASK


def read_status(regs: PortRegisters) -> int:
    """Software view of the status register: S7 inverted, S0..S2 zero."""
    return (regs.status ^ STATUS_INVERT_MASK) & STATUS_READ_MASK


def read_data(regs: PortRegisters) -> int:
    """Software view of the data register (no inversion on data lines)."""
    return regs.data


class SimulatedPort:
    """The D25 port wired to the ADC0808 model.

    Owns the simulated clock (``now_s``): nothing here touches wall time,
    so handshake tests are deterministic. Analog channel inputs are plain
    settable levels (``set_input``); the converter samples the level at the
    ALE edge, which also gives the sample-and-hold behavior SAR conversion
    requires. The START+ALE and OUTPUT ENABLE levels are the wire bits of
    ``regs.control``; no other copy of them is kept. A ``clock_hz`` outside
    the converter's window raises ClockRangeError here, when the port is built.

    Single-owner object: not safe for concurrent mutation.
    """

    def __init__(
        self,
        adc: adc0808.AdcConfig = adc0808.AdcConfig(),
        clock_hz: float = 640e3,
        rng: Random | None = None,
    ):
        adc0808.require_clock_in_window(clock_hz)
        self.adc = adc
        self.clock_hz = clock_hz
        self.regs = PortRegisters()
        self.connected = True
        self._now = 0.0
        self._inputs = {ch: 0.0 for ch in range(8)}
        self._rng = rng or Random(0)
        self._busy_until = math.inf  # no conversion started yet: EOC stays low
        self._latched: int | None = None  # output latch: the last code

    # -- simulation controls -------------------------------------------

    def set_input(self, channel: int, volts: float) -> None:
        """Drive the analog level on one mux input."""
        if type(channel) is not int or not (0 <= channel <= 7):
            raise InvalidInputError(f"channel must be 0..7, got {shown(channel)}")
        try:
            finite = math.isfinite(volts)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            require_finite("volts", volts)
        self._inputs[channel] = volts

    def advance_to(self, t_s: float) -> None:
        """Move simulated time forward; time never runs backwards."""
        if t_s < self._now:
            raise InvalidInputError(f"time must not decrease: {t_s} < {self._now}")
        self._now = t_s

    @property
    def now_s(self) -> float:
        return self._now

    @property
    def latency_s(self) -> float:
        return adc0808.conversion_time_s(self.clock_hz, self.adc)

    # -- port primitives -----------------------------------------------

    def write_control(self, value: int) -> None:
        prev = self.regs.control
        wire = write_control(self.regs, value).control
        if wire & _ALE_MASK and not prev & _ALE_MASK:
            self._start_conversion((wire >> ADDRESS_SHIFT) & 0x07)

    def read_status(self) -> int:
        # read_status(self.regs) without the call: acquire_byte polls this 16 times per conversion
        status = EOC_MASK if self.connected and self._now >= self._busy_until else 0
        self.regs.status = status
        return (status ^ STATUS_INVERT_MASK) & STATUS_READ_MASK

    def read_data(self) -> int:
        oe = self.regs.control & _OE_MASK
        drives_bus = self.connected and oe and self._now >= self._busy_until
        self.regs.data = self._latched if drives_bus else HIGH_Z
        return read_data(self.regs)

    # -- device model ---------------------------------------------------

    def _start_conversion(self, channel: int) -> None:
        if not self.connected:
            return
        code = adc0808.sar_convert(self._inputs[channel], self.adc)
        if self.adc.noise_sigma_lsb > 0:
            code += round(self._rng.gauss(0.0, self.adc.noise_sigma_lsb))
            if code < 0:
                code = 0
            elif code > adc0808.CODE_MAX:
                code = adc0808.CODE_MAX
        self._latched = code
        self._busy_until = self._now + self.latency_s


def _software_byte_for_wire(wire: int) -> int:
    """Control byte to write so the wire shows the wanted levels."""
    return wire ^ CONTROL_INVERT_MASK


def acquire_byte(port: SimulatedPort, channel: int) -> int:
    """Run one conversion handshake and return the byte read (the code).

    Sequence: drive the channel address, pulse START+ALE (``START_ALE_BIT``),
    poll EOC (``EOC_BIT``) ``POLLS_PER_CONVERSION`` times per conversion
    time until it asserts (giving up after ``TIMEOUT_CONVERSIONS``
    conversion times), assert OUTPUT ENABLE (``OUTPUT_ENABLE_BIT``), read
    the data register, release the bus. Never returns without having seen
    EOC.
    """
    if type(channel) is not int or not (0 <= channel <= 7):
        raise InvalidInputError(f"channel must be 0..7, got {shown(channel)}")

    latency = port.latency_s
    poll_dt = latency / POLLS_PER_CONVERSION
    addr = channel << ADDRESS_SHIFT
    idle = _software_byte_for_wire(addr)
    write = port.write_control

    # Address first, then the ALE rising edge latches it and starts conversion.
    write(idle)
    t_start = port.now_s
    write(_software_byte_for_wire(addr | _ALE_MASK))
    write(idle)

    deadline = t_start + TIMEOUT_CONVERSIONS * latency
    advance = port.advance_to
    poll = port.read_status
    polls = 0
    while True:
        polls += 1
        t_poll = t_start + polls * poll_dt
        if t_poll > deadline:
            raise DeviceTimeoutError(
                f"EOC not asserted on channel {channel} within "
                f"{TIMEOUT_CONVERSIONS} conversion times ({deadline - t_start:.6g} s)"
            )
        advance(t_poll)
        if poll() & EOC_MASK:
            break

    write(_software_byte_for_wire(addr | _OE_MASK))
    code = port.read_data()
    write(idle)
    return code
