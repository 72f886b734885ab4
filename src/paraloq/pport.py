"""D25 parallel port register emulation and the ADC handshake.

Register map follows the legacy PC port: data at base+0, status at base+1,
control at base+2. The port hardware inverts some lines between the
software register and the connector pins:

  * status bit S7 (BUSY) is inverted on read        -> mask 0x80
  * control bits C0, C1, C3 are inverted on write   -> mask 0x0B

``SimulatedPort`` exposes three primitives in software-byte space --
read_data, read_status, write_control -- which is all the polled handshake
needs, over an ADC0808 model with its own simulated clock. Each applies the
inversion of its register itself; the port keeps the control wire level and
derives the status and data bytes when they are read.

Handshake wiring is fixed, as on the logger: control bit C0
(``START_ALE_BIT``) drives START+ALE, C1 (``OUTPUT_ENABLE_BIT``) drives
OUTPUT ENABLE, status bit S3 (``EOC_BIT``) carries EOC, and the mux
address rides on control bits 4..6, latched at the ALE rising edge. The
data register reads the converter's output latch as one byte; an
undriven bus reads as the high-impedance sentinel 0xFF.
"""

from __future__ import annotations

import math
from random import Random

from . import adc0808
from .errors import FLOAT_MAX, DeviceTimeoutError, InvalidInputError, require_finite, shown

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
# the two bytes a status read can give: EOC high (0x88) or low (0x80)
_STATUS_EOC_HIGH = (EOC_MASK ^ STATUS_INVERT_MASK) & STATUS_READ_MASK
_STATUS_EOC_LOW = STATUS_INVERT_MASK & STATUS_READ_MASK

POLLS_PER_CONVERSION = 16  # EOC polls spread over one conversion time
TIMEOUT_CONVERSIONS = 10  # conversion times to wait for EOC before giving up
# The poll indices 1.0 .. 160.0 acquire_byte walks, as floats: float(k) * poll_dt
# is k * poll_dt to the bit, and float * float skips an int-to-float conversion.
# The last poll stands on t_start + 10 * latency, since poll_dt = latency / 16 is exact.
_POLL_INDICES = tuple(float(k) for k in range(1, TIMEOUT_CONVERSIONS * POLLS_PER_CONVERSION + 1))


class SimulatedPort:
    """The D25 port wired to the ADC0808 model.

    Owns the simulated clock (``now_s``): nothing here touches wall time,
    so handshake tests are deterministic. Analog channel inputs are plain
    settable levels (``set_input``); the converter samples the level at the
    ALE edge, which also gives the sample-and-hold behavior SAR conversion
    requires. The START+ALE and OUTPUT ENABLE levels are bits of the control
    wire level, the one register state the port keeps. ``clock_hz`` may be
    any clock the converter is rated for; one outside its 10..1280 kHz window
    raises ClockRangeError here, when the port is built. The default is the
    logger's RC clock, ``adc0808.CLOCK_HZ``. The conversion time and the noise
    level are worked out once, here, and fixed for the port's life.

    A data read with OUTPUT ENABLE on before EOC rises reads HIGH_Z (0xFF),
    the same byte as code 255: only EOC tells the two apart. A second
    START+ALE edge during a conversion restarts it: the input is sampled
    again, the old conversion's code is dropped, and EOC rises one
    conversion time after the new edge.

    Single-owner object: not safe for concurrent mutation.
    """

    def __init__(
        self,
        adc: adc0808.AdcConfig = adc0808.AdcConfig(),
        clock_hz: float = adc0808.CLOCK_HZ,
        rng: Random | None = None,
    ):
        adc0808.require_clock_in_window(clock_hz)
        self._latency = adc0808.conversion_time_s(clock_hz)
        self._noise_sigma = adc.noise_sigma_lsb
        self._control = 0  # control wire level: all lines low
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
        if not -FLOAT_MAX <= volts <= FLOAT_MAX:
            require_finite("volts", volts)
        self._inputs[channel] = volts

    def advance_to(self, t_s: float) -> None:
        """Move simulated time forward to a finite time; it never runs backwards."""
        if not self._now <= t_s <= FLOAT_MAX:  # false for nan, inf and an int beyond the float range
            raise InvalidInputError(
                f"time must be >= now_s ({self._now}) and finite, got {shown(t_s)}"
            )
        self._now = t_s

    @property
    def now_s(self) -> float:
        return self._now

    @property
    def latency_s(self) -> float:
        return self._latency

    # -- port primitives -----------------------------------------------

    def write_control(self, value: int) -> None:
        if type(value) is not int or not (0 <= value <= 255):
            raise InvalidInputError(f"control value must be a byte, got {shown(value)}")
        prev = self._control
        self._control = wire = value ^ CONTROL_INVERT_MASK
        if wire & _ALE_MASK and not prev & _ALE_MASK:
            self._start_conversion((wire >> ADDRESS_SHIFT) & 0x07)

    def read_status(self) -> int:
        return _STATUS_EOC_HIGH if self.connected and self._now >= self._busy_until else _STATUS_EOC_LOW

    def read_data(self) -> int:
        drives_bus = self.connected and self._control & _OE_MASK and self._now >= self._busy_until
        return self._latched if drives_bus else HIGH_Z  # the data lines are not inverted

    # -- device model ---------------------------------------------------

    def _start_conversion(self, channel: int) -> None:
        if not self.connected:
            # no conversion starts, and the last one's EOC and latch stay off the
            # bus: reconnected, the port times out, not hands back the old code
            self._busy_until = math.inf
            return
        code = adc0808.sar_convert(self._inputs[channel])
        sigma = self._noise_sigma
        if sigma > 0:
            code += round(self._rng.gauss(0.0, sigma))
            if code < 0:
                code = 0
            elif code > adc0808.CODE_MAX:
                code = adc0808.CODE_MAX
        self._latched = code
        self._busy_until = self._now + self._latency


def acquire_byte(port: SimulatedPort, channel: int) -> int:
    """Run one conversion handshake and return the byte read (the code).

    Sequence: drive the channel address, pulse START+ALE (``START_ALE_BIT``),
    poll EOC (``EOC_BIT``) ``POLLS_PER_CONVERSION`` times per conversion
    time until it asserts, assert OUTPUT ENABLE (``OUTPUT_ENABLE_BIT``),
    read the data register, release the bus. Never returns without having
    seen EOC. The timeout is a count of polls, not a clock reading: after
    ``TIMEOUT_CONVERSIONS * POLLS_PER_CONVERSION`` (160) polls without EOC
    it raises DeviceTimeoutError, whatever the clock reads, so a clock too
    far out for one poll step to move it still gives up.
    """
    if type(channel) is not int or not (0 <= channel <= 7):
        raise InvalidInputError(f"channel must be 0..7, got {shown(channel)}")

    latency = port._latency
    poll_dt = latency / POLLS_PER_CONVERSION
    # the software bytes that put the address alone, with START+ALE, and with OE on the wire
    idle = (channel << ADDRESS_SHIFT) ^ CONTROL_INVERT_MASK
    ale, oe = idle ^ _ALE_MASK, idle ^ _OE_MASK
    write = port.write_control

    # Address first, then the ALE rising edge latches it and starts conversion.
    write(idle)
    t_start = port._now
    write(ale)
    write(idle)

    poll = port.read_status
    for polls in _POLL_INDICES:
        port._now = t_start + polls * poll_dt  # advance_to without the call: never backwards
        if poll() & EOC_MASK:
            break
    else:
        raise DeviceTimeoutError(
            f"EOC not asserted on channel {channel} within "
            f"{TIMEOUT_CONVERSIONS} conversion times ({TIMEOUT_CONVERSIONS * latency:.6g} s)"
        )

    write(oe)
    code = port.read_data()
    write(idle)
    return code
