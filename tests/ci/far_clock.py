"""timeout 20 python3 tests/ci/far_clock.py: acquire_byte gives up on a disconnected port
whose clock, at 1e20 s, a 6.25 us poll step leaves where it is; a hang runs into the timeout."""
from paraloq import DeviceTimeoutError, SimulatedPort, acquire_byte

port = SimulatedPort()
port.advance_to(1e20)
port.connected = False
try:
    acquire_byte(port, 0)
except DeviceTimeoutError as exc:
    print(f"now_s = {port.now_s!r}: {exc}")
else:
    raise SystemExit("acquire_byte returned on a disconnected port")
