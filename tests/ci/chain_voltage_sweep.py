"""python3 tests/ci/chain_voltage_sweep.py: signal_chain.chain_voltage is min(max(gain *
(slope * t), 0.0), clamp) by type and repr on 10**6 seeded temperatures, and rejects
nan and +-inf; exits 1 at the first temperature where it is not."""
import itertools, math, random, struct, sys
from paraloq.errors import InvalidInputError
from paraloq.signal_chain import ChainConfig, chain_voltage

rng = random.Random(30)
# the default chain, and one whose slope * t overflows for |t| > 1.8e298
CHAINS = (ChainConfig(), ChainConfig(sensor_slope=1e10, amp_gain=1e-11))

def near(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x

def temperatures():
    """+-0.0, subnormals, a few ulps either side of each clamp temperature, +-1e300, random 64-bit patterns."""
    while True:
        yield from (0.0, -0.0, 1e300, -1e300)
        yield from (rng.choice((1, -1)) * rng.randrange(1, 2**52) * 5e-324 for _ in range(2))
        for cfg in CHAINS:
            yield near(cfg.clamp_volts / (cfg.amp_gain * cfg.sensor_slope), rng.randint(-4, 4))
        yield from (struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(4))

rejected = 0
for count, t in enumerate(itertools.islice(itertools.chain((math.inf, -math.inf, math.nan), temperatures()), 10**6), 1):
    for cfg in CHAINS:
        if not math.isfinite(t):  # a nan or an inf must be rejected, not clamped
            try:
                got = chain_voltage(t, cfg)
            except InvalidInputError as exc:
                if not str(exc).startswith("temp_c must be finite"):
                    sys.exit(f"temperature {count}: chain_voltage({t!r}) raised {exc}")
                rejected += 1
                continue
            sys.exit(f"temperature {count}: chain_voltage({t!r}) = {got!r}, not InvalidInputError")
        got = chain_voltage(t, cfg)
        want = min(max(cfg.amp_gain * (cfg.sensor_slope * t), 0.0), cfg.clamp_volts)
        if (type(got), repr(got)) != (type(want), repr(want)):
            sys.exit(f"temperature {count}, {cfg}: chain_voltage({t!r}) = {got!r}, min/max gives {want!r}")
print(f"{count} temperatures on {len(CHAINS)} chains: chain_voltage is min(max(...)) on every one, {rejected} non-finite calls rejected")
