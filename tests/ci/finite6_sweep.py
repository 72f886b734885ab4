"""python3 tests/ci/finite6_sweep.py: logstore._finite6 is round(x, 6) by type and
repr on 10**6 seeded values, or refuses one that is not finite; exits 1 if not."""
import itertools, math, random, struct, sys
from paraloq.errors import FLOAT_MAX, InvalidInputError
from paraloq.logstore import _finite6

rng = random.Random(24)

def values():
    """Ties and their neighbours below 1e6, values either side of +-1e6, random 64-bit patterns."""
    while True:
        k = rng.randrange(int(10 ** rng.uniform(0, 12)))  # every magnitude of tie below 1e6
        tie = rng.choice((1, -1)) * (k + 0.5) / 1e6
        yield from (tie, math.nextafter(tie, math.inf), math.nextafter(tie, -math.inf))
        edge = rng.choice((1e6, -1e6))
        yield from (edge, math.nextafter(edge, 0), math.nextafter(edge, 2 * edge), edge + rng.uniform(-1, 1))
        yield from (struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(3))

for count, x in enumerate(itertools.islice(values(), 10**6), 1):
    want = round(x, 6) if -FLOAT_MAX <= x <= FLOAT_MAX else InvalidInputError
    try:
        got = _finite6("x", x)
    except InvalidInputError:
        got = InvalidInputError
    if (type(got), repr(got)) != (type(want), repr(want)):
        sys.exit(f"value {count}: _finite6('x', {x!r}) gave {got!r}, not {want!r}")
print(f"{count} values: _finite6 is round(x, 6) on every finite one and refuses the rest")
