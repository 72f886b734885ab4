"""python3 tests/ci/reading_sweep.py: psychro.reading gives what the layered computation it
replaced gives (copied below as the reference): the same reading by type and repr on 10**6 seeded
pairs 0 <= wet <= dry <= 50 and on every interior code pair, under the default config and
pressure_hpa=850, and the same exception type on a seeded set of refused and extreme inputs;
exits 1 at the first input where it does not."""
import itertools, math, random, sys
from paraloq.adc0808 import CODE_MAX, decode_temp
from paraloq.errors import FLOAT_MAX, InconsistentReadingError, InvalidInputError, require_finite, shown
from paraloq.psychro import MAGNUS_A, MAGNUS_B, MAGNUS_C, PsychroConfig, PsychroReading, reading

rng = random.Random(47)
CONFIGS = (PsychroConfig(), PsychroConfig(pressure_hpa=850.0))


# the reference: saturation_vapor_pressure, _vapor_pressure, _rh_from and dew_point_from_vapor_pressure,
# each checking its own argument, and the reading they made, as psychro held them before reading was one body
def saturation_vapor_pressure(t_c):
    if not -MAGNUS_C < t_c <= FLOAT_MAX:
        raise InvalidInputError(f"t_c must be finite and > {-MAGNUS_C} degC, got {shown(t_c)}")
    return MAGNUS_A * math.exp(MAGNUS_B * t_c / (MAGNUS_C + t_c))

def vapor_pressure(dry_c, wet_c, cfg):
    if not 0.0 <= wet_c <= dry_c <= FLOAT_MAX:
        for name, value in (("dry_c", dry_c), ("wet_c", wet_c)):
            if not 0.0 <= value <= FLOAT_MAX:
                require_finite(name, value)
                raise InvalidInputError(f"{name} below the 0..50 degC range: {value}")
        raise InvalidInputError(f"wet bulb {wet_c} exceeds dry bulb {dry_c}")
    e = saturation_vapor_pressure(wet_c) - cfg.psychrometer_coeff * cfg.pressure_hpa * (dry_c - wet_c)
    if e <= 0.0:
        raise InconsistentReadingError(f"dry {dry_c} / wet {wet_c} degC gives vapor pressure {e:.4f} hPa <= 0")
    return e

def rh_from(e_hpa, dry_c):
    rh = 100.0 * e_hpa / saturation_vapor_pressure(dry_c)
    return 100.0 if rh > 100.0 else rh

def dew_point_from_vapor_pressure(e_hpa):
    if not 0 < e_hpa <= FLOAT_MAX:
        raise InvalidInputError(f"e_hpa must be finite and > 0, got {shown(e_hpa)}")
    ratio = math.log(e_hpa / MAGNUS_A)
    if ratio >= MAGNUS_B:
        raise InvalidInputError(f"vapor pressure {e_hpa} hPa beyond the Magnus domain")
    return MAGNUS_C * ratio / (MAGNUS_B - ratio)

def reference(dry_c, wet_c, cfg):
    e = vapor_pressure(dry_c, wet_c, cfg)
    return PsychroReading(dry_c, wet_c, rh_from(e, dry_c), dew_point_from_vapor_pressure(e))


def outcome(compute, dry, wet, cfg):
    """The reading's type and repr, or the type of the exception raised in its place."""
    try:
        got = compute(dry, wet, cfg)
    except Exception as exc:  # noqa: BLE001 - a bare ValueError or ZeroDivisionError is a difference too
        return type(exc)
    return type(got), repr(got)

def check(where, pairs, configs):
    """Exit 1 at the first pair and config whose outcomes differ; the count of each outcome kind."""
    kinds = {}
    for count, (dry, wet) in enumerate(pairs, 1):
        for cfg in configs:
            got, want = outcome(reading, dry, wet, cfg), outcome(reference, dry, wet, cfg)
            if got != want:
                sys.exit(f"{where} {count}: reading({dry!r}, {wet!r}, {cfg}) gave {got}, the reference {want}")
            kind = want.__name__ if isinstance(want, type) else "reading"
            kinds[kind] = kinds.get(kind, 0) + 1
    print(f"{count} {where}s: " + ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items())))

def seeded_pairs():
    """0 <= wet <= dry <= 50: the ends of the range, a saturated pair, a wet bulb an ulp below
    the dry, a uniform depression (many past the curve at a low dry bulb)."""
    while True:
        dry = rng.choice((0.0, 50.0)) if rng.random() < 0.01 else rng.uniform(0.0, 50.0)
        yield dry, dry
        yield dry, math.nextafter(dry, -1.0) if dry else 0.0
        for _ in range(2):
            yield dry, rng.uniform(0.0, dry)

def refused_pairs():
    """The pairs whose vapor pressure is nan and inf, then seeded draws from edge values and
    uniform ones: wet above dry, below 0, nan, +-inf, an int past the float range, 1e300."""
    yield FLOAT_MAX, 1.1e307  # nan under pressure_hpa=1e12
    yield FLOAT_MAX, 1e308  # inf
    edges = (0.0, -0.0, -1.0, -5e-324, 5e-324, 20.0, 50.0, 1e5, 1e20, 1e300, -1e300, 1.1e307, 1e308, FLOAT_MAX,
             math.nan, math.inf, -math.inf, 10**400)
    while True:
        yield tuple(rng.choice(edges) if rng.random() < 0.7 else rng.uniform(-10.0, 60.0) for _ in range(2))


check("pair", itertools.islice(seeded_pairs(), 10**6), CONFIGS)
interior = range(1, CODE_MAX)
check("code pair", ((decode_temp(d), decode_temp(w)) for d in interior for w in interior), CONFIGS)
check("refused pair", itertools.islice(refused_pairs(), 10**5), CONFIGS + (PsychroConfig(pressure_hpa=1e12),))
