"""Relative humidity and dew point from dry-bulb / wet-bulb temperature pairs.

Uses the Magnus saturation curve over water, es(T) = a * exp(b T / (c + T))
with Sonntag's (1990) constants as the WMO CIMO guide adopts them, together
with the classical psychrometer equation

    e = es(T_wet) - gamma * P * (T_dry - T_wet)

where e is the actual vapor pressure, gamma the psychrometer coefficient
and P the station pressure. Relative humidity is 100 e / es(T_dry), at most
100; the dew point inverts the Magnus curve at e. `reading` is the one
function that computes them: it checks a pair once, where it enters, and
evaluates the curve at both bulbs and its inverse at e in its own body.

Temperatures below 0 degC are rejected: they are outside the logger's
operating range, which also sidesteps the ice-surface constant switch.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .errors import (
    FLOAT_MAX,
    InconsistentReadingError,
    InvalidInputError,
    require_above,
    require_finite,
    store_floats,
)


MAGNUS_A = 6.112  # hPa
MAGNUS_B = 17.62
MAGNUS_C = 243.12  # degC


@dataclass(frozen=True)
class PsychroConfig:
    """Psychrometer coefficient and station pressure, whose product, the
    psychrometer constant gamma * P, must be finite too."""

    psychrometer_coeff: float = 6.6e-4  # 1/K, ventilated psychrometer
    pressure_hpa: float = 1013.25

    def __post_init__(self):
        names = ("psychrometer_coeff", "pressure_hpa")
        for name in names:
            require_above(name, getattr(self, name), 0)
        store_floats(self, *names)
        # an inf product made a wet == dry pair's vapor pressure inf * 0 = nan
        require_finite("psychrometer_coeff * pressure_hpa", self.psychrometer_coeff * self.pressure_hpa)


_tuple_new = tuple.__new__


class PsychroReading(namedtuple("PsychroReading", ("dry_c", "wet_c", "rh_pct", "dew_point_c"))):
    """One computed humidity point.

    An immutable named tuple (dry_c, wet_c, rh_pct, dew_point_c), equal to
    the plain tuple of its fields. A dew point above the dry bulb raises
    InvalidInputError; _make and _replace build through the constructor.
    """

    __slots__ = ()

    def __new__(cls, dry_c, wet_c, rh_pct, dew_point_c):
        # wet <= dry and e > 0 are reading's checks and 100 is its clamp;
        # Magnus rounding can still put the dew point a hair above the dry bulb
        if dew_point_c > dry_c + 1e-9:
            raise InvalidInputError(f"dew point {dew_point_c} exceeds dry bulb {dry_c}")
        return _tuple_new(cls, (dry_c, wet_c, rh_pct, dew_point_c))

    @classmethod
    def _make(cls, iterable):
        """The reading of a sequence of field values, checked as the
        constructor checks them; _replace builds its reading through this."""
        return cls(*iterable)


def reading(dry_c: float, wet_c: float, cfg: PsychroConfig = PsychroConfig()) -> PsychroReading:
    """Compute a full PsychroReading for one dry/wet pair, in one body.

    Raises InvalidInputError for a bulb below 0 or not finite, a wet bulb
    above the dry, and a vapor pressure that is not finite or is beyond the
    Magnus domain; InconsistentReadingError for a vapor pressure <= 0.
    """
    if not 0.0 <= wet_c <= dry_c <= FLOAT_MAX:  # both bulbs finite and >= 0, wet <= dry; false for nan
        for name, value in (("dry_c", dry_c), ("wet_c", wet_c)):
            if not 0.0 <= value <= FLOAT_MAX:
                require_finite(name, value)  # a finite value that fails is below 0
                raise InvalidInputError(f"{name} below the 0..50 degC range: {value}")
        raise InvalidInputError(f"wet bulb {wet_c} exceeds dry bulb {dry_c}")
    es_wet = MAGNUS_A * math.exp(MAGNUS_B * wet_c / (MAGNUS_C + wet_c))
    e = es_wet - cfg.psychrometer_coeff * cfg.pressure_hpa * (dry_c - wet_c)
    # past a wet bulb of ~1e307 es(wet) overflows: e is inf, or inf - inf = nan
    if not 0.0 < e <= FLOAT_MAX:
        if e <= 0.0:
            raise InconsistentReadingError(
                f"dry {dry_c} / wet {wet_c} degC gives vapor pressure {e:.4f} hPa <= 0"
            )
        raise InvalidInputError(f"dry {dry_c} / wet {wet_c} degC gives vapor pressure {e} hPa, not finite")
    rh = 100.0 * e / (MAGNUS_A * math.exp(MAGNUS_B * dry_c / (MAGNUS_C + dry_c)))
    ratio = math.log(e / MAGNUS_A)  # the Magnus curve inverted at e
    if ratio >= MAGNUS_B:
        raise InvalidInputError(f"vapor pressure {e} hPa beyond the Magnus domain")
    return PsychroReading(dry_c, wet_c, 100.0 if rh > 100.0 else rh, MAGNUS_C * ratio / (MAGNUS_B - ratio))
