"""Relative humidity and dew point from dry-bulb / wet-bulb temperature pairs.

Uses the Magnus saturation curve es(T) = a * exp(b T / (c + T)) together
with the classical psychrometer equation

    e = es(T_wet) - gamma * P * (T_dry - T_wet)

where e is the actual vapor pressure, gamma the psychrometer coefficient
and P the station pressure. Relative humidity is 100 e / es(T_dry); the
dew point inverts the Magnus curve at e.

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
    shown,
    store_floats,
)


@dataclass(frozen=True)
class PsychroConfig:
    """Psychrometer coefficient, station pressure, and Magnus constants."""

    psychrometer_coeff: float = 6.6e-4  # 1/K, ventilated psychrometer
    pressure_hpa: float = 1013.25
    magnus_a: float = 6.112  # hPa
    magnus_b: float = 17.62
    magnus_c: float = 243.12  # degC

    def __post_init__(self):
        names = ("psychrometer_coeff", "pressure_hpa", "magnus_a", "magnus_b", "magnus_c")
        for name in names:
            require_above(name, getattr(self, name), 0)
        store_floats(self, *names)


_tuple_new = tuple.__new__


class PsychroReading(namedtuple("PsychroReading", ("dry_c", "wet_c", "rh_pct", "dew_point_c"))):
    """One computed humidity point.

    An immutable named tuple (dry_c, wet_c, rh_pct, dew_point_c), equal to
    the plain tuple of its fields. A dew point above the dry bulb raises
    InvalidInputError; _make and _replace build through the constructor.
    """

    __slots__ = ()

    def __new__(cls, dry_c, wet_c, rh_pct, dew_point_c):
        # wet <= dry is _vapor_pressure's check and 0..100 is _rh_from's clamp;
        # Magnus rounding can still put the dew point a hair above the dry bulb
        if dew_point_c > dry_c + 1e-9:
            raise InvalidInputError(f"dew point {dew_point_c} exceeds dry bulb {dry_c}")
        return _tuple_new(cls, (dry_c, wet_c, rh_pct, dew_point_c))

    @classmethod
    def _make(cls, iterable):
        """The reading of a sequence of field values, checked as the
        constructor checks them; _replace builds its reading through this."""
        return cls(*iterable)


def saturation_vapor_pressure(t_c: float, cfg: PsychroConfig = PsychroConfig()) -> float:
    """Saturation vapor pressure in hPa at t_c degC (Magnus form)."""
    if not -cfg.magnus_c < t_c <= FLOAT_MAX:
        raise InvalidInputError(f"t_c must be finite and > {-cfg.magnus_c} degC, got {shown(t_c)}")
    return cfg.magnus_a * math.exp(cfg.magnus_b * t_c / (cfg.magnus_c + t_c))


def _vapor_pressure(dry_c: float, wet_c: float, cfg: PsychroConfig) -> float:
    """Actual vapor pressure from the psychrometer equation; validates the pair."""
    if not 0.0 <= wet_c <= dry_c <= FLOAT_MAX:  # both bulbs finite and >= 0, wet <= dry; false for nan
        for name, value in (("dry_c", dry_c), ("wet_c", wet_c)):
            if not 0.0 <= value <= FLOAT_MAX:
                require_finite(name, value)  # a finite value that fails is below 0
                raise InvalidInputError(f"{name} below the 0..50 degC range: {value}")
        raise InvalidInputError(f"wet bulb {wet_c} exceeds dry bulb {dry_c}")
    e = saturation_vapor_pressure(wet_c, cfg) - cfg.psychrometer_coeff * cfg.pressure_hpa * (
        dry_c - wet_c
    )
    if e <= 0.0:
        raise InconsistentReadingError(
            f"dry {dry_c} / wet {wet_c} degC gives vapor pressure {e:.4f} hPa <= 0"
        )
    return e


def _rh_from(e_hpa: float, dry_c: float, cfg: PsychroConfig) -> float:
    rh = 100.0 * e_hpa / saturation_vapor_pressure(dry_c, cfg)
    if rh < 0.0:
        return 0.0
    return 100.0 if rh > 100.0 else rh


def dew_point_from_vapor_pressure(e_hpa: float, cfg: PsychroConfig = PsychroConfig()) -> float:
    """Temperature at which e_hpa would be the saturation pressure."""
    if not 0 < e_hpa <= FLOAT_MAX:
        raise InvalidInputError(f"e_hpa must be finite and > 0, got {shown(e_hpa)}")
    ratio = math.log(e_hpa / cfg.magnus_a)
    if ratio >= cfg.magnus_b:
        raise InvalidInputError(f"vapor pressure {e_hpa} hPa beyond the Magnus domain")
    return cfg.magnus_c * ratio / (cfg.magnus_b - ratio)


def reading(dry_c: float, wet_c: float, cfg: PsychroConfig = PsychroConfig()) -> PsychroReading:
    """Compute a full PsychroReading for one dry/wet pair."""
    e = _vapor_pressure(dry_c, wet_c, cfg)
    return PsychroReading(dry_c, wet_c, _rh_from(e, dry_c, cfg), dew_point_from_vapor_pressure(e, cfg))
