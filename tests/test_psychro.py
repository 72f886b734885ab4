import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraloq import (
    InconsistentReadingError,
    InvalidInputError,
    PsychroConfig,
    PsychroReading,
    reading,
    saturation_vapor_pressure,
)
from paraloq.errors import FLOAT_MAX
from paraloq.psychro import MAGNUS_A, MAGNUS_B, _rh_from, dew_point_from_vapor_pressure

# Reference dry/wet pair from the instrument's recorded table, and the
# frozen oracle values this formula family produces for it (double-precision
# Magnus + Assmann psychrometer, verified against a 50-digit computation).
DRY_REF = 19.92858
WET_REF = 18.02167
RH_ORACLE = 83.29688547332444
DEW_ORACLE = 17.009288515905595
RH_TABLE = 85.183416
DEW_TABLE = 17.360743
# (degC, hPa): saturation vapour pressure over water, Hyland-Wexler
WATER_TABLE = [
    (-40.0, 0.1897), (-30.0, 0.5100), (-20.0, 1.2563), (-10.0, 2.8652), (0.0, 6.1121), (10.0, 12.281),
    (20.0, 23.388), (30.0, 42.455), (40.0, 73.814), (50.0, 123.52), (60.0, 199.46),
]


class TestSaturationVaporPressure:
    def test_zero_returns_magnus_a(self):
        assert saturation_vapor_pressure(0.0) == 6.112

    def test_wet_reference_point(self):
        assert saturation_vapor_pressure(WET_REF) == pytest.approx(
            20.61933794283785, abs=1e-9
        )

    def test_dry_reference_point(self):
        assert saturation_vapor_pressure(DRY_REF) == pytest.approx(
            23.223078876199683, abs=1e-9
        )

    def test_domain_violation(self):
        with pytest.raises(InvalidInputError):
            saturation_vapor_pressure(-243.12)

    # over water, -40..60 degC: the Magnus form (Sonntag 1990) stays within
    # 0.4 % of the Hyland-Wexler formulation that the WMO CIMO guide tabulates
    @pytest.mark.parametrize("t_c, e_hpa", WATER_TABLE, ids=[f"{t:g}" for t, _ in WATER_TABLE])
    def test_follows_the_saturation_curve_over_water(self, t_c, e_hpa):
        assert saturation_vapor_pressure(t_c) == pytest.approx(e_hpa, rel=4e-3)

    @pytest.mark.parametrize("t_c", [t for t, _ in WATER_TABLE], ids=[f"{t:g}" for t, _ in WATER_TABLE])
    def test_the_dew_point_of_saturated_air_inverts_the_curve(self, t_c):
        assert dew_point_from_vapor_pressure(saturation_vapor_pressure(t_c)) == pytest.approx(t_c, abs=1e-12)


class TestRelativeHumidity:
    def test_saturated_pair_reads_100(self):
        assert reading(20.0, 20.0).rh_pct == 100.0

    def test_reference_pair_matches_frozen_oracle(self):
        assert reading(DRY_REF, WET_REF).rh_pct == pytest.approx(RH_ORACLE, abs=1e-6)

    def test_reference_pair_within_recorded_table_tolerance(self):
        assert abs(reading(DRY_REF, WET_REF).rh_pct - RH_TABLE) <= 3.0

    # es(10) ~ 12.28 hPa < gamma * P * 20 ~ 13.37 hPa; FLOAT_MAX is a finite
    # dry bulb, so that pair passes the range checks and fails here too
    @pytest.mark.parametrize("dry", [30.0, sys.float_info.max], ids=["30", "FLOAT_MAX"])
    def test_impossible_depression_is_inconsistent(self, dry):
        with pytest.raises(InconsistentReadingError, match="gives vapor pressure"):
            reading(dry, 10.0)

    def test_a_vapor_pressure_of_exactly_zero_is_inconsistent(self):
        # es(0) is MAGNUS_A = 6.112 hPa, and 1.0 * 6.112 * (1.0 - 0.0) takes all of it
        cfg = PsychroConfig(psychrometer_coeff=1.0, pressure_hpa=6.112)
        with pytest.raises(InconsistentReadingError, match="vapor pressure 0.0000 hPa <= 0"):
            reading(1.0, 0.0, cfg)

    def test_wet_above_dry_rejected(self):
        with pytest.raises(InvalidInputError):
            reading(10.0, 20.0)

    def test_below_operating_range_rejected(self):
        with pytest.raises(InvalidInputError):
            reading(5.0, -1.0)

    @pytest.mark.parametrize(
        "dry, wet, message",
        [
            (-1, 5, "dry_c below the 0..50 degC range: -1"),
            (5, -1, "wet_c below the 0..50 degC range: -1"),
            (-1, -2, "dry_c below the 0..50 degC range: -1"),  # the dry bulb is named first
            (math.nan, 5, "dry_c must be finite, got nan"),
            (5, math.inf, "wet_c must be finite, got inf"),
            (10**400, 5, f"dry_c must be finite, got {10**400}"),
        ],
        ids=["dry-below", "wet-below", "both-below", "dry-nan", "wet-inf", "dry-10**400"],
    )
    def test_a_bad_bulb_is_named_in_the_message(self, dry, wet, message):
        with pytest.raises(InvalidInputError) as info:
            reading(dry, wet)
        assert str(info.value) == message

    def test_monotone_increasing_in_wet_bulb(self):
        values = [reading(25.0, wet).rh_pct for wet in (15.0, 18.0, 21.0, 24.0, 25.0)]
        assert values == sorted(values)
        assert values[-1] == 100.0

    def test_monotone_decreasing_in_dry_bulb(self):
        values = [reading(dry, 15.0).rh_pct for dry in (15.0, 18.0, 21.0, 24.0)]
        assert values == sorted(values, reverse=True)

    def test_saturation_iff_equal_bulbs(self):
        assert reading(20.0, 20.0).rh_pct == pytest.approx(100.0, abs=1e-9)
        assert reading(20.0, 19.99).rh_pct < 100.0 - 1e-9


class TestDewPoint:
    def test_saturated_air_dew_equals_temperature(self):
        for t in range(0, 51, 5):
            assert reading(float(t), float(t)).dew_point_c == pytest.approx(t, abs=1e-9)

    def test_reference_pair_matches_frozen_oracle(self):
        assert reading(DRY_REF, WET_REF).dew_point_c == pytest.approx(DEW_ORACLE, abs=1e-6)

    def test_reference_pair_within_recorded_table_tolerance(self):
        assert abs(reading(DRY_REF, WET_REF).dew_point_c - DEW_TABLE) <= 1.0

    def test_vapor_pressure_at_magnus_a_gives_zero(self):
        assert dew_point_from_vapor_pressure(6.112) == 0.0

    @pytest.mark.parametrize("e_hpa", [0.0, -0.0])
    def test_a_vapor_pressure_of_zero_is_invalid_input(self, e_hpa):
        # not the bare ValueError math.log raises at 0
        with pytest.raises(InvalidInputError, match=rf"^e_hpa must be finite and > 0, got {e_hpa}$"):
            dew_point_from_vapor_pressure(e_hpa)

    def test_a_vapor_pressure_at_the_edge_of_the_magnus_domain_is_invalid_input(self):
        # log(e / MAGNUS_A) is MAGNUS_B exactly, which would divide by zero
        e_hpa = 274442973.8691547
        assert math.log(e_hpa / MAGNUS_A) == MAGNUS_B
        with pytest.raises(InvalidInputError, match="beyond the Magnus domain"):
            dew_point_from_vapor_pressure(e_hpa)

    def test_never_exceeds_dry_bulb(self):
        for dry in (5.0, 15.0, 25.0, 35.0, 45.0):
            for depression in (0.0, 0.5, 2.0, 4.0):
                wet = dry - depression
                if wet < 0:
                    continue
                try:
                    dew = reading(dry, wet).dew_point_c
                except InconsistentReadingError:
                    continue
                assert dew <= dry + 1e-9
                if depression == 0.0:
                    assert dew == pytest.approx(dry, abs=1e-9)
                else:
                    assert dew < dry


class TestConfigAndReading:
    def test_config_rejects_nonpositive_fields(self):
        with pytest.raises(InvalidInputError):
            PsychroConfig(pressure_hpa=0.0)
        with pytest.raises(InvalidInputError):
            PsychroConfig(psychrometer_coeff=-1.0)

    @pytest.mark.parametrize(
        "coeff, pressure", [(1e200, 1e200), (FLOAT_MAX, 2.0), (10**200, 10**200)], ids=["1e200", "FLOAT_MAX", "ints"]
    )
    def test_config_rejects_a_psychrometer_constant_that_overflows(self, coeff, pressure):
        # it built, and a wet == dry pair's vapor pressure was inf * 0 = nan
        with pytest.raises(InvalidInputError, match=r"^psychrometer_coeff \* pressure_hpa must be finite, got inf$"):
            PsychroConfig(psychrometer_coeff=coeff, pressure_hpa=pressure)
        assert PsychroConfig(psychrometer_coeff=coeff, pressure_hpa=1.0).psychrometer_coeff == float(coeff)

    def test_reading_bundle(self):
        result = reading(DRY_REF, WET_REF)
        assert result.rh_pct == pytest.approx(RH_ORACLE, abs=1e-6)
        assert result.dew_point_c == pytest.approx(DEW_ORACLE, abs=1e-6)
        assert result.wet_c <= result.dry_c

    def test_reading_invariants_enforced(self):
        with pytest.raises(InvalidInputError):
            PsychroReading(dry_c=20.0, wet_c=19.0, rh_pct=50.0, dew_point_c=25.0)
        # Magnus rounding puts this saturated pair's dew point 2.4e-9 above the dry bulb
        with pytest.raises(InvalidInputError, match="dew point"):
            reading(1e5, 1e5)

    def test_a_replaced_dew_point_above_the_dry_bulb_is_rejected(self):
        # _replace builds through _make, which checks as the constructor does
        with pytest.raises(InvalidInputError, match="^dew point 25.0 exceeds dry bulb 20.0$"):
            reading(20.0, 18.0)._replace(dew_point_c=25.0)

    def test_custom_pressure_changes_result(self):
        sea_level = reading(DRY_REF, WET_REF).rh_pct
        altitude = reading(DRY_REF, WET_REF, PsychroConfig(pressure_hpa=850.0)).rh_pct
        assert altitude > sea_level  # smaller psychrometer correction


@given(
    dry=st.floats(min_value=0.0, max_value=50.0),
    wet_share=st.floats(min_value=0.0, max_value=1.0),
)
def test_reading_keeps_humidity_in_range_and_dew_at_or_below_dry(dry, wet_share):
    # the invariants PsychroReading no longer re-checks: _rh_from clamps RH,
    # and _vapor_pressure has already rejected wet > dry
    wet = dry * wet_share
    try:
        result = reading(dry, wet)
    except InconsistentReadingError:
        return  # vapor pressure <= 0: no reading to check
    assert 0.0 <= result.rh_pct <= 100.0
    assert result.dew_point_c <= dry + 1e-9


@given(
    dry=st.floats(min_value=0.0, max_value=50.0),
    wet_share=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(1.0)),
    cfg=st.sampled_from([PsychroConfig(), PsychroConfig(pressure_hpa=850.0)]),
)
def test_relative_humidity_clamps_as_min_max_does(dry, wet_share, cfg):
    wet = dry * wet_share
    # the psychrometer equation, operation for operation
    e = saturation_vapor_pressure(wet) - cfg.psychrometer_coeff * cfg.pressure_hpa * (dry - wet)
    if e <= 0.0:
        with pytest.raises(InconsistentReadingError):
            reading(dry, wet, cfg)
        return
    rh = 100.0 * e / saturation_vapor_pressure(dry)
    assert repr(reading(dry, wet, cfg).rh_pct) == repr(min(max(rh, 0.0), 100.0))


@given(e=st.one_of(st.floats(), st.sampled_from([0.0, -0.0])), dry=st.floats(min_value=0.0, max_value=50.0))
def test_the_humidity_clamp_is_min_max_for_any_vapor_pressure(e, dry):
    # below 0 and above 100 only a vapor pressure reading never passes reaches
    rh = 100.0 * e / saturation_vapor_pressure(dry)
    assert repr(_rh_from(e, dry)) == repr(min(max(rh, 0.0), 100.0))
