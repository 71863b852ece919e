"""Exact volume / Chern-Simons bookkeeping for integer descriptors."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adsvol import invariants
from adsvol.errors import ConventionWarning, InputError
from adsvol.invariants import (
    CALIBRATION_RATIO,
    CS_DENSITY_REFERENCE,
    AdSDescriptor,
    chasles,
    cs_pair,
    cs_rho_id,
    cs_scale,
    geometry_calibration,
    json_record,
    rational_str,
    unit_tangent_volume,
    vol_from_cs,
    volume,
)

ints = st.integers(min_value=-60, max_value=60)
nonzero_ints = ints.filter(lambda k: k != 0)


def descriptor(e, f, k, genus=None):
    """Build a descriptor with the convention warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConventionWarning)
        return AdSDescriptor(e, f, k, genus)


# ----------------------------------------------------------- descriptor


def test_descriptor_rejects_zero_degree():
    with pytest.raises(InputError):
        AdSDescriptor(2, 0, 0)


def test_descriptor_rejects_non_integers():
    with pytest.raises(InputError):
        AdSDescriptor(2.0, 0, 1)
    with pytest.raises(InputError):
        AdSDescriptor(2, 0, 1, genus=1)
    with pytest.raises(InputError):
        AdSDescriptor(True, 0, 1)


def test_descriptor_enforces_milnor_wood_when_genus_given():
    AdSDescriptor(2, 1, 5, genus=2)
    with pytest.raises(InputError):
        AdSDescriptor(4, 0, 1, genus=2)
    with pytest.raises(InputError):
        AdSDescriptor(2, 3, 1, genus=2)
    AdSDescriptor(4, 3, 1, genus=3)


def test_descriptor_warns_on_fuchsian_pair():
    with pytest.warns(ConventionWarning):
        AdSDescriptor(2, 2, 5)
    with pytest.warns(ConventionWarning):
        AdSDescriptor(2, -2, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        AdSDescriptor(2, 1, 5)  # |f| < |e| is the admissible regime


def test_convention_warning_names_the_caller():
    # the warning must point at the line that built the descriptor, not
    # into the dataclass-generated __init__
    with pytest.warns(ConventionWarning) as record:
        AdSDescriptor(1, 1, 1)
    assert len(record) == 1
    assert record[0].filename == __file__


# --------------------------------------------------------------- volume


def test_volume_worked_values():
    assert volume(AdSDescriptor(-2, 0, -2)) == -8
    assert volume(AdSDescriptor(-4, 2, 3)) == 16
    assert volume(descriptor(3, 3, 7)) == 0


def test_volume_string_rendering():
    assert rational_str(volume(AdSDescriptor(-2, 0, -2))) == "-8/1"
    assert rational_str(volume(AdSDescriptor(1, 0, 6))) == "2/3"


def test_unit_tangent_volume():
    assert unit_tangent_volume(-2) == -8
    assert unit_tangent_volume(1) == 4
    assert unit_tangent_volume(-2) == volume(AdSDescriptor(-2, 0, -2))
    with pytest.raises(InputError):
        unit_tangent_volume(0)
    with pytest.raises(InputError):
        unit_tangent_volume(2.0)


@given(ints, ints, nonzero_ints)
def test_volume_closed_form(e, f, k):
    v = volume(descriptor(e, f, k))
    assert type(v) is Fraction
    assert v == Fraction(4 * (e * e - f * f), k)


# ------------------------------------------------------------- cs values


def test_cs_rho_id_worked_values():
    assert cs_rho_id(2, 1) == Fraction(-2, 3)
    assert cs_rho_id(-2, -2) == Fraction(1, 3)
    assert cs_rho_id(2, 4) == Fraction(-1, 6)
    assert cs_rho_id(0, 9) == 0


@pytest.mark.parametrize("f, k", [(1.5, 2), (2, 1.5), (True, 1)])
def test_cs_rho_id_rejects_non_integers(f, k):
    with pytest.raises(InputError, match="must be an integer"):
        cs_rho_id(f, k)


def test_cs_pair_worked_values():
    assert cs_pair(AdSDescriptor(-2, 0, -2)) == Fraction(1, 3)
    assert cs_pair(AdSDescriptor(-4, 2, 3)) == Fraction(-2, 3)
    assert cs_pair(descriptor(5, 5, 9)) == 0


@given(ints, ints, nonzero_ints)
def test_cs_pair_closed_form(e, f, k):
    assert cs_pair(descriptor(e, f, k)) == Fraction(f * f - e * e, 6 * k)
    # oracle: the Chasles composition of two cs_rho_id values
    assert cs_pair(descriptor(e, f, k)) == cs_rho_id(e, k) - cs_rho_id(f, k)


@given(ints, ints, nonzero_ints)
def test_volume_recovered_from_cs(e, f, k):
    d = descriptor(e, f, k)
    assert vol_from_cs(cs_pair(d)) == volume(d)


def test_vol_from_cs_worked_value():
    assert vol_from_cs(Fraction(1, 3)) == -8


# ----------------------------------------------- naturality operations


@given(st.integers(min_value=-20, max_value=20), ints, nonzero_ints)
def test_cs_scale_is_multiplicative(m, f, k):
    base = cs_rho_id(f, k)
    assert cs_scale(m, base) == m * base


def test_cs_scale_degree_pullback_anchor():
    # Pulling back along the degree-e fibrewise covering of the k = 1
    # descriptor scales the invariant to the k = e one times e^2 / e.
    for e in (2, 3, -5):
        assert cs_scale(e, cs_rho_id(e, e)) == cs_rho_id(e, 1)


def test_cs_scale_rejects_non_integer_degree():
    with pytest.raises(InputError):
        cs_scale(1.5, Fraction(0))


@given(ints, ints, ints, nonzero_ints)
def test_chasles_additivity(a, b, c, k):
    ab = cs_rho_id(a, k) - cs_rho_id(b, k)
    bc = cs_rho_id(b, k) - cs_rho_id(c, k)
    ac = cs_rho_id(a, k) - cs_rho_id(c, k)
    assert chasles(ab, bc) == ac
    assert chasles(ab, -ab) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: vol_from_cs(0.5),
        lambda: cs_scale(2, 0.5),
        lambda: chasles(0.5, 1),
        lambda: chasles(Fraction(1, 2), 1.0),
        lambda: vol_from_cs(True),
        lambda: cs_scale(2, "1/x"),
        lambda: chasles("1/0", 0),
    ],
    ids=["vol-float", "scale-float", "chasles-float", "chasles-second-float",
         "vol-bool", "scale-malformed", "chasles-zero-denominator"],
)
def test_rational_operations_refuse_inexact_values(call):
    # "every invariant is a plain Fraction": a float must not come back
    with pytest.raises(InputError):
        call()


def test_rational_operations_return_fractions():
    values = (vol_from_cs(1), cs_scale(2, Fraction(1, 4)), chasles(Fraction(1, 2), 1))
    assert values == (-24, Fraction(1, 2), Fraction(3, 2))
    assert all(type(v) is Fraction for v in values)


# ------------------------------------------------------- calibration


def test_calibration_frozen_golden():
    assert CS_DENSITY_REFERENCE == Fraction(-4)
    assert CALIBRATION_RATIO == Fraction(-1)
    assert geometry_calibration() == CALIBRATION_RATIO


def test_calibration_descriptor_independent():
    assert geometry_calibration(-2) == geometry_calibration(-4)
    assert geometry_calibration(-6) == CALIBRATION_RATIO


def test_calibration_magnitude_is_one():
    # |ratio| = 1 says the two routes agree in magnitude; the sign
    # records an orientation convention mismatch between them.
    assert abs(geometry_calibration()) == 1


def test_calibration_recomputes_identically():
    assert len({geometry_calibration() for _ in range(5)}) == 1


# ------------------------------------------------------------- rendering


def test_rational_str_normal_form():
    assert rational_str(Fraction(4, 6)) == "2/3"
    assert rational_str(Fraction(1, -3)) == "-1/3"
    assert rational_str(Fraction(5)) == "5/1"
    assert rational_str(Fraction(0)) == "0/1"


def test_json_record_worked_example():
    assert json_record(AdSDescriptor(-2, 0, -2)) == {
        "e": -2,
        "f": 0,
        "k": -2,
        "volume_signed_pi2": "-8/1",
        "volume_pi2": "8/1",
        "cs": "1/3",
    }


def test_json_record_reduces_fractions():
    rec = json_record(AdSDescriptor(1, 0, 6))
    assert rec["volume_signed_pi2"] == "2/3"
    assert rec["cs"] == "-1/36"

