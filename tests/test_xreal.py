"""Extreme-magnitude arithmetic: exactness and log-domain accuracy."""

import decimal
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm.xreal import ExtremeReal, lse, xsum

finite = st.floats(min_value=-3.4e4, max_value=3.4e4,
                   allow_nan=False, allow_infinity=False)


def _from_log10(log10_mag):
    return ExtremeReal.from_ln(log10_mag * math.log(10.0))


def test_float_round_trip():
    for x in (1.0, -2.5, 1e-300, 7.25e250, -3.0e-7, 1e308, -1.7e308, 5e-324):
        assert ExtremeReal.from_float(x).to_float() == pytest.approx(x, rel=1e-12)
    assert ExtremeReal.from_float(0.0).is_zero
    assert ExtremeReal.zero().to_float() == 0.0
    for bad, what in ((math.nan, "NaN"), (math.inf, "infinity"), (-math.inf, "infinity")):
        with pytest.raises(ValueError, match=what):
            ExtremeReal.from_float(bad)


def test_log_constructors_agree():
    a = ExtremeReal.from_ln(100.0 * math.log(10.0))
    c = ExtremeReal.from_log2(100.0 * math.log2(10.0))
    assert abs(a.ln_mag - c.ln_mag) < 1e-9
    assert a.log10_mag == pytest.approx(100.0, abs=1e-12)
    assert ExtremeReal.from_log2(-math.inf).is_zero
    with pytest.raises(ValueError, match="sign"):
        ExtremeReal.from_ln(1.0, sign=2)


def test_self_ratio_bit_exact():
    # (a*b)/b must reproduce a with no ln drift at all
    rnd = random.Random(7)
    for _ in range(500):
        a = _from_log10(rnd.uniform(-15000, 15000))
        b = _from_log10(rnd.uniform(-15000, 15000))
        back = (a * b) / b
        assert back.ln_mag == a.ln_mag
        assert back.sign == a.sign
        assert (a / a).ln_mag == 0.0


def test_sign_algebra():
    pos = ExtremeReal.from_float(3.0)
    neg = ExtremeReal.from_float(-2.0)
    assert (pos * neg).sign == -1
    assert (neg * neg).sign == 1
    assert (pos / neg).sign == -1
    assert (pos + neg).to_float() == pytest.approx(1.0, rel=1e-14)
    assert (neg + pos).to_float() == pytest.approx(1.0, rel=1e-14)


def test_comparisons_across_magnitudes():
    tiny = _from_log10(-9000.0)
    huge = _from_log10(9000.0)
    assert tiny < huge
    assert huge > tiny
    assert tiny > ExtremeReal.zero()
    assert ExtremeReal.from_float(-1.0) < tiny


def test_zero_absorbs():
    z = ExtremeReal.zero()
    a = _from_log10(5000.0)
    assert (z * a).is_zero
    assert (z / a).is_zero
    assert (a + z).ln_mag == a.ln_mag
    with pytest.raises(ZeroDivisionError):
        a / z


def test_one_is_exact():
    one = ExtremeReal.from_float(1.0)
    assert one.ln_mag == 0.0
    assert one.to_float() == 1.0


def test_format_scientific():
    x = _from_log10(-563.0) * ExtremeReal.from_float(1.18)
    assert x.format_scientific() == "1.18e-563"
    assert ExtremeReal.from_float(1.0).format_scientific() == "1.00e+0"
    assert ExtremeReal.zero().format_scientific() == "0"
    y = _from_log10(14161.0) * ExtremeReal.from_float(9.0)
    assert y.format_scientific() == "9.00e+14161"


def test_xsum_matches_fsum_in_normal_range():
    rnd = random.Random(11)
    values = [rnd.uniform(-5.0, 5.0) for _ in range(200)]
    got = xsum(ExtremeReal.from_float(v) for v in values)
    assert got.to_float() == pytest.approx(math.fsum(values), rel=1e-12)


def test_xsum_cancellation_keeps_sign():
    a = _from_log10(300.0)
    res = xsum([a, ExtremeReal.zero() - a])
    assert res.is_zero or abs(res.ln_mag - a.ln_mag) > 30


def test_lse_shifted_pairs():
    # pairwise oracle via log1p on the gap; gaps land in every regime
    rnd = random.Random(23)
    for _ in range(2000):
        a = rnd.uniform(-34000.0, 34000.0)
        gap = rnd.uniform(0.0, 60.0)
        b = a - gap
        want = a + math.log1p(math.exp(-gap))
        got = lse([a, b])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_lse_exact_replicas():
    for k in (2, 3, 8, 64):
        x = -12345.5
        assert lse([x] * k) == pytest.approx(x + math.log(k), abs=1e-12)


def test_lse_dominant_term():
    assert lse([100.0, -30000.0]) == 100.0


def _decimal_ln_sum(lns, prec=60):
    decimal.getcontext().prec = prec
    shift = max(lns)
    total = sum(decimal.Decimal(v - shift).exp() for v in lns)
    return float(decimal.Decimal(shift) + total.ln())


def test_lse_against_high_precision():
    rnd = random.Random(37)
    for _ in range(100):
        base = rnd.uniform(-15000.0, 15000.0)
        lns = [base - rnd.uniform(0.0, 40.0) for _ in range(rnd.randint(2, 10))]
        want = _decimal_ln_sum(lns)
        assert abs(lse(lns) - want) <= 1e-12 * max(1.0, abs(want))


@given(finite, finite)
@settings(max_examples=200)
def test_mul_div_inverse_property(la, lb):
    a = _from_log10(la)
    b = _from_log10(lb)
    assert ((a * b) / b).ln_mag == a.ln_mag
    assert ((a / b) * b).ln_mag == a.ln_mag


@given(st.lists(finite, min_size=1, max_size=8), finite)
@settings(max_examples=100)
def test_lse_shift_invariance(lns, shift):
    lns2 = [v + shift for v in lns]
    got = lse(lns2) - shift
    assert abs(got - lse(lns)) <= 1e-9
