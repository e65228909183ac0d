"""Signed log-domain scalar for magnitudes far outside float range.

Values are held as (sign, ln|x|) with the natural-log magnitude stored as
an unevaluated double-double pair (hi + lo).  Multiplication and division
reduce to compensated additions of the log parts and are therefore exact
round trips: (a*b)/b reproduces a's log magnitude bit for bit.  Addition
uses log-sum-exp with the correction term computed in plain doubles,
which keeps the log-domain error near 1 ulp.
"""

from __future__ import annotations

import math

from ._record import Record

_LN10 = math.log(10.0)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # error-free transform: a + b = s + err exactly
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_renorm(s: float, e: float) -> tuple[float, float]:
    hi = s + e
    lo = e - (hi - s)
    return hi, lo


def _dd_add(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    s, e = _two_sum(ahi, bhi)
    e += alo + blo
    return _quick_renorm(s, e)


class ExtremeReal(Record):
    """A real number kept as sign and natural-log magnitude.

    Immutable, and equal (and hashed) by its three fields.  Arithmetic and
    ``<``, ``>`` take two of them; ``3 * x`` and ``x <= y`` raise
    ``TypeError``.
    """

    __slots__ = ("sign", "_hi", "_lo")

    def __init__(self, sign: int, _hi: float, _lo: float):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "_hi", _hi)
        object.__setattr__(self, "_lo", _lo)

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ExtremeReal":
        return cls(0, float("-inf"), 0.0)

    @classmethod
    def from_float(cls, x: float) -> "ExtremeReal":
        if x == 0.0:
            return cls.zero()
        if math.isnan(x):
            raise ValueError("cannot represent NaN")
        if math.isinf(x):
            raise ValueError("cannot represent infinity")
        return cls(1 if x > 0 else -1, math.log(abs(x)), 0.0)

    @classmethod
    def from_ln(cls, ln_mag: float, sign: int = 1) -> "ExtremeReal":
        if sign == 0 or ln_mag == float("-inf"):
            return cls.zero()
        if sign not in (-1, 1):
            raise ValueError("sign must be -1, 0, or +1")
        return cls(sign, ln_mag, 0.0)

    @classmethod
    def from_log2(cls, log2_mag: float) -> "ExtremeReal":
        return cls.from_ln(log2_mag * math.log(2.0))

    # --- views --------------------------------------------------------

    @property
    def ln_mag(self) -> float:
        return self._hi + self._lo

    @property
    def log10_mag(self) -> float:
        return self.ln_mag / _LN10

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.ln_mag)
        except OverflowError:
            return math.inf * self.sign

    def as_json(self) -> dict:
        return {"sign": self.sign, "log10_mag": None if self.sign == 0 else self.log10_mag}

    def format_scientific(self, digits: int = 2) -> str:
        """Render as mantissa/exponent text, e.g. '1.18e-563'."""
        if self.sign == 0:
            return "0"
        l10 = self.log10_mag
        exp = math.floor(l10)
        mant = 10.0 ** (l10 - exp)
        # rounding can push the mantissa to 10.0
        if round(mant, digits) >= 10.0:
            mant /= 10.0
            exp += 1
        body = f"{mant:.{digits}f}e{exp:+d}"
        return body if self.sign > 0 else "-" + body

    def __repr__(self) -> str:
        return f"ExtremeReal({self.format_scientific(6)})"

    # --- arithmetic ---------------------------------------------------

    def __mul__(self, other: "ExtremeReal") -> "ExtremeReal":
        if self.sign == 0 or other.sign == 0:
            return ExtremeReal.zero()
        hi, lo = _dd_add(self._hi, self._lo, other._hi, other._lo)
        return ExtremeReal(self.sign * other.sign, hi, lo)

    def __truediv__(self, other: "ExtremeReal") -> "ExtremeReal":
        if other.sign == 0:
            raise ZeroDivisionError("ExtremeReal division by zero")
        if self.sign == 0:
            return ExtremeReal.zero()
        hi, lo = _dd_add(self._hi, self._lo, -other._hi, -other._lo)
        return ExtremeReal(self.sign * other.sign, hi, lo)

    def __neg__(self) -> "ExtremeReal":
        if self.sign == 0:
            return self
        return ExtremeReal(-self.sign, self._hi, self._lo)

    def __add__(self, other: "ExtremeReal") -> "ExtremeReal":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        a, b = self, other
        if (a._hi, a._lo) < (b._hi, b._lo):
            a, b = b, a
        d = b.ln_mag - a.ln_mag  # <= 0
        if a.sign == b.sign:
            corr = math.log1p(math.exp(d))
            hi, lo = _dd_add(a._hi, a._lo, corr, 0.0)
            return ExtremeReal(a.sign, hi, lo)
        # opposite signs: cancellation
        if a._hi == b._hi and a._lo == b._lo:
            return ExtremeReal.zero()
        t = math.exp(d)
        if t >= 1.0:
            return ExtremeReal.zero()
        corr = math.log1p(-t)
        hi, lo = _dd_add(a._hi, a._lo, corr, 0.0)
        return ExtremeReal(a.sign, hi, lo)

    def __sub__(self, other: "ExtremeReal") -> "ExtremeReal":
        return self + (-other)

    # --- ordering ----------------------------------------------------

    def _key(self) -> tuple:
        # total order consistent with real-number order
        if self.sign == 0:
            return (0, 0.0)
        return (self.sign, self.sign * self.ln_mag)

    def __lt__(self, other: "ExtremeReal") -> bool:
        return self._key() < other._key()

    def __gt__(self, other: "ExtremeReal") -> bool:
        return self._key() > other._key()


def xsum(values) -> ExtremeReal:
    """Sum of ExtremeReals, positives and negatives accumulated separately."""
    pos: list[ExtremeReal] = []
    neg: list[ExtremeReal] = []
    for v in values:
        if v.sign > 0:
            pos.append(v)
        elif v.sign < 0:
            neg.append(v)
    p = _sum_same_sign(pos, 1)
    n = _sum_same_sign(neg, -1)
    return p + n


def _sum_same_sign(values: list[ExtremeReal], sign: int) -> ExtremeReal:
    if not values:
        return ExtremeReal.zero()
    if len(values) == 1:
        return values[0]
    # anchor on the largest magnitude and add log1p corrections to it
    anchor = max(values, key=lambda v: v.ln_mag)
    base = anchor.ln_mag
    acc = math.fsum(math.exp(v.ln_mag - base) for v in values)
    corr = math.log(acc)
    hi, lo = _dd_add(anchor._hi, anchor._lo, corr, 0.0)
    return ExtremeReal(sign, hi, lo)


def lse(values) -> float:
    """Plain-float log-sum-exp with the usual max shift."""
    vals = [v for v in values if v != float("-inf")]
    if not vals:
        return float("-inf")
    m = max(vals)
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))
