"""Parsing of complex scalar literals and exact real parameters.

Scalar grammar (used by the CLI and descriptor files):

    scalar  := term (('+'|'-') term)*
    term    := [sign] [number] ['pi'] ['*'] ['i']

so ``1``, ``-2.5``, ``2i``, ``1+2i``, ``pi``, ``2pi``, ``2pi*i`` and ``1e-3``
are all accepted; a scalar in parentheses, such as ``(2i)``, is read as the
scalar.  Floats are written back with ``fmt``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\s*"
    r"(?P<pi>pi)?\s*\*?\s*(?P<i>[ij])?\s*"
)

#: Named irrational constants accepted in exact parameters.
CONSTANTS = {"pi": math.pi, "sqrt2": math.sqrt(2.0), "e": math.e}
#: format spec of the full-precision floats in reports, CSVs, certificates and
#: descriptors: 17 significant digits, lowercase exponent, so each value
#: round-trips exactly
FLOAT_SPEC = ".17g"


def fmt(x: float) -> str:
    """x as a decimal string in FLOAT_SPEC."""
    return format(x, FLOAT_SPEC)


def parse_complex(text: str) -> complex:
    """Parse a complex scalar literal such as ``1+2i``, ``2pi*i`` or ``-0.5``."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")") and "," not in s:
        s = s[1:-1].strip()
    if not s:
        raise ParseError("empty scalar literal")
    pos = 0
    value = 0j
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse scalar {text!r} at {s[pos:]!r}")
        sign, num, pi, imag = m.group("sign", "num", "pi", "i")
        if num is None and pi is None and imag is None:
            raise ParseError(f"cannot parse scalar {text!r} at {s[pos:]!r}")
        if sign is None and not first:
            raise ParseError(f"missing operator in scalar {text!r}")
        coeff = float(num) if num is not None else 1.0
        if sign == "-":
            coeff = -coeff
        if pi:
            coeff *= math.pi
        value += coeff * 1j if imag else coeff
        pos = m.end()
        first = False
    return value


@dataclass(frozen=True)
class ExactReal:
    """Exact positive real of the form (rational) * (named constant or 1).

    Used to tag descriptor parameters whose rationality relations must be
    decided symbolically rather than in floating point.
    """

    coeff: Fraction
    base: str | None = None  # key of CONSTANTS, or None for a plain rational

    def __post_init__(self):
        if self.base is not None and self.base not in CONSTANTS:
            raise ParseError(f"unknown constant {self.base!r}")
        if self.coeff <= 0:
            raise ParseError("exact parameter must be positive")

    def value(self) -> float:
        v = float(self.coeff)
        if self.base is not None:
            v *= CONSTANTS[self.base]
        return v

    def __str__(self) -> str:
        if self.base is None:
            return str(self.coeff)
        if self.coeff == 1:
            return self.base
        return f"{self.coeff}{self.base}"


_EXACT = re.compile(
    r"\s*(?P<num>\d+(?:/\d+)?)?\s*\*?\s*(?P<base>[a-zA-Z][a-zA-Z0-9]*)?\s*"
    r"(?:/\s*(?P<den>\d+))?\s*"
)


def parse_exact_real(text: str) -> ExactReal:
    """Parse an exact parameter such as ``2/3``, ``pi``, ``2pi`` or ``pi/2``."""
    m = _EXACT.fullmatch(text.strip())
    if not m or (m.group("num") is None and m.group("base") is None):
        raise ParseError(f"cannot parse exact value {text!r}")
    coeff = Fraction(m.group("num")) if m.group("num") else Fraction(1)
    if m.group("den"):
        coeff /= int(m.group("den"))
    return ExactReal(coeff, m.group("base"))


def ratio_rationality(x: ExactReal, y: ExactReal) -> Fraction | None | str:
    """Decide rationality of x/y symbolically.

    Returns the exact Fraction when the ratio is rational, the string
    ``"irrational"`` when it is provably irrational, and None when the
    question is not decidable from the tags (e.g. e/pi).
    """
    if x.base == y.base:
        return x.coeff / y.coeff
    if x.base is None or y.base is None:
        # rational vs irrational constant: ratio is irrational
        return "irrational"
    # Ratios of distinct named constants: pi and e are transcendental, sqrt2 is
    # algebraic, so mixed algebraic/transcendental pairs are irrational.  The
    # rationality of e/pi is open, so that pair stays undecided.
    algebraic = {"sqrt2"}
    if (x.base in algebraic) != (y.base in algebraic):
        return "irrational"
    return None
