"""Parsing of complex scalar and lattice literals, and exact real parameters.

Scalar grammar (used by the CLI and descriptor files):

    scalar  := term (('+'|'-') term)*
    term    := [sign] [number] ['pi'] ['*'] ['i']

so ``1``, ``-2.5``, ``2i``, ``1+2i``, ``pi``, ``2pi``, ``2pi*i`` and ``1e-3``
are all accepted.  A lattice literal is ``lattice(g, ...)`` where each
generator ``g`` is either a scalar (dimension 1) or a tuple ``(x, y)`` of
scalars (dimension 2).  Floats are written back with ``fmt``.
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


def _split_generators(body: str) -> list[str]:
    """Split the body of lattice(...) on top-level commas."""
    parts: list[str] = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses in lattice literal")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced parentheses in lattice literal")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_lattice_literal(text: str) -> tuple[int, list[tuple[complex, ...]]]:
    """Parse ``lattice(...)`` into (dimension, generator tuples)."""
    s = text.strip()
    m = re.fullmatch(r"lattice\s*\((?P<body>.*)\)", s, flags=re.DOTALL)
    if not m:
        raise ParseError(f"not a lattice literal: {text!r}")
    gens_raw = _split_generators(m.group("body"))
    if gens_raw == [""]:
        raise ParseError("lattice literal needs at least one generator")
    gens: list[tuple[complex, ...]] = []
    dim = None
    for g in gens_raw:
        if g.startswith("("):
            comps = _split_generators(g[1:-1]) if g.endswith(")") else None
            if comps is None:
                raise ParseError(f"malformed generator {g!r}")
            vec = tuple(parse_complex(c) for c in comps)
        else:
            vec = (parse_complex(g),)
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ParseError("mixed generator dimensions in lattice literal")
        gens.append(vec)
    assert dim is not None
    if dim not in (1, 2):
        raise ParseError(f"unsupported lattice dimension {dim}")
    return dim, gens


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
