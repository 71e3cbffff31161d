import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from locnash.descriptors import parse_lattice1
from locnash.errors import ParseError
from locnash.lattices import Lattice1
from locnash.scalars import ExactReal, parse_complex, parse_exact_real, ratio_rationality


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("2i", 2j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("pi", math.pi),
        ("2pi", 2 * math.pi),
        ("2pi*i", 2j * math.pi),
        ("pi*i", 1j * math.pi),
        ("i", 1j),
        ("-i", -1j),
        ("1e-3", 1e-3),
        (".5i", 0.5j),
        ("2j", 2j),
        (" ( 2pi*i ) ", 2j * math.pi),
    ],
)
def test_parse_complex(text, expected):
    assert parse_complex(text) == pytest.approx(expected)


@pytest.mark.parametrize("bad", ["", "1+", "x", "2**i", "1 2", "+-1"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ParseError):
        parse_complex(bad)


@given(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
def test_parse_complex_roundtrip(re, im):
    text = f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"
    assert parse_complex(text) == complex(re, im)


@pytest.mark.parametrize("text", ["lattice(1, 2i)", " lattice ( 1 , (2i) ) "])
def test_parse_lattice(text):
    assert parse_lattice1(text) == Lattice1(1, 2j)


@pytest.mark.parametrize("bad", [
    "lattice()", "latice(1,2)", "lattice((1,2),3)", "lattice(1,(2,3)",
    "lattice((2pi*i,0),(0,2pi*i))", "lattice(1, ((2i)))",
])
def test_parse_lattice_rejects(bad):
    with pytest.raises(ParseError):
        parse_lattice1(bad)


def test_exact_real():
    assert parse_exact_real("2/3") == ExactReal(Fraction(2, 3))
    assert parse_exact_real("pi") == ExactReal(Fraction(1), "pi")
    assert parse_exact_real("2pi") == ExactReal(Fraction(2), "pi")
    assert parse_exact_real("pi/2") == ExactReal(Fraction(1, 2), "pi")
    assert parse_exact_real("3/2 pi").value() == pytest.approx(1.5 * math.pi)
    with pytest.raises(ParseError):
        parse_exact_real("tau")


def test_ratio_rationality():
    one = ExactReal(Fraction(1))
    pi = ExactReal(Fraction(1), "pi")
    two_pi = ExactReal(Fraction(2), "pi")
    r2 = ExactReal(Fraction(1), "sqrt2")
    e = ExactReal(Fraction(1), "e")
    assert ratio_rationality(two_pi, pi) == Fraction(2)
    assert ratio_rationality(one, pi) == "irrational"
    assert ratio_rationality(pi, one) == "irrational"
    assert ratio_rationality(pi, r2) == "irrational"  # transcendental / algebraic
    assert ratio_rationality(e, pi) is None  # open question, stays undecided
