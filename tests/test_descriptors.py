import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locnash.classify import classify_1d, classify_2d
from locnash.descriptors import parse_descriptor, serialize_descriptor
from locnash.errors import ParseError
from locnash.lattices import Lattice1
from locnash.scalars import ExactReal
from locnash.structures import (
    FAMILIES,
    PARAMETERS,
    StructureDescriptor,
    painleve,
    period_group,
    wp_real,
)


def test_parse_minimal():
    d = parse_descriptor("dim = 1\nfamily = exp\n")
    assert d.dim == 1 and d.family == "exp" and d.alpha_is_identity


def test_parse_full_p4():
    d = parse_descriptor(
        """
        # an elliptic-mixed structure
        dim = 2
        family = p4
        a = 1
        lattice = lattice(1, 1i)
        alpha = 1, 0, 0, 1
        """
    )
    assert d.family == "p4" and d.lattice == Lattice1(1, 1j)


def test_parse_p6_two_lattices():
    d = parse_descriptor(
        "dim = 2\nfamily = p6_product\nlattice = lattice(1,1i)\nlattice2 = lattice(1,2i)\n"
    )
    assert d.lattice2 == Lattice1(1, 2j)


def test_parse_exact_tag():
    d = parse_descriptor("dim = 1\nfamily = wp_real\na = 3.141592653589793\na_exact = pi\n")
    assert d.a_exact is not None and d.a_exact.base == "pi"


def test_unknown_field_rejected():
    with pytest.raises(ParseError):
        parse_descriptor("dim = 1\nfamily = exp\ncolour = blue\n")


def test_duplicate_field_rejected():
    with pytest.raises(ParseError):
        parse_descriptor("dim = 1\nfamily = exp\nfamily = sin\n")


def test_missing_required_rejected():
    with pytest.raises(ParseError):
        parse_descriptor("family = exp\n")
    with pytest.raises(ParseError):
        parse_descriptor("dim = 2\nfamily = p4\na = 1\n")  # lattice missing


def test_alpha_entry_count_checked():
    with pytest.raises(ParseError):
        parse_descriptor("dim = 2\nfamily = p3\nalpha = 1, 0, 0\n")


def test_inconsistent_exact_tag_rejected():
    with pytest.raises(ParseError):
        parse_descriptor("dim = 1\nfamily = wp_real\na = 2\na_exact = pi\n")


@pytest.mark.parametrize(
    "d",
    [
        wp_real(2.0),
        painleve("p4", a=1, lattice=Lattice1(1, 1j)),
        painleve("p5", a=0.3 + 0.1j, lattice=Lattice1(1, 2j), alpha=[[1, 2], [0, 1]]),
        painleve("p6_product", lattice=Lattice1(1, 1j), lattice2=Lattice1(1, 2j)),
        parse_descriptor("dim = 1\nfamily = wp_real\na = 3.141592653589793\na_exact = pi\n"),
    ],
)
def test_serialize_round_trip(d):
    assert parse_descriptor(serialize_descriptor(d)) == d


def test_serialized_lattice_uses_literal_grammar():
    text = serialize_descriptor(painleve("p4", a=0, lattice=Lattice1(1, 2j)))
    assert "lattice = lattice(1, 2i)" in text


# -- explicit wp_real lattices -------------------------------------------------------

def test_wp_real_explicit_lattice_round_trips():
    # <1, i> is not the default <1, 2i> of a = 2; the lattice, not a, decides
    d = parse_descriptor("dim = 1\nfamily = wp_real\na = 2\nlattice = lattice(1, 1i)\n")
    text = serialize_descriptor(d)
    assert "lattice = lattice(1, 1i)" in text
    d2 = parse_descriptor(text)
    assert d2 == d
    for x in (d, d2):
        form = classify_1d(x)
        assert form.kind == "wp" and form.a == pytest.approx(1.0)
    assert period_group(d).closed_form == ("omega1", "omega2")


def test_wp_real_default_lattice_stays_implicit():
    d = parse_descriptor("dim = 1\nfamily = wp_real\na = 2\nlattice = lattice(1, 2i)\n")
    assert d == wp_real(2.0)
    assert serialize_descriptor(d) == "dim = 1\nfamily = wp_real\na = 2\n"
    assert period_group(d).closed_form == ("1", "i*a")


# -- fields per family ----------------------------------------------------------------

#: a value of each parameter field that every family using the field accepts
VALID = {"a": "1", "a_exact": "1", "lattice": "lattice(1, 1i)", "lattice2": "lattice(1, 2i)"}


def document(family: str, fields) -> str:
    fam = FAMILIES[family]
    lines = [f"dim = {fam.dim}", f"family = {family}"]
    lines += [f"{name} = {VALID[name]}" for name in fields]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_allowed_fields_parse(family):
    fam = FAMILIES[family]
    assert parse_descriptor(document(family, fam.required)).family == family
    assert parse_descriptor(document(family, fam.allowed)).family == family
    for name in fam.required:
        with pytest.raises(ParseError, match=f"needs {name}"):
            parse_descriptor(document(family, [f for f in fam.required if f != name]))


@pytest.mark.parametrize(
    "family, field",
    [(name, field) for name, fam in sorted(FAMILIES.items())
     for field in PARAMETERS if field not in fam.allowed],
)
def test_unused_field_rejected(family, field):
    fields = FAMILIES[family].required + (field,)
    with pytest.raises(ParseError, match=f"does not use {field}"):
        parse_descriptor(document(family, fields))


@pytest.mark.parametrize("line", ["= 1", "dim 1", "a =", "family = exp"])
def test_reader_rejects_malformed_lines(line):
    with pytest.raises(ParseError):
        parse_descriptor(f"dim = 1\nfamily = exp\n{line}\n")


# -- serialize -> parse over the whole table -------------------------------------------

#: integer basis changes of determinant 1, from none to long skew generators
UNIMODULAR = [(1, 0, 0, 1), (1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, 5, 0, 1), (3, 7, 2, 5)]


@st.composite
def lattices(draw):
    """A lattice in a skew basis; half of them conjugation-closed
    (rectangular or rhombic with a real generator)."""
    real = draw(st.booleans())
    theta = 0.0 if real else draw(st.floats(-3.0, 3.0))
    re_tau = draw(st.sampled_from([0.0, 0.5])) if real else draw(st.floats(-0.5, 0.5))
    r1 = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * theta)
    r2 = r1 * complex(re_tau, draw(st.floats(0.9, 2.0)))
    a, b, c, d = draw(st.sampled_from(UNIMODULAR))
    return Lattice1(a * r1 + b * r2, c * r1 + d * r2)


SCALARS = st.one_of(
    st.sampled_from([0, 1]),
    st.floats(0.05, 20.0),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
EXACT = st.builds(
    ExactReal,
    st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12),
    st.sampled_from([None, "pi", "sqrt2", "e"]),
)
ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def descriptors(draw):
    """Any family of the table, each allowed field present or not, real or
    complex alpha (or none)."""
    fam = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    kw = {}
    for name in PARAMETERS:
        if name not in fam.required and (name not in fam.allowed or draw(st.booleans())):
            continue
        if name == "a":
            ok = fam.a_range[1] if fam.a_range else (lambda a: True)
            kw["a"] = draw(SCALARS.filter(lambda a: ok(complex(a))))
        elif name == "a_exact":
            kw["a_exact"] = draw(EXACT)
            kw["a"] = kw["a_exact"].value()
        else:
            kw[name] = draw(lattices())
    if draw(st.booleans()):
        n = fam.dim
        kw["alpha"] = tuple(tuple(draw(ENTRIES) for _ in range(n)) for _ in range(n))
    return StructureDescriptor(fam.dim, fam.name, **kw)


def outcome(d):
    """The classification of d, or the type and message of what it raised."""
    classify = classify_1d if d.dim == 1 else classify_2d
    try:
        return classify(d)
    except Exception as exc:  # e.g. SingularMatrix for an alpha near 0
        return type(exc), str(exc)


@given(descriptors())
@settings(max_examples=200, deadline=None)
def test_serialize_parse_round_trip_over_all_families(d):
    d2 = parse_descriptor(serialize_descriptor(d))
    assert d2 == d
    assert outcome(d2) == outcome(d)
