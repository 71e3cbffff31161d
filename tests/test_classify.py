from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locnash import classify
from locnash.classify import (
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    UNDETERMINED,
    Verdict,
    classify_1d,
    classify_2d,
    compare_2d,
    isomorphic_1d,
    rational_detect,
)
from locnash.errors import NotRealStructure
from locnash.lattices import DEFAULT_TOL, Lattice1, is_real
from locnash.scalars import ExactReal
from locnash.structures import (
    StructureDescriptor,
    exp_map,
    identity_map,
    painleve,
    is_real_structure,
    period_group,
    sin_map,
    wp_real,
)

SQ = Lattice1(1, 1j)
RECT = Lattice1(1, 2j)


# -- rational detection -------------------------------------------------------------

def test_rational_detect_half():
    assert rational_detect(0.5) == Fraction(1, 2)


def test_rational_detect_rejects_pi():
    # best convergent 355/113 misses the 1e-9/q^2 gate by many orders
    assert rational_detect(np.pi) is None


def test_rational_detect_near_miss_accepted():
    assert rational_detect(2 / 7 + 1e-15) == Fraction(2, 7)


def test_rational_detect_zero_and_negative():
    assert rational_detect(0.0) == Fraction(0)
    assert rational_detect(-0.75) == Fraction(-3, 4)


@given(st.integers(-100, 100), st.integers(1, 100))
@settings(max_examples=300, deadline=None)
def test_rational_detect_exact_small_rationals(p, q):
    assert rational_detect(p / q) == Fraction(p, q)


@given(st.integers(1, 3000), st.data())
@settings(max_examples=300, deadline=None)
def test_rational_detect_certain_inside_rounding(q, data):
    # p/q rounds by at most 2^-53 |p/q|, inside the 1e-9/q^2 gate while |p| q < 9e6
    bound = (9 * 10**6 - 1) // q
    p = data.draw(st.integers(-bound, bound))
    assert rational_detect(p / q) == Fraction(p, q)


def test_rational_detect_exhaustive_small_rationals():
    for q in range(1, 101):
        for p in range(-100, 101):
            assert rational_detect(p / q) == Fraction(p, q)


# -- 1-D classification -----------------------------------------------------------------

def test_classify_id():
    assert classify_1d(identity_map()).kind == "id"


def test_classify_exp_with_alpha():
    assert classify_1d(exp_map(alpha=3.0)).kind == "exp"


def test_classify_sin():
    assert classify_1d(sin_map()).kind == "sin"


def test_classify_wp_normalizes_lattice():
    # <2, 4i> scales by its real generator to <1, 2i>
    d = StructureDescriptor(1, "wp_real", a=2.0, lattice=Lattice1(2, 4j))
    form = classify_1d(d)
    assert form.kind == "wp" and form.a == pytest.approx(2.0)


@pytest.mark.parametrize("k", [60, 100, 1000, 100000])
def test_classify_wp_skew_basis(k):
    # <1, k + i> is <1, i> written with a long second generator
    d = StructureDescriptor(1, "wp_real", a=1.0, lattice=Lattice1(1, k + 1j))
    form = classify_1d(d)
    assert form.kind == "wp" and form.a == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("a", [3e-9, 1e-8, 1.0, 3e8, 5e8, 9e8])
def test_classify_wp_exact_parameter_at_any_elongation(a):
    # each axis candidate is gated against its own length, so the short
    # generator of <1, ia> is found however long the other one is
    form = classify_1d(wp_real(a))
    assert form.kind == "wp" and form.a == a


@pytest.mark.parametrize("s", [1e-200, 1e200])
def test_classify_wp_at_extreme_scale(s):
    d = StructureDescriptor(1, "wp_real", a=1.0, lattice=Lattice1(s, s * 1j))
    form = classify_1d(d)
    assert form.kind == "wp" and form.a == 1.0


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_complex_a_not_real_at_any_scale(scale):
    # a's imaginary part is measured against |a|, as alpha's against alpha
    d = painleve("p5", a=scale * (1 + 1j), lattice=SQ)
    assert not is_real_structure(d)
    assert is_real_structure(painleve("p5", a=scale, lattice=SQ))
    with pytest.raises(NotRealStructure):
        compare_2d(d, painleve("p3"))


def test_classify_wp_under_real_alpha():
    form = classify_1d(wp_real(1.5, alpha=0.7))
    assert form.kind == "wp" and form.a == pytest.approx(1.5)


def test_classify_rejects_non_real():
    with pytest.raises(NotRealStructure):
        classify_1d(exp_map(alpha=1j))


def test_classify_rejects_tiny_non_real_alpha():
    """The realness test is relative to alpha, so a tiny complex alpha is
    not taken for a real one."""
    with pytest.raises(NotRealStructure):
        classify_1d(exp_map(alpha=1.4e-45 * (1 + 1j)))


def test_classify_centered_real_lattice():
    # <1, (1+1.5i)/2> is conjugation-closed without an axis basis; the
    # canonical search must still find <1, 1.5i> up to finite index
    d = StructureDescriptor(1, "wp_real", a=1.5, lattice=Lattice1(1, (1 + 1.5j) / 2))
    form = classify_1d(d)
    assert form.kind == "wp"
    assert rational_detect(form.a / 1.5) is not None


def _rounded_once(u, w1, w2):
    """u[0] w1 + u[1] w2, exact in rationals and rounded once."""
    return complex(*(float(u[0] * Fraction(x) + u[1] * Fraction(y))
                     for x, y in ((w1.real, w2.real), (w1.imag, w2.imag))))


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-100.0, 100.0), st.booleans(),
       st.lists(st.tuples(st.booleans(), st.integers(-4, 4)), max_size=8))
@example(2.5, -74.0, True,
         [(False, -2), (True, -3), (False, 2), (True, 2), (False, -4), (True, -3), (False, -4)])
@example(2.197, -98.0, False,
         [(False, 3), (True, 4), (False, 3), (False, -1), (True, -4), (False, -4), (True, -1),
          (True, 4)])
def test_classify_wp_in_any_basis(log_a, log_s, centred, shears):
    """A rectangular <1, ia> or centred <1, (1 + ia)/2> lattice, scaled by s
    and written through random shears, classifies to wp with its a: no axis
    gate can miss on a skew basis.  Each sheared generator is one exact
    integer combination, rounded once; a draw that rounding leaves off the
    realness gate is skipped."""
    a, s = 10.0**log_a, 10.0**log_s
    w1, w2 = complex(s), (complex(s / 2, s * a / 2) if centred else complex(0, s * a))
    U = np.eye(2, dtype=np.int64)
    for first, t in shears:
        U[int(first)] += t * U[1 - int(first)]
    gens = [_rounded_once(row.tolist(), w1, w2) for row in U]
    d = StructureDescriptor(1, "wp_real", a=a, lattice=Lattice1(*gens))
    assume(is_real_structure(d))
    form = classify_1d(d)
    assert form.kind == "wp" and form.a == pytest.approx(a, rel=1e-8, abs=0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["exp", "sin"]), st.floats(-100.0, 100.0), st.floats(0.1, 1.0),
       st.booleans())
def test_classify_rank1_under_real_alpha_at_any_scale(family, log_c, mantissa, negative):
    c = (-1.0 if negative else 1.0) * mantissa * 10.0**log_c
    d = StructureDescriptor(1, family, alpha=((complex(c),),))
    assert classify_1d(d).kind == family


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["id", "exp", "sin"]), st.floats(-3.0, 3.0), st.booleans())
def test_classify_below_rank_2_reads_the_family(family, log_c, negative):
    """Rank 0 and 1 need no conjugation matrix: the family is the form."""
    c = (-1.0 if negative else 1.0) * 10.0**log_c
    d = StructureDescriptor(1, family, alpha=((complex(c),),))

    def no_conjugation(*args):
        raise AssertionError("conjugation read below rank 2")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "conjugation", no_conjugation)
        form = classify_1d(d)
    assert (form.kind, form.rank) == (family, {"id": 0}.get(family, 1))


def test_classify_wp_under_tolerance_real_alpha():
    """An alpha real to DEFAULT_TOL leaves a period group that fails the
    exact realness gate; its conjugation matrix still reads the parameter."""
    d = wp_real(2.0, alpha=1.3 + 1e-12j)
    assert not is_real(period_group(d).group)
    form = classify_1d(d)
    assert form.kind == "wp" and form.a == pytest.approx(2.0, rel=1e-12)


# -- 1-D isomorphism ------------------------------------------------------------------------

def test_wp_rational_ratio_isomorphic():
    v = isomorphic_1d(wp_real(1.0), wp_real(2.0))
    assert v.outcome == ISOMORPHIC
    assert any("1/2" in r for r in v.reasons)


def test_exp_vs_sin_not_isomorphic():
    v = isomorphic_1d(exp_map(), sin_map())
    assert v.outcome == NOT_ISOMORPHIC
    assert any("axis" in r for r in v.reasons)


def test_rank_mismatch_pairs():
    fixtures = [identity_map(), exp_map(), wp_real(1.0)]
    for i, d1 in enumerate(fixtures):
        for d2 in fixtures[i + 1 :]:
            v = isomorphic_1d(d1, d2)
            assert v.outcome == NOT_ISOMORPHIC
            assert "period rank" in v.reasons[0]


def test_wp_pi_with_exact_tags_not_isomorphic():
    d1 = wp_real(1.0, a_exact=ExactReal(Fraction(1)))
    d2 = wp_real(np.pi, a_exact=ExactReal(Fraction(1), "pi"))
    v = isomorphic_1d(d1, d2)
    assert v.outcome == NOT_ISOMORPHIC
    assert any("irrational" in r for r in v.reasons)


def test_wp_pi_without_tags_undetermined():
    v = isomorphic_1d(wp_real(1.0), wp_real(np.pi))
    assert v.outcome == UNDETERMINED
    assert any("denominator" in r for r in v.reasons)


def test_wp_ratio_reasons_name_one_gate():
    gate = f"{DEFAULT_TOL:g}/q^2"
    found = isomorphic_1d(wp_real(1.0), wp_real(2.0)).reasons[-1]
    missed = isomorphic_1d(wp_real(1.0), wp_real(np.pi)).reasons[-1]
    assert gate == "1e-09/q^2" and gate in found and gate in missed


@pytest.mark.parametrize("scale", [1e-9, 1.0])
def test_exact_tags_attach_only_to_their_parameter(scale):
    """A tag names the descriptor's a; on a lattice whose canonical parameter
    is sqrt(2) times a it is dropped, at any scale, and the verdict is read
    in floating point."""
    tag = ExactReal(Fraction(scale).limit_denominator(10**9))
    d1 = StructureDescriptor(1, "wp_real", a=scale, a_exact=tag,
                             lattice=Lattice1(1, 1.41421356j * scale))
    assert classify_1d(d1).a_exact is None
    v = isomorphic_1d(d1, wp_real(scale, a_exact=tag))
    assert v.outcome == UNDETERMINED and not any("exact tags" in r for r in v.reasons)


def _assert_symmetric(a1, a2):
    """Both argument orders give one outcome, and an isomorphic verdict
    names reciprocal ratios."""
    v12 = isomorphic_1d(wp_real(a1), wp_real(a2))
    v21 = isomorphic_1d(wp_real(a2), wp_real(a1))
    assert v12.outcome == v21.outcome
    if v12.outcome == ISOMORPHIC:
        r12, r21 = (Fraction(v.reasons[-1].split()[3]) for v in (v12, v21))
        assert r12 * r21 == 1
    return v12


@given(st.integers(300, 2999), st.data(), st.floats(0.5, 2.0))
@settings(max_examples=300, deadline=None)
def test_wp_ratio_verdict_symmetric(q, data, b):
    # above the certain range (p q >= 9e6 for p/q) rounding decides recovery
    # of x and 1/x apart; the verdict must not follow the argument order
    p = data.draw(st.integers(1, 3 * q - 1))
    _assert_symmetric(b * p / q, b)


@pytest.mark.parametrize("a1, a2, outcome, ratio", [
    # ratio 2697/4181: isomorphic one way and undetermined the other when
    # the ratio was read in argument order
    (1.4626956551182801, 2.267530787560078, ISOMORPHIC, "2697/4181"),
    # 1e-8/20 recovers as 0 inside the gate; 20/1e-8 is the integer 2e9
    (1e-8, 20.0, ISOMORPHIC, "1/2000000000"),
    (1.0, 2.0, ISOMORPHIC, "1/2"),
    (1.0, np.pi, UNDETERMINED, None),
])
def test_wp_ratio_verdict_symmetric_fixed_pairs(a1, a2, outcome, ratio):
    v = _assert_symmetric(a1, a2)
    assert v.outcome == outcome
    if ratio is not None:
        assert v.reasons[-1].startswith(f"ratio a/b = {ratio} detected rational")


def test_same_exact_constant_cancels():
    d1 = wp_real(np.pi, a_exact=ExactReal(Fraction(1), "pi"))
    d2 = wp_real(2 * np.pi, a_exact=ExactReal(Fraction(2), "pi"))
    v = isomorphic_1d(d1, d2)
    assert v.outcome == ISOMORPHIC


def test_isomorphic_under_random_real_alpha(rng):
    fixtures = [identity_map(), exp_map(), sin_map(), wp_real(1.5)]
    for d in fixtures:
        for _ in range(20):
            c = float(rng.uniform(0.2, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
            d2 = StructureDescriptor(
                d.dim, d.family, a=d.a, lattice=d.lattice, alpha=((complex(c),),)
            )
            assert isomorphic_1d(d, d2).outcome == ISOMORPHIC, (d.family, c)


# -- 2-D classification ------------------------------------------------------------------------

def test_classify_2d_examples():
    f = classify_2d(painleve("p4", a=1, lattice=SQ))
    assert (f.index, f.rank) == (4, 2)
    f1 = classify_2d(painleve("p1"))
    assert (f1.index, f1.rank) == (1, 0)
    f5 = classify_2d(painleve("p5", a=0.7, lattice=RECT))
    assert (f5.index, f5.rank) == (5, 3)


def test_compare_2d_rank_separation():
    v = compare_2d(painleve("p2"), painleve("p5", a=0.3, lattice=SQ))
    assert v.outcome == NOT_ISOMORPHIC
    assert "1" in v.reasons[0] and "3" in v.reasons[0]


def test_compare_2d_equal_rank_family_separation():
    v = compare_2d(painleve("p3"), painleve("p4", a=1, lattice=SQ))
    assert v.outcome == NOT_ISOMORPHIC
    assert any("family separation" in r for r in v.reasons)


def test_compare_2d_same_family_undetermined():
    v = compare_2d(
        painleve("p4", a=1, lattice=SQ), painleve("p4", a=1, lattice=RECT)
    )
    assert v.outcome == UNDETERMINED


def test_compare_2d_symmetric():
    pairs = [
        (painleve("p2"), painleve("p5", a=0.3, lattice=SQ)),
        (painleve("p3"), painleve("p4", a=1, lattice=SQ)),
        (painleve("p4", a=1, lattice=SQ), painleve("p4", a=0, lattice=RECT)),
        (painleve("p1"), painleve("p6_product", lattice=SQ, lattice2=RECT)),
    ]
    for d1, d2 in pairs:
        assert compare_2d(d1, d2) == compare_2d(d2, d1)


def test_compare_2d_requires_real():
    with pytest.raises(NotRealStructure):
        compare_2d(
            painleve("p4", a=1, lattice=Lattice1(1, 0.3 + 1j)), painleve("p3")
        )


def test_verdict_invariant():
    with pytest.raises(ValueError):
        Verdict(UNDETERMINED, ())
    with pytest.raises(ValueError):
        Verdict("maybe", ("x",))


def test_rank_trace_matches_z_rank():
    from locnash.structures import z_rank

    d1, d2 = painleve("p2"), painleve("p5", a=0.3, lattice=SQ)
    v = compare_2d(d1, d2)
    r1 = z_rank(d1)
    r2 = z_rank(d2)
    assert f"{min(r1, r2)}" in v.reasons[0] and f"{max(r1, r2)}" in v.reasons[0]
