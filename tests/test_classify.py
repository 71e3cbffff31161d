from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from locnash.lattices import Lattice1
from locnash.scalars import ExactReal
from locnash.structures import (
    StructureDescriptor,
    exp_map,
    identity_map,
    painleve,
    sin_map,
    wp_real,
)

SQ = Lattice1(1, 1j)
RECT = Lattice1(1, 2j)


# -- rational detection -------------------------------------------------------------

def test_rational_detect_half():
    assert rational_detect(0.5, 10**6, 1e-12) == Fraction(1, 2)


def test_rational_detect_rejects_pi():
    # best convergent 355/113 misses the tol/q^2 gate by many orders
    assert rational_detect(np.pi, 10**6, 1e-12) is None


def test_rational_detect_near_miss_accepted():
    assert rational_detect(2 / 7 + 1e-15, 10**6, 1e-12) == Fraction(2, 7)


def test_rational_detect_zero_and_negative():
    assert rational_detect(0.0) == Fraction(0)
    assert rational_detect(-0.75) == Fraction(-3, 4)


@given(st.integers(-100, 100), st.integers(1, 100))
@settings(max_examples=300, deadline=None)
def test_rational_detect_exact_small_rationals(p, q):
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


@pytest.mark.parametrize("k", [60, 100, 1000])
def test_classify_wp_skew_basis(k):
    # <1, k + i> is <1, i> written with a long second generator
    d = StructureDescriptor(1, "wp_real", a=1.0, lattice=Lattice1(1, k + 1j))
    form = classify_1d(d)
    assert form.kind == "wp" and form.a == pytest.approx(1.0, abs=1e-9)


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
    assert rational_detect(form.a / 1.5, 10**4, 1e-9) is not None


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
