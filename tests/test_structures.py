import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import helpers
from locnash.lattices import Lattice1, conjugation
from locnash.scalars import ExactReal
from locnash.structures import (
    FAMILIES,
    StructureDescriptor,
    exp_map,
    identity_map,
    is_real_structure,
    map_batch,
    painleve,
    period_group,
    sin_map,
    wp_real,
    z_rank,
)

SQ = Lattice1(1, 1j)
RECT = Lattice1(1, 2j)
HEX = Lattice1(1, np.exp(1j * np.pi / 3))


def pg(d):
    return period_group(d)


def zr(d):
    return z_rank(d)


# -- period groups -----------------------------------------------------------------

def test_p1_trivial_group():
    rep = pg(painleve("p1"))
    assert rep.rank == 0 and rep.group.generators == ()


def test_p2_p3_exponential_periods():
    rep2 = pg(painleve("p2"))
    assert rep2.rank == 1
    assert rep2.group.generators[0] == (2j * np.pi, 0j)
    rep3 = pg(painleve("p3"))
    assert rep3.rank == 2
    assert rep3.group.generators[1] == (0j, 2j * np.pi)


def test_p4_generators_carry_eta_values():
    rep = pg(painleve("p4", a=1, lattice=SQ))
    (g1, g2) = rep.group.generators
    assert g1[0] == SQ.omega1 and g2[0] == SQ.omega2
    # 2*zeta(1/2) = pi on the square lattice (Legendre + symmetry oracle)
    assert abs(g1[1] - np.pi) < 1e-8
    assert abs(g2[1] + 1j * np.pi) < 1e-8


def test_p5_rank_three():
    rep = pg(painleve("p5", a=0.3, lattice=SQ))
    assert rep.rank == 3
    assert rep.group.generators[2] == (0j, 2j * np.pi)


def test_p6_product_rank_four():
    assert zr(painleve("p6_product", lattice=SQ, lattice2=RECT)) == 4


def test_1d_period_groups():
    assert pg(identity_map()).rank == 0
    assert pg(exp_map()).group.generators == ((2j * np.pi,),)
    assert pg(sin_map()).group.generators == ((2 * np.pi + 0j,),)
    rep = pg(wp_real(2.0))
    assert rep.rank == 2
    assert rep.group.generators == ((1 + 0j,), (2j,))


def test_z_rank_table_random_draws(rng):
    for _ in range(20):
        a = float(rng.uniform(0.2, 3.0))
        w2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 2.0))
        lat = Lattice1(1.0, w2)
        lat2 = Lattice1(1.0, complex(0, rng.uniform(0.5, 2.5)))
        cases = {
            "id": identity_map(), "exp": exp_map(), "sin": sin_map(),
            "wp_real": wp_real(a),
            "p1": painleve("p1"), "p2": painleve("p2"), "p3": painleve("p3"),
            "p4": painleve("p4", a=int(rng.integers(0, 2)), lattice=lat),
            "p5": painleve("p5", a=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), lattice=lat),
            "p6_product": painleve("p6_product", lattice=lat, lattice2=lat2),
        }
        for fam, d in cases.items():
            assert zr(d) == helpers.PERIOD_RANK[fam], fam


def test_rank_invariant_under_alpha(rng):
    fixtures = [
        identity_map(), exp_map(), sin_map(), wp_real(1.5),
        painleve("p1"), painleve("p2"), painleve("p3"),
        painleve("p4", a=1, lattice=SQ),
        painleve("p5", a=0.3, lattice=SQ),
        painleve("p6_product", lattice=SQ, lattice2=RECT),
    ]
    for d in fixtures:
        base = zr(d)
        for _ in range(5):
            A = helpers.random_real_invertible(rng, d.dim)
            d2 = StructureDescriptor(
                d.dim, d.family, a=d.a, lattice=d.lattice, lattice2=d.lattice2,
                alpha=tuple(tuple(x for x in row) for row in A),
            )
            assert zr(d2) == base


def _unitary(rng, n, real):
    """A random orthogonal (real) or unitary matrix, Q of a QR factorisation."""
    A = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    return np.linalg.qr(A)[0].astype(complex)


# <c, c tau> at |c| in [1e-3, 1e3], arg c in (-pi, pi], Im tau in [1e-1, 1e4]
SCALED_LATTICES = st.builds(
    lambda r, t, re, e: Lattice1(r * np.exp(1j * t), r * np.exp(1j * t) * complex(re, 10.0**e)),
    st.floats(1e-3, 1e3), st.floats(-np.pi, np.pi), st.floats(-0.5, 0.5), st.floats(-1, 4))


@st.composite
def pulled_back_descriptors(draw):
    """A descriptor of any family under a random real or complex alpha,
    U diag(1, 10^-k) V scaled by 10^e with U, V orthogonal or unitary and k
    in [0, 8], so the condition number reaches 1e8."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    dim = FAMILIES[family].dim
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = np.diag([1.0, 10.0 ** -draw(st.floats(0, 8))][:dim])
    U, V = _unitary(rng, dim, real), _unitary(rng, dim, real)
    alpha = 10.0 ** draw(st.floats(-3, 3)) * U @ sigma @ V
    kwargs = {
        "wp_real": lambda: {"a": draw(st.floats(1e-3, 1e3))},
        "p4": lambda: {"a": draw(st.sampled_from([0, 1])), "lattice": draw(SCALED_LATTICES)},
        "p5": lambda: {"a": complex(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))),
                       "lattice": draw(SCALED_LATTICES)},
        "p6_product": lambda: {"lattice": draw(SCALED_LATTICES),
                               "lattice2": draw(SCALED_LATTICES)},
    }.get(family, dict)()
    return StructureDescriptor(dim, family, alpha=tuple(map(tuple, alpha)), **kwargs)


def _bits(G):
    return np.array(G.generators, dtype=complex).tobytes()


@settings(max_examples=400, deadline=None)
@given(pulled_back_descriptors())
def test_period_group_matches_the_two_step_pull_back(d):
    """One group built on alpha^-1 g equals, bit for bit, the model's group
    pulled back generator by generator; where one raises, both raise the
    same type."""
    try:
        want, forms = helpers.pulled_back_period_group(d)
    except Exception as exc:
        event(f"raises {type(exc).__name__}")
        with pytest.raises(type(exc)):
            period_group(d)
        return
    rep = period_group(d)
    assert _bits(rep.group) == _bits(want) and rep.rank == want.rank
    assert rep.closed_form == forms


def test_singular_alpha_rejected():
    with pytest.raises(ValueError, match="alpha is singular"):
        StructureDescriptor(1, "exp", alpha=((0j,),))
    with pytest.raises(ValueError, match="alpha is singular"):
        painleve("p3", alpha=[[1, 0], [1, 0]])


def test_singular_subnormal_alpha_rejected():
    """u v^T at half the smallest normal double: LU inverts it to a finite,
    well-conditioned matrix, while alpha's own singular values show it
    singular."""
    t = 1.1125369292536007e-308
    with pytest.raises(ValueError, match="condition number inf"):
        painleve("p1", alpha=[[t, 2 * t], [t, 2 * t]])


@pytest.mark.parametrize("build", [lambda: exp_map(5e-324),
                                   lambda: painleve("p2", alpha=[[5e-324, 0], [0, 1]])],
                         ids=["exp", "p2"])
def test_alpha_with_overflowing_inverse_rejected(build):
    """alpha is invertible in floating point but 1 / 5e-324 is inf."""
    with pytest.raises(ValueError, match="not finite"):
        build()


def test_ill_conditioned_alpha_rejected():
    with pytest.raises(ValueError, match="condition number"):
        painleve("p2", alpha=[[1, 0], [0, 1e-10]])
    assert pg(painleve("p2", alpha=[[1, 0], [0, 1e-8]])).rank == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d, source", [
    (painleve("p3", alpha=[[2e-308, 0], [0, 2e-308]]), "the periods"),
    (painleve("p6_product", lattice=Lattice1(1, 1j), lattice2=Lattice1(1e307, 1e307j),
              alpha=[[1, 0], [0, 0.01]]),
     "the periods of lattice <1+0j, 0+1j> x <9.9999999999999999e+306+0j, "
     "0+9.9999999999999999e+306j>"),
], ids=["p3", "p6_product"])
def test_pull_back_past_the_double_range_refused(d, source):
    """alpha passes its gate, but alpha^-1 carries a period past the double
    range: one ValueError naming the lattices, and no warning."""
    with pytest.raises(ValueError) as info:
        period_group(d)
    assert str(info.value) == f"{source} pulled back by alpha^-1 leave the double range"


# -- map evaluation ------------------------------------------------------------------

def test_p3_at_origin():
    vals, poles = map_batch(painleve("p3"), 0, 0)
    assert [v.tolist() for v in vals] == [[1 + 0j], [1 + 0j]]
    assert [p.tolist() for p in poles] == [[False], [False]]


def test_sin_standard_value():
    (vals,), _ = map_batch(sin_map(), np.pi / 6)
    assert abs(vals[0] - 0.5) < 1e-12


def test_wp_real_map_pole_flag():
    _, (poles,) = map_batch(wp_real(1.0), 0.0)
    assert poles.tolist() == [True]


def test_alpha_precomposition():
    (vals,), _ = map_batch(exp_map(alpha=2.0), 0.5)
    assert abs(vals[0] - np.exp(1.0)) < 1e-12


def test_p4_period_shift_fixes_map(rng):
    d = painleve("p4", a=1, lattice=SQ)
    rep = pg(d)
    (l1, l2) = rep.group.generators[0]
    us = rng.uniform(0.1, 0.4, 10) + 1j * rng.uniform(0.1, 0.4, 10)
    vs = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)
    v0, p0 = map_batch(d, us, vs)
    v1, p1 = map_batch(d, us + l1, vs + l2)
    for k in range(2):
        keep = ~(p0[k] | p1[k])
        assert np.max(np.abs(v1[k][keep] - v0[k][keep])) < 1e-8


def test_period_generators_fix_maps_all_families(rng):
    fixtures = [
        exp_map(), sin_map(), wp_real(1.0),
        painleve("p2"), painleve("p3"),
        painleve("p4", a=1, lattice=SQ),
        painleve("p5", a=0.25, lattice=SQ),
        painleve("p6_product", lattice=SQ, lattice2=RECT),
    ]
    for d in fixtures:
        rep = pg(d)
        n = d.dim
        pts = [rng.uniform(-0.45, 0.45, 12) + 1j * rng.uniform(-0.45, 0.45, 12)
               for _ in range(n)]
        base_v, base_p = map_batch(d, *pts)
        for gen in rep.group.generators:
            shifted = [pts[k] + gen[k] for k in range(n)]
            v, p = map_batch(d, *shifted)
            for k in range(n):
                keep = ~(base_p[k] | p[k])
                assert np.max(np.abs(v[k][keep] - base_v[k][keep])) < 1e-7, d.family


# -- period-group oracle -------------------------------------------------------------------

#: the families with a nonzero period group, and for each model coordinate the
#: descriptor field naming the lattice wp / zeta / sigma read there (None: entire)
ELLIPTIC_FIELDS = {
    "exp": (None,), "sin": (None,), "wp_real": ("lattice",),
    "p2": (None, None), "p3": (None, None), "p4": ("lattice", None),
    "p5": ("lattice", None), "p6_product": ("lattice", "lattice2"),
}
# <1, k + tau>: skew bases for k > 0
LATTICES = st.builds(lambda re, im, k: Lattice1(1, complex(re + k, im)),
                     st.floats(-0.5, 0.5), st.floats(0.7, 2.0), st.integers(0, 4))


@st.composite
def periodic_descriptors(draw):
    """A descriptor of a family with periods under a random real alpha, and a seed."""
    family = draw(st.sampled_from(sorted(ELLIPTIC_FIELDS)))
    dim = len(ELLIPTIC_FIELDS[family])
    seed = draw(st.integers(0, 2**32 - 1))
    kwargs = {
        "wp_real": lambda: {"a": draw(st.floats(0.5, 2.0))},
        "p4": lambda: {"a": draw(st.sampled_from([0, 1])), "lattice": draw(LATTICES)},
        "p5": lambda: {"a": draw(st.sampled_from([0.3, 0.2 + 0.4j, -0.7, 0.5 - 0.9j])),
                       "lattice": draw(LATTICES)},
        "p6_product": lambda: {"lattice": draw(LATTICES), "lattice2": draw(LATTICES)},
    }.get(family, dict)()
    alpha = helpers.random_real_invertible(np.random.default_rng(seed), dim)
    return StructureDescriptor(dim, family, alpha=tuple(map(tuple, alpha)), **kwargs), seed


def _points_off_poles(d, rng, n=8):
    """u with alpha u inside the cells of the model's lattices, at cell
    coordinates in [0.15, 0.85], and in the box |Re|, |Im| <= 1 elsewhere."""
    w = []
    for field in ELLIPTIC_FIELDS[d.family]:
        if field is None:
            w.append(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        else:
            lat = getattr(d, field)
            s, t = rng.uniform(0.15, 0.85, (2, n))
            w.append(s * lat.omega1 + t * lat.omega2)
    return list(np.linalg.solve(d.alpha_matrix, np.array(w)))


def _shift_defect(d, u, shift) -> float:
    """Largest max |f_k(u + shift) - f_k(u)| / max |f_k(u)| over the map
    coordinates k, maxima over the points; inf if a shifted point is a pole."""
    v0, _ = map_batch(d, *u)
    v, p = map_batch(d, *(x + s for x, s in zip(u, shift)))
    if any(pk.any() for pk in p):
        return np.inf
    return max(float(np.max(np.abs(v[k] - v0[k])) / np.max(np.abs(v0[k])))
               for k in range(d.dim))


@settings(max_examples=40, deadline=None)
@given(periodic_descriptors())
def test_period_group_oracle(case):
    """Every closed-form generator is a period of the map; no nonzero element
    of (1/p)P / P is, for p = 2 and 3."""
    d, seed = case
    u = _points_off_poles(d, np.random.default_rng(seed))
    gens = np.array(period_group(d).group.generators)
    assert len(gens) == helpers.PERIOD_RANK[d.family]
    for g in gens:
        assert _shift_defect(d, u, g) <= 1e-10
    for p in (2, 3):
        for c in itertools.product(range(p), repeat=len(gens)):
            if any(c):
                assert _shift_defect(d, u, np.array(c) @ gens / p) >= 0.1, (p, c)


# -- realness ---------------------------------------------------------------------------

def test_is_real_structure_examples():
    assert is_real_structure(wp_real(1.5))
    # the hexagonal lattice is conjugation-stable: conj(e^{i pi/3}) = 1 - e^{i pi/3}
    assert is_real_structure(painleve("p4", a=1, lattice=HEX))
    # a genuinely non-real lattice: conj(0.3 + i) differs from any integer combination
    assert not is_real_structure(painleve("p4", a=1, lattice=Lattice1(1, 0.3 + 1j)))
    assert not is_real_structure(exp_map(alpha=1j))
    assert is_real_structure(painleve("p5", a=0.5, lattice=RECT))
    assert not is_real_structure(painleve("p5", a=0.5 + 0.2j, lattice=RECT))


@pytest.mark.parametrize("scale", [1.4e-45, 1e-12, 1.0, 1e12])
def test_is_real_structure_scale_free_in_alpha(scale):
    assert not is_real_structure(exp_map(alpha=scale * (1 + 1j)))
    assert not is_real_structure(painleve("p3", alpha=[[scale, 0], [0, scale * 1j]]))
    assert is_real_structure(exp_map(alpha=scale))


#: tr S of each family's period group: +1 per real period, -1 per imaginary one
CONJUGATION_TRACE = {"id": 0, "exp": -1, "sin": 1, "wp_real": 0, "p1": 0, "p2": -1,
                     "p3": -2, "p4": 0, "p5": -1, "p6_product": 0}


def test_conjugation_is_an_involution_on_every_period_group(rng):
    """Conjugation acts on each family's period group as an integer S with
    S^2 = I, with and without a random real alpha, which leaves tr S fixed."""
    fixtures = [
        identity_map(), exp_map(), sin_map(), wp_real(1.5), wp_real(0.01),
        painleve("p1"), painleve("p2"), painleve("p3"),
        painleve("p4", a=1, lattice=HEX), painleve("p4", a=0, lattice=RECT),
        painleve("p5", a=0.3, lattice=SQ),
        painleve("p6_product", lattice=SQ, lattice2=Lattice1(1, (1 + 3j) / 2)),
    ]
    for d in fixtures:
        for k in range(6):
            A = np.eye(d.dim) if k == 0 else helpers.random_real_invertible(rng, d.dim)
            d2 = StructureDescriptor(
                d.dim, d.family, a=d.a, lattice=d.lattice, lattice2=d.lattice2,
                alpha=tuple(tuple(x for x in row) for row in A),
            )
            S = conjugation(pg(d2).group)[0]
            assert (S @ S == np.eye(len(S))).all(), (d.family, A)
            assert np.trace(S) == CONJUGATION_TRACE[d.family], (d.family, A)


# -- descriptor validation ----------------------------------------------------------------

def test_wp_real_builds_its_lattice():
    d = wp_real(2.5)
    assert d.lattice == Lattice1(1, 2.5j)


def test_p4_parameter_restricted():
    with pytest.raises(ValueError):
        painleve("p4", a=0.5, lattice=SQ)


@pytest.mark.parametrize("a", [float("nan"), float("inf"), complex(1, float("-inf"))])
@pytest.mark.parametrize("build", [
    lambda a: painleve("p5", a=a, lattice=SQ),
    lambda a: StructureDescriptor(1, "wp_real", a=a, lattice=SQ),
])
def test_non_finite_a_refused(build, a):
    """Construction refuses a non-finite a, which no descriptor file could
    carry back through serialization."""
    with pytest.raises(ValueError, match="finite a|a > 0"):
        build(a)


def test_wp_real_needs_positive_a():
    with pytest.raises(ValueError):
        wp_real(-1.0)
    with pytest.raises(ValueError):
        StructureDescriptor(1, "wp_real", a=1j)


@pytest.mark.parametrize("a, coeff", [(1e-9, Fraction(1, 10**9)), (1.0, Fraction(1)),
                                      (1e8, Fraction(10**8))])
def test_exact_tag_gate_is_relative(a, coeff):
    """a_exact must agree with a relative to |a|: a's own value is accepted
    and 2a is refused at every scale."""
    assert wp_real(a, a_exact=ExactReal(coeff)).a_exact == ExactReal(coeff)
    with pytest.raises(ValueError, match="a_exact disagrees"):
        wp_real(a, a_exact=ExactReal(2 * coeff))


def test_family_dim_mismatch():
    with pytest.raises(ValueError):
        StructureDescriptor(1, "p3")
    with pytest.raises(ValueError):
        StructureDescriptor(2, "exp")
