import numpy as np
import pytest

import helpers
from locnash.errors import SingularMatrix
from locnash.lattices import Lattice1
from locnash.structures import (
    FAMILY_RANK,
    StructureDescriptor,
    evaluate_map,
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
            assert zr(d) == FAMILY_RANK[fam], fam


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


def test_singular_alpha_rejected():
    d = StructureDescriptor(1, "exp", alpha=((0j,),))
    with pytest.raises(SingularMatrix):
        pg(d)


@pytest.mark.parametrize("d", [exp_map(5e-324), painleve("p2", alpha=[[5e-324, 0], [0, 1]])],
                         ids=["exp", "p2"])
def test_alpha_with_overflowing_inverse_rejected(d):
    """alpha is invertible in floating point but 1 / 5e-324 is inf."""
    with pytest.raises(SingularMatrix, match="overflows"):
        pg(d)


# -- map evaluation ------------------------------------------------------------------

def test_p3_at_origin():
    mv = evaluate_map(painleve("p3"), (0, 0))
    assert mv.values == (1 + 0j, 1 + 0j) and mv.poles == (False, False)


def test_sin_standard_value():
    mv = evaluate_map(sin_map(), np.pi / 6)
    assert abs(mv.values[0] - 0.5) < 1e-12


def test_wp_real_map_pole_flag():
    mv = evaluate_map(wp_real(1.0), 0.0)
    assert mv.poles == (True,)


def test_alpha_precomposition():
    d = exp_map(alpha=2.0)
    mv = evaluate_map(d, 0.5)
    assert abs(mv.values[0] - np.exp(1.0)) < 1e-12


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


# -- descriptor validation ----------------------------------------------------------------

def test_wp_real_builds_its_lattice():
    d = wp_real(2.5)
    assert d.lattice == Lattice1(1, 2.5j)


def test_p4_parameter_restricted():
    with pytest.raises(ValueError):
        painleve("p4", a=0.5, lattice=SQ)


def test_wp_real_needs_positive_a():
    with pytest.raises(ValueError):
        wp_real(-1.0)
    with pytest.raises(ValueError):
        StructureDescriptor(1, "wp_real", a=1j)


def test_family_dim_mismatch():
    with pytest.raises(ValueError):
        StructureDescriptor(1, "p3")
    with pytest.raises(ValueError):
        StructureDescriptor(2, "exp")
