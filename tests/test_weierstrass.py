import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from locnash.lattices import Lattice1, gauss_reduced_basis, subgroup
from locnash.structures import painleve, period_group
from locnash.weierstrass import (
    LEGENDRE_TOL,
    WeierstrassContext,
    conjugate_lattice_check,
    coset_sum_check,
    get_context,
    sample_reduced,
)


@pytest.fixture(scope="module")
def lattices():
    return [Lattice1(1, 1j), Lattice1(1, 2j), Lattice1(1, np.exp(1j * np.pi / 3))]


# -- parity and periodicity ------------------------------------------------------

def test_parity(lattices, rng):
    for lat in lattices:
        ctx = get_context(lat)
        zs = sample_reduced(lat, 100, rng)
        for fn, sign in ((ctx.zeta_many, -1), (ctx.sigma_many, -1),
                         (ctx.wp_many, +1), (ctx.wp_prime_many, -1)):
            plus, _, _ = fn(zs)
            minus, _, _ = fn(-zs)
            assert np.max(np.abs(minus - sign * plus)) < 1e-10


def test_wp_periodicity_within_est(lattices, rng):
    for lat in lattices:
        ctx = get_context(lat)
        zs = sample_reduced(lat, 10, rng)
        base, est, _ = ctx.wp_many(zs)
        for m in range(-3, 4):
            for n in range(-3, 4):
                shifted, _, _ = ctx.wp_many(zs + m * lat.omega1 + n * lat.omega2)
                assert np.all(np.abs(shifted - base) < np.maximum(est, 1e-13))


def test_sigma_vanishes_at_origin(square):
    r = get_context(square).sigma(0.0)
    assert r.value == 0 and not r.pole_flag


def test_pole_flags(square):
    ctx = get_context(square)
    for u in (0.0, 1.0, 1j, 3 + 2j):
        assert ctx.wp(u).pole_flag
        assert ctx.zeta(u).pole_flag
        assert ctx.wp_prime(u).pole_flag
    assert not ctx.wp(0.5 + 0.25j).pole_flag


# -- quasi-periodicity -------------------------------------------------------------

def test_zeta_quasi_periodicity(lattices, rng):
    for lat in lattices:
        ctx = get_context(lat)
        zs = sample_reduced(lat, 50, rng)
        for i, w in enumerate((lat.omega1, lat.omega2)):
            shifted, _, _ = ctx.zeta_many(zs + w)
            base, _, _ = ctx.zeta_many(zs)
            res = np.max(np.abs(shifted - base - 2 * ctx.eta_half[i]))
            assert res < 1e-9


def test_sigma_quasi_periodicity(lattices, rng):
    for lat in lattices:
        ctx = get_context(lat)
        zs = sample_reduced(lat, 50, rng)
        for i, w in enumerate((lat.omega1, lat.omega2)):
            shifted, _, _ = ctx.sigma_many(zs + w)
            base, _, _ = ctx.sigma_many(zs)
            rhs = -base * np.exp(2 * ctx.eta_half[i] * (zs + w / 2))
            rel = np.max(np.abs(shifted - rhs) / np.abs(shifted))
            assert rel < 1e-8


def test_sigma_multi_period_shift(square, rng):
    ctx = get_context(square)
    zs = sample_reduced(square, 10, rng)
    # iterate the one-step identity twice and compare with the direct evaluation
    one, _, _ = ctx.sigma_many(zs + square.omega1)
    two_direct, _, _ = ctx.sigma_many(zs + square.omega1 + square.omega2)
    rhs = -one * np.exp(2 * ctx.eta_half[1] * (zs + square.omega1 + square.omega2 / 2))
    assert np.max(np.abs(two_direct - rhs) / np.abs(two_direct)) < 1e-8


# -- eta constants and the Legendre relation ------------------------------------------

def test_eta_square_lattice_half_period_value(square):
    # Legendre plus the square lattice symmetry zeta(iu) = -i zeta(u) force
    # 2*zeta(1/2) = pi
    ctx = get_context(square)
    assert abs(2 * ctx.eta_half[0] - np.pi) < 1e-8


def test_legendre_defect(lattices):
    for lat in lattices:
        ctx = get_context(lat)
        legendre = 2 * ctx.eta_half[0] * lat.omega2 - 2 * ctx.eta_half[1] * lat.omega1
        assert abs(legendre - 2j * np.pi) < 1e-8
        assert ctx.legendre_defect < LEGENDRE_TOL


# -- consistency: derivatives by central differences ------------------------------------

def test_zeta_derivative_is_minus_wp(lattices, rng):
    h = 1e-5
    for lat in lattices:
        ctx = get_context(lat)
        zs = sample_reduced(lat, 20, rng, margin=0.4, min_dist=0.15)
        zp, _, _ = ctx.zeta_many(zs + h)
        zm, _, _ = ctx.zeta_many(zs - h)
        wp, _, _ = ctx.wp_many(zs)
        assert np.max(np.abs((zp - zm) / (2 * h) + wp)) < 1e-5


def test_sigma_log_derivative_is_zeta(lattices, rng):
    h = 1e-5
    for lat in lattices:
        ctx = get_context(lat)
        zs = sample_reduced(lat, 20, rng, margin=0.4, min_dist=0.15)
        sp, _, _ = ctx.sigma_many(zs + h)
        sm, _, _ = ctx.sigma_many(zs - h)
        s0, _, _ = ctx.sigma_many(zs)
        zeta, _, _ = ctx.zeta_many(zs)
        assert np.max(np.abs((sp - sm) / (2 * h) / s0 - zeta)) < 1e-5


def test_wp_prime_is_derivative_of_wp(lattices, rng):
    h = 1e-5
    for lat in lattices:
        ctx = get_context(lat)
        zs = sample_reduced(lat, 20, rng, margin=0.4, min_dist=0.15)
        wp_p, _, _ = ctx.wp_many(zs + h)
        wp_m, _, _ = ctx.wp_many(zs - h)
        wpp, _, _ = ctx.wp_prime_many(zs)
        scale = 1.0 + np.abs(wpp)
        assert np.max(np.abs((wp_p - wp_m) / (2 * h) - wpp) / scale) < 1e-5


# -- differential equation against the Eisenstein oracle ---------------------------------

def test_differential_equation(lattices, rng):
    for lat in lattices:
        ctx = get_context(lat)
        g2, g3 = helpers.eisenstein_oracle(lat)
        zs = sample_reduced(lat, 30, rng)
        wp, _, _ = ctx.wp_many(zs)
        wpp, _, _ = ctx.wp_prime_many(zs)
        lhs = wpp**2
        rhs = 4 * wp**3 - g2 * wp - g3
        rel = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        assert np.max(rel) < 1e-6


def test_eisenstein_oracle_matches_qseries(lattices):
    for lat in lattices:
        g2o, g3o = helpers.eisenstein_oracle(lat)
        _, _, g2r, g3r, _ = helpers.qseries_reference(lat)
        scale = max(1.0, abs(g2r), abs(g3r))
        assert abs(g2o - g2r) / scale < 1e-7
        assert abs(g3o - g3r) / scale < 1e-7


# -- accuracy and honesty of est_error vs an independent reference ------------------------

def test_values_and_est_against_qseries(lattices, rng):
    for lat in lattices:
        ctx = get_context(lat)
        zeta_ref, wp_ref, *_ = helpers.qseries_reference(lat)
        zs = sample_reduced(lat, 25, rng)
        wp, est_wp, _ = ctx.wp_many(zs)
        zeta, est_z, _ = ctx.zeta_many(zs)
        for i, z in enumerate(zs):
            err_wp = abs(wp[i] - wp_ref(z))
            err_z = abs(zeta[i] - zeta_ref(z))
            assert err_wp < 1e-9
            assert err_z < 1e-9
            assert err_wp <= est_wp[i] + 1e-13
            assert err_z <= est_z[i] + 1e-13


def _rel_err(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


@pytest.mark.parametrize("omega2", [1j, 2j, np.exp(1j * np.pi / 3), 5j, 5 + 1j])
def test_values_against_mpmath(omega2):
    lat = Lattice1(1, omega2)
    ctx = get_context(lat)
    ref = helpers.mpmath_reference(lat)
    rng = np.random.default_rng(7)
    zs = sample_reduced(lat, 8, rng)
    # two more points each, shifted by lattice periods of the given basis
    zs = np.concatenate([zs, zs[:4] + lat.omega1 - lat.omega2, zs[:4] + 2 * lat.omega2])
    for kind in ("wp", "wp_prime", "zeta", "sigma"):
        values, _, poles = getattr(ctx, f"{kind}_many")(zs)
        assert not poles.any()
        worst = max(_rel_err(v, ref[kind](z)) for z, v in zip(zs, values))
        assert worst <= 1e-12, (kind, worst)


@st.composite
def unimodular(draw, bound=60):
    """Integer 2x2 matrix of determinant +-1 with entries in [-bound, bound]."""
    a = draw(st.integers(-bound, bound))
    b = draw(st.integers(-bound, bound).filter(lambda b: math.gcd(a, b) == 1))
    # extended Euclid: x a + y b = g = +-1, so (c, d) = (-g y, g x) gives det 1
    old_r, r, x, x_next = a, b, 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        x, x_next = x_next, x - quot * x_next
    y = (old_r - x * a) // b if b else 0
    c, d = -old_r * y, old_r * x
    # shift (c, d) by a multiple of (a, b) to keep the entries small
    m = round((c * a + d * b) / (a * a + b * b))
    c, d = c - m * a, d - m * b
    if draw(st.booleans()):
        c, d = -c, -d
    return np.array([[a, b], [c, d]])


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from([1j, 2j, np.exp(1j * np.pi / 3)]), U=unimodular())
def test_presentation_invariance(base, U):
    lat = Lattice1(1, base)
    w = np.array([lat.omega1, lat.omega2])
    new = Lattice1(*(U @ w))
    ctx, ctx_new = get_context(lat), get_context(new)
    zs = sample_reduced(lat, 6, np.random.default_rng(3))
    for kind in ("wp", "wp_prime", "zeta", "sigma"):
        v, _, _ = getattr(ctx, f"{kind}_many")(zs)
        v_new, _, _ = getattr(ctx_new, f"{kind}_many")(zs)
        assert np.max(np.abs(v_new - v) / np.abs(v)) <= 1e-12, kind
    # Lattice1 keeps Im(omega2 / omega1) > 0 by negating omega2 if needed
    flip = np.array([1, np.sign(((U @ w)[1] / new.omega2).real)])
    eta = 2 * np.array(ctx.eta_half)
    eta_new = 2 * np.array(ctx_new.eta_half)
    expected = flip * (U @ eta)
    assert np.max(np.abs(eta_new - expected) / np.maximum(1.0, np.abs(expected))) <= 1e-12
    assert ctx_new.n_terms == ctx.n_terms


# -- tables completed on first use ----------------------------------------------------

KINDS = ("wp", "wp_prime", "zeta", "sigma")


def test_period_group_builds_no_evaluation_tables():
    """The eta constants and the Legendre gate read neither the argument
    reduction, nor the wp / wp' series weights, nor the sigma product."""
    lat = Lattice1(1, 0.137 + 1.29j)
    get_context.cache_clear()
    period_group(painleve("p4", a=1, lattice=lat))
    ctx = get_context(lat)
    lazy = {"_binv", "_weights", "_q2n_shift", "_log_norm", "_eta1_tail", "_eta_est",
            "_tail_zeta", "_tail_wp", "_tail_wp_prime", "_tail_logsigma"}
    assert not lazy & set(vars(ctx))
    ctx.wp(0.3 + 0.1j)
    assert {"_binv", "_weights", "_tail_wp"} <= set(vars(ctx))
    assert not {"_log_norm", "_q2n_shift", "_tail_logsigma", "_eta_est"} & set(vars(ctx))


def _outputs(ctx, zs, kinds):
    out = {}
    for kind in kinds:
        values, est, poles = getattr(ctx, f"{kind}_many")(zs)
        scalar = getattr(ctx, kind)(zs[0])
        out[kind] = (values.tobytes(), est.tobytes(), poles.tobytes(), repr(scalar))
    return out


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from([1j, 2j, np.exp(1j * np.pi / 3), 5j, 0.31 + 1.07j]), U=unimodular())
def test_lazy_tables_independent_of_evaluation_order(base, U):
    """Fresh contexts give byte-equal values, bounds and poles whether sigma
    or wp completes the tables first."""
    lat = Lattice1(*(U @ np.array([1, base])))
    r1, r2, _ = gauss_reduced_basis(lat.omega1, lat.omega2)
    zs = sample_reduced(lat, 5, np.random.default_rng(5))
    zs = np.concatenate([zs, zs[:2] + r1 - 2 * r2, [0, r1, 0.5 * r2]])
    wp_first = WeierstrassContext(lat)
    sigma_first = WeierstrassContext(lat)
    assert _outputs(wp_first, zs, KINDS) == _outputs(sigma_first, zs, KINDS[::-1])
    assert (wp_first.eta_half, wp_first.n_terms) == (sigma_first.eta_half, sigma_first.n_terms)


def test_eta_from_skew_basis_matches_reduced(square):
    # <1, 1+i> generates the same lattice as <1, i>; quasi-periodicity shifts
    # must follow the given generators
    skew = Lattice1(1, 1 + 1j)
    ctx = get_context(skew)
    # eta is additive: 2*zeta((w1+w2)/2) = eta1 + eta2 of the square basis
    sq = get_context(square)
    assert abs(2 * ctx.eta_half[1] - (2 * sq.eta_half[0] + 2 * sq.eta_half[1])) < 1e-9


# -- conjugation ----------------------------------------------------------------------

def test_conjugation_self_conjugate(square, rng):
    zs = sample_reduced(square, 20, rng)
    assert conjugate_lattice_check(get_context(square), zs) < 1e-9


def test_conjugation_hexagonal(hexagonal, rng):
    zs = sample_reduced(hexagonal, 20, rng)
    assert conjugate_lattice_check(get_context(hexagonal), zs) < 1e-9


def test_real_lattice_real_on_reals(square, rng):
    ctx = get_context(square)
    xs = rng.uniform(0.15, 0.45, 20).astype(complex)
    vals, _, _ = ctx.wp_many(xs)
    assert np.max(np.abs(vals.imag)) < 1e-9


# -- coset sums -------------------------------------------------------------------------

def test_coset_sum_homothetic_pair(rng, square):
    zs = sample_reduced(square, 20, rng)
    res = coset_sum_check(subgroup([2, 2j]), subgroup([1, 1j]), zs)
    assert res < 1e-7


def test_coset_sum_same_lattice(rng, square):
    zs = sample_reduced(square, 20, rng)
    assert coset_sum_check(subgroup([1, 1j]), subgroup([1, 1j]), zs) < 1e-12


def test_coset_sum_constant_for_non_homothetic_pair(rng, square):
    """For <1,2i> < <1,i> the coset decomposition carries a nonzero constant:
    wp_{L2} - sum_i wp_{L1}(.+a_i) = -wp_{L1}(i), not zero."""
    zs = sample_reduced(square, 30, rng)
    ctx1 = get_context(Lattice1(1, 2j))
    ctx2 = get_context(Lattice1(1, 1j))
    s = np.zeros(len(zs), dtype=complex)
    for a in (0j, 1j):
        v, _, _ = ctx1.wp_many(zs + a)
        s += v
    t, _, _ = ctx2.wp_many(zs)
    diff = t - s
    const = -ctx1.wp(1j).value
    assert np.max(np.abs(diff - diff.mean())) < 1e-8  # constant across samples
    assert abs(diff.mean() - const) < 1e-8            # equals -wp_{L1}(i)
    # and the raw residual reported by the check equals |const|, far from zero
    res = coset_sum_check(subgroup([1, 2j]), subgroup([1, 1j]), zs)
    assert res == pytest.approx(abs(const), rel=1e-6)


def test_coset_sum_wp_prime_identity_is_exact(rng, square):
    # the derivative form has no additive constant for any sublattice pair
    zs = sample_reduced(square, 20, rng)
    ctx1 = get_context(Lattice1(1, 2j))
    ctx2 = get_context(Lattice1(1, 1j))
    s = np.zeros(len(zs), dtype=complex)
    for a in (0j, 1j):
        v, _, _ = ctx1.wp_prime_many(zs + a)
        s += v
    t, _, _ = ctx2.wp_prime_many(zs)
    assert np.max(np.abs(t - s)) < 1e-7


# -- scaling law -------------------------------------------------------------------------

def test_scaling_law(square, rng):
    ctx = get_context(square)
    zs = sample_reduced(square, 20, rng)
    base, _, _ = ctx.wp_many(zs)
    for c in (2.0 + 0j, 1 + 1j):
        ctx_c = get_context(square.scaled(c))
        scaled, _, _ = ctx_c.wp_many(c * zs)
        assert np.max(np.abs(scaled - base / c**2)) < 1e-8
