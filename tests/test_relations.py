import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from locnash import relations
from locnash.errors import InsufficientSamples
from locnash.lattices import Lattice1
from locnash.relations import (
    DEFAULT_RES_TOL,
    DEFAULT_VALUE_CAP,
    AATReport,
    _aat_rows,
    _aat_search,
    _box_size,
    _exponent_table,
    _monomial_matrix,
    _SamplePool,
    _search,
    _singular_spectrum,
    dependent,
    find_relation,
    map_sampler,
    monomial_exponents,
    translate_algebraicity_check,
    verify_aat,
    wp_sampler,
)
from locnash.structures import (
    FAMILIES,
    exp_map,
    identity_map,
    map_batch,
    painleve,
    sin_map,
    wp_real,
)
from locnash.weierstrass import get_context


def wp_s(lat):
    return wp_sampler(lat)


def wp_prime_s(lat):
    ctx = get_context(lat)

    def wpp(u):
        v, _, p = ctx.wp_prime_many(np.asarray(u, dtype=complex))
        v = np.array(v)
        v[p | (np.abs(v) > 1e3)] = complex("nan")
        return v

    return wpp


# -- monomial basis ---------------------------------------------------------------

def test_monomial_order_graded_lex():
    monos = monomial_exponents(2, 2)
    assert monos[0] == (0, 0)
    assert monos[1:3] == [(1, 0), (0, 1)]
    assert len(monos) == 9  # per-variable bound: (d+1)^arity
    assert monos.index((2, 0)) < monos.index((1, 1)) < monos.index((0, 2))


@pytest.mark.parametrize("arity, degree, total", [
    (1, 3, 2), (2, 2, 3), (3, 4, 6), (3, 4, 12), (3, 2, 0), (5, 8, 6), (7, 2, 4),
])
def test_capped_exponent_table_filters_the_box(arity, degree, total):
    full = _exponent_table(arity, degree)
    assert _box_size(arity, degree, None) == len(full) == (degree + 1) ** arity
    # every variable subset of up to three positions, and all of them (None)
    subsets = [None] + [c for k in range(1, min(arity, 3) + 1)
                        for c in itertools.combinations(range(arity), k)]
    for variables in subsets:
        outside = [k for k in range(arity) if variables is not None and k not in variables]
        for cap, even in itertools.product((None, total), (False, True)):
            table = _exponent_table(arity, degree, cap, variables, even)
            keep = np.all(full[:, outside] == 0, axis=1)
            if cap is not None:
                keep &= full.sum(axis=1) <= cap
            if even:
                keep &= np.all(full % 2 == 0, axis=1)
            assert table.tolist() == full[keep].tolist()  # same graded-lex order
            assert _box_size(arity, degree, cap, variables, even) == len(table)


def _monomial_matrix_by_columns(values, exponents):
    """Reference: one column at a time, skipping zero exponents."""
    n, arity = values.shape
    dmax = max((max(e) for e in exponents), default=0)
    powers = [np.vander(values[:, k], dmax + 1, increasing=True) for k in range(arity)]
    M = np.empty((n, len(exponents)), dtype=complex)
    for j, e in enumerate(exponents):
        col = np.ones(n, dtype=complex)
        for k, p in enumerate(e):
            if p:
                col = col * powers[k][:, p]
        M[:, j] = col
    return M


@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_monomial_matrix_matches_column_loop(rng, arity, degree):
    values = rng.normal(size=(37, arity)) + 1j * rng.normal(size=(37, arity))
    monos = monomial_exponents(arity, degree)
    M = _monomial_matrix(values, monos)
    ref = _monomial_matrix_by_columns(values, monos)
    # bit for bit, and C-ordered so that column norms sum in the same order
    assert M.flags.c_contiguous
    assert M.shape == ref.shape and M.tobytes() == ref.tobytes()
    assert monomial_exponents(arity, degree) is not monos


# -- singular spectrum from the QR factor -----------------------------------------

def _addition_samplers(f, arity):
    """Samplers and domain dimension: f at arity - 1 free points and at their
    sum; f(w) alone at arity 1, and f(w), f(2w) at arity 2."""
    if arity == 1:
        return [f], 1
    if arity == 2:
        return [f, lambda w: f(2 * w)], 1
    free = [lambda *w, j=j: f(w[j]) for j in range(arity - 1)]
    return free + [lambda *w: f(sum(w))], arity - 1


def _assert_same_spectrum(A):
    s_ref, vh_ref = np.linalg.svd(A, full_matrices=False)[1:]
    s, vh = _singular_spectrum(A)
    assert s.shape == s_ref.shape and s.tobytes() == s_ref.tobytes()
    assert vh.shape == vh_ref.shape and vh.tobytes() == vh_ref.tobytes()


# every (arity, degree) of find_relation's box with at most 625 monomials
SEARCH_SHAPES = [
    (arity, degree)
    for arity in range(1, 6)
    for degree in range(1, 5)
    if (degree + 1) ** arity <= 625
]


@pytest.mark.parametrize("family", ["sin", "wp"])
@pytest.mark.parametrize("arity, degree", SEARCH_SHAPES)
def test_singular_spectrum_matches_full_svd(family, arity, degree):
    f = np.sin if family == "sin" else wp_s(Lattice1(1, 1j))
    samplers, dim = _addition_samplers(f, arity)
    exps = monomial_exponents(arity, degree)
    n_train = max(64, 2 * len(exps))  # find_relation's rows at n_samples = 64
    def rows(*w):
        return np.stack([s(*w) for s in samplers], axis=1)

    pool = _SamplePool(rows, arity, dim, np.random.default_rng(11))
    A = _monomial_matrix(pool.ensure(n_train)[:n_train], exps)
    _assert_same_spectrum(A / np.linalg.norm(A, axis=0))


def test_singular_spectrum_matches_full_svd_rank_deficient(rng):
    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    A = gauss(162, 40) @ gauss(40, 81)  # rank 40 of 81 columns
    _assert_same_spectrum(A / np.linalg.norm(A, axis=0))


def _full_svd_spectrum(A):
    """Reference: the SVD of the whole matrix, with U formed and discarded."""
    return np.linalg.svd(A, full_matrices=False)[1:]


CERTIFICATE_SEARCHES = {
    "sin-degree-4": lambda: verify_aat(sin_map(), 4, seed=3).certificates,
    "wp-differential-equation": lambda: (find_relation(
        [wp_s(Lattice1(1, 2j)), wp_prime_s(Lattice1(1, 2j))], 3, seed=5
    ),),
    "p4-a0": lambda: verify_aat(
        painleve("p4", a=0, lattice=Lattice1(1, 1j)), 2, seed=3
    ).certificates,
}


@pytest.mark.parametrize("search", sorted(CERTIFICATE_SEARCHES))
def test_certificates_match_full_svd_reference(monkeypatch, search):
    got = CERTIFICATE_SEARCHES[search]()
    monkeypatch.setattr(relations, "_singular_spectrum", _full_svd_spectrum)
    ref = CERTIFICATE_SEARCHES[search]()
    assert None not in got
    assert got == ref  # dataclass equality: exact coefficients, residual and gap


def test_matrix_budget_guard_counts_the_capped_box(monkeypatch):
    """Arity 5 at degree 8 has 59049 monomials (3.3 GB), 462 of them of total
    degree <= 6 and 3125 with even exponents (312 MB): the capped and the
    even searches pass the guard and reach sampling."""
    def boom(*args):
        raise _Allocated

    monkeypatch.setattr(_SamplePool, "ensure", boom)

    def search(total, even=False):
        return _search(lambda *w: None, 5, 8, 64, np.random.default_rng(0), 4, total, None, even)

    for total, even in ((6, False), (None, True)):
        with pytest.raises(_Allocated):
            search(total, even)
    with pytest.raises(ValueError, match="MiB"):
        search(None)


def test_monomial_budget_guard():
    with pytest.raises(ValueError):
        find_relation([lambda u: u] * 6, 9, domain_dim=1)


class _Allocated(Exception):
    pass


def test_matrix_budget_guard(monkeypatch):
    """A search whose monomial matrix would pass 512 MiB stops before it
    samples; sampling and the matrix raise here, so a wrong guard allocates
    nothing."""
    def boom(*args):
        raise _Allocated

    monkeypatch.setattr(_SamplePool, "ensure", boom)
    monkeypatch.setattr(relations, "_monomial_matrix", boom)
    # arity 5 is a dim-2 AAT search: degree 5 needs 15552 x 7776, degree 6
    # 33614 x 16807 (9 GB); a 10^8-row floor needs 3.2 GB on one variable
    for arity, degree, n_samples in ((5, 5, 64), (5, 6, 64), (1, 1, 10**8)):
        with pytest.raises(ValueError, match="MiB"):
            find_relation([lambda u: u] * arity, degree, n_samples)
    for arity, degree, n_samples in ((5, 4, 64), (3, 8, 64), (1, 1, 10**6)):
        with pytest.raises(_Allocated):
            find_relation([lambda u: u] * arity, degree, n_samples)


# -- basic detections ---------------------------------------------------------------

def test_linear_identity_relation():
    cert = find_relation(
        [lambda u, v: u, lambda u, v: v, lambda u, v: u + v],
        max_degree=1, seed=7, domain_dim=2,
    )
    assert cert is not None and cert.max_degree == 1
    assert cert.residual < 1e-12
    c = np.array([cert.coefficient_of(e) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    assert np.allclose(c / c[0], [1, 1, -1], atol=1e-9)
    assert abs(cert.coefficient_of((0, 0, 0))) < 1e-9


def test_exponential_functional_equation():
    cert = find_relation(
        [lambda u, v: np.exp(u), lambda u, v: np.exp(v), lambda u, v: np.exp(u + v)],
        max_degree=2, seed=7, domain_dim=2,
    )
    assert cert is not None and cert.residual < 1e-10
    c12 = cert.coefficient_of((1, 1, 0))
    c3 = cert.coefficient_of((0, 0, 1))
    assert abs(c12 / c3 + 1) < 1e-9
    others = [abs(c) for e, c in zip(cert.exponents, cert.coefficients)
              if e not in ((1, 1, 0), (0, 0, 1))]
    assert max(others) < 1e-8


def test_wp_differential_equation_matches_eisenstein_oracle():
    lat = Lattice1(1, 2j)
    cert = find_relation([wp_s(lat), wp_prime_s(lat)], max_degree=3, seed=5, domain_dim=1)
    assert cert is not None and cert.max_degree == 3
    assert cert.residual < 1e-6
    c22 = cert.coefficient_of((0, 2))
    assert abs(cert.coefficient_of((3, 0)) / c22 + 4) < 1e-6
    g2_cert = cert.coefficient_of((1, 0)) / c22
    g3_cert = cert.coefficient_of((0, 0)) / c22
    g2o, g3o = helpers.eisenstein_oracle(lat)
    assert abs(g2_cert - g2o) / abs(g2o) < 1e-6
    assert abs(g3_cert - g3o) / abs(g3o) < 1e-6


# -- determinism and scale invariance ---------------------------------------------------

def test_determinism_bit_identical():
    def run():
        return find_relation(
            [lambda u, v: np.exp(u), lambda u, v: np.exp(v), lambda u, v: np.exp(u + v)],
            max_degree=2, seed=123, domain_dim=2,
        )

    a, b = run(), run()
    assert a == b  # dataclass equality: exact floats, same exponent order


def test_scale_invariance_of_acceptance():
    lat1, lat2 = Lattice1(1, 1j), Lattice1(2, 2j)
    s1, s2 = wp_s(lat1), wp_s(lat2)
    ok_plain, cert_plain = dependent(s1, s2, 4, seed=2)
    ok_scaled, cert_scaled = dependent(lambda u: 1e3 * s1(u), s2, 4, seed=2)
    assert ok_plain and ok_scaled
    assert cert_scaled.max_degree == cert_plain.max_degree
    assert cert_scaled.residual < 1e-6
    # coefficients differ (absorbing the factor) but acceptance did not change
    assert not np.allclose(
        [abs(c) for c in cert_plain.coefficients],
        [abs(c) for c in cert_scaled.coefficients],
    )


# -- dependence fixtures ------------------------------------------------------------------

def test_dependent_sublattice_pair():
    ok, cert = dependent(wp_s(Lattice1(1, 1j)), wp_s(Lattice1(2, 2j)), 8, seed=2)
    assert ok and cert.max_degree <= 4 and cert.residual < 1e-6


def test_dependent_same_function():
    ok, cert = dependent(wp_s(Lattice1(1, 1j)), wp_s(Lattice1(1, 1j)), 2, seed=2)
    assert ok and cert.max_degree == 1
    assert abs(cert.coefficient_of((1, 0)) / cert.coefficient_of((0, 1)) + 1) < 1e-9


def test_dependent_incommensurable_lattices_not_found():
    ok, cert = dependent(
        wp_s(Lattice1(1, 1j)), wp_s(Lattice1(1, np.pi * 1j)), 8, seed=2
    )
    assert not ok and cert is None


def test_dependent_u_exp_u_not_found():
    ok, _ = dependent(lambda u: u, lambda u: np.exp(u), 8, seed=2)
    assert not ok


# -- AAT verification -----------------------------------------------------------------------

def test_verify_aat_identity():
    rep = verify_aat(identity_map(), 1, seed=3)
    assert rep.success and rep.certificates[0].residual < 1e-12


def test_verify_aat_exp():
    rep = verify_aat(exp_map(), 2, seed=3)
    cert = rep.certificates[0]
    assert rep.success and cert.residual < 1e-10
    assert abs(cert.coefficient_of((1, 1, 0)) / cert.coefficient_of((0, 0, 1)) + 1) < 1e-8


def test_verify_aat_sin_degree_four():
    rep = verify_aat(sin_map(), 4, seed=3)
    cert = rep.certificates[0]
    assert rep.success and cert.max_degree == 4
    # the sine addition surface: symmetric sextic with the X1^2 X2^2 X3^2 term
    c = cert.coefficient_of((4, 0, 0))
    assert abs(cert.coefficient_of((2, 2, 2)) / c - 4) < 1e-6
    assert abs(cert.coefficient_of((2, 2, 0)) / c + 2) < 1e-6


#: X, Y, Z = sin u, sin v, sin(u+v): (Z^2 + X^2 - Y^2)^2 - 4 X^2 Z^2 (1 - Y^2),
#: the sine addition relation with its integer coefficients
SIN_RELATION = {
    (4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1,
    (2, 2, 0): -2, (2, 0, 2): -2, (0, 2, 2): -2, (2, 2, 2): 4,
}


def _off_sin_relation(coefficients: dict) -> float:
    """Largest deviation of the given coefficients from the sine relation
    scaled to them, relative to their X^2 Y^2 Z^2 term (the largest)."""
    top = coefficients[(2, 2, 2)]
    align = top / SIN_RELATION[(2, 2, 2)]
    return max(abs(c - align * SIN_RELATION.get(e, 0))
               for e, c in coefficients.items()) / abs(top)


@given(st.floats(0.02, 8.0), st.floats(-np.pi, np.pi), st.integers(0, 2**31 - 1))
@example(0.02, 0, 0)
@example(0.1, 0, 0)
@settings(max_examples=40, deadline=None)
def test_sin_capped_search_certifies_at_degree_four(scale, angle, seed):
    """sin(alpha u) certifies at degree 4 in the even box for |alpha| in
    [0.02, 8] at any phase.  At small |alpha| the sampled values crowd
    together: the full 125-monomial box can miss the gap there, and a box with
    odd exponents certifies a spurious degree-1 relation near
    X + Y - Z - XYZ/2 (at alpha = 0.02, seed 0) or nothing (at 0.1); the even
    box starts at degree 2."""
    d = sin_map(scale * np.exp(1j * angle))
    cert = verify_aat(d, 4, seed=seed).certificates[0]
    assert cert is not None and cert.max_degree == 4 and cert.max_total_degree == 6
    assert cert.even and not np.any(np.array(cert.exponents) % 2)
    assert cert.residual < 1e-6
    assert _off_sin_relation(dict(zip(cert.exponents, cert.coefficients))) < 1e-9
    assert helpers.fresh_row_residual(cert, _aat_rows(d, 0), 2, seed) < DEFAULT_RES_TOL


@given(st.floats(0.5, 4.0), st.integers(0, 2**31 - 1))
@example(0.5, 1093)
@settings(max_examples=40, deadline=None)
def test_sin_capped_search_matches_full_box(scale, seed):
    """The degree-4 sin relation found among the 17 even monomials of total
    degree <= 6 is the one the full 125-monomial box finds: both match the
    exact integer relation on the shared monomials, and the full box's other
    108 coefficients vanish.  Each is held to the exact relation rather than
    to the other: the full box is the less accurate of the two (2.5e-9 at
    scale 0.5, seed 1093)."""
    d = sin_map(scale)
    cert = verify_aat(d, 4, seed=seed).certificates[0]
    assert cert is not None and cert.max_degree == 4
    assert cert.singular_gap >= 1e9
    got = dict(zip(cert.exponents, cert.coefficients))
    assert _off_sin_relation(got) < 1e-9
    ref = _search(_aat_rows(d, 0), 3, 4, 64, np.random.default_rng(seed), 2, None)
    assert ref is not None and ref.max_degree == 4 and len(ref.exponents) == 125
    full = dict(zip(ref.exponents, ref.coefficients))
    assert _off_sin_relation({e: full[e] for e in got}) < 1e-8
    extra = [abs(c) for e, c in full.items() if e not in got]
    assert len(extra) == 108
    assert max(extra) < 1e-8 * max(abs(c) for c in full.values())


#: for each family, a descriptor, a per-variable degree and the coordinates
#: that certify at it; p5's coordinate 2 searches all five variables, and its
#: relation needs a larger box than the matrix guard admits there
RECORD_ALPHA = ((0.9, -0.4), (0.3, 1.1))
AAT_RECORD_FIXTURES = {
    "id": (identity_map(0.7), 1, (0,)),
    "exp": (exp_map(0.7), 2, (0,)),
    "sin": (sin_map(0.7), 4, (0,)),
    "wp_real": (wp_real(2.0), 2, (0,)),
    "p1": (painleve("p1", alpha=RECORD_ALPHA), 1, (0, 1)),
    "p2": (painleve("p2", alpha=RECORD_ALPHA), 1, (0, 1)),
    "p3": (painleve("p3", alpha=RECORD_ALPHA), 1, (0, 1)),
    "p4": (painleve("p4", a=0, lattice=Lattice1(1, 1j), alpha=RECORD_ALPHA), 2, (0, 1)),
    "p5": (painleve("p5", a=0.3, lattice=Lattice1(1, 2j)), 2, (0,)),
    "p6_product": (painleve("p6_product", lattice=Lattice1(1, 1j), lattice2=Lattice1(1, 2j),
                            alpha=RECORD_ALPHA), 2, (0, 1)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_aat_total_degree_is_the_relation_degree(family):
    """Each coordinate's record is its relation's box: the certificate names
    the record's variables and uses no other, a capped record's cap is the
    total degree of the certified relation (a cap below it loses the
    certificate and one above it wastes monomials), and an even record's
    relation has no odd exponent."""
    d, degree, coords = AAT_RECORD_FIXTURES[family]
    boxes = FAMILIES[family].aat
    assert len(boxes) == d.dim
    for coord in coords:
        box = boxes[coord]
        cert = _aat_search(d, coord, degree, 64, 3)
        assert cert is not None
        assert cert.variables == box.variables and cert.max_total_degree == box.total_degree
        assert cert.even == box.even
        if box.variables is not None:
            outside = [k for k in range(2 * d.dim + 1) if k not in box.variables]
            assert not np.array(cert.exponents)[:, outside].any()
        if box.total_degree is not None:
            assert max(sum(e) for e, _ in cert.support()) == box.total_degree
        if box.even:
            assert not np.any(np.array([e for e, _ in cert.support()]) % 2)


def test_verify_aat_wp():
    rep = verify_aat(wp_real(1.0), 6, seed=3)
    cert = rep.certificates[0]
    assert rep.success and cert.residual < 1e-6
    assert cert.max_degree <= 6  # found at 2: the classical biquadratic


def test_verify_aat_wp_matches_classical_biquadratic():
    """The found addition relation must be the classical biquadratic

        (x-y)^2 z^2 - [(x+y)(2xy - g2/2) - g3] z + (xy + g2/4)^2 + g3 (x+y)

    with x = f(u), y = f(v), z = f(u+v), up to overall scale."""
    lat = Lattice1(1, 2j)
    d = wp_real(2.0)
    rep = verify_aat(d, 6, seed=3)
    cert = rep.certificates[0]
    assert rep.success and cert.max_degree == 2
    g2, g3 = helpers.eisenstein_oracle(lat)
    expected = {
        (2, 0, 2): 1.0, (0, 2, 2): 1.0, (1, 1, 2): -2.0,
        (2, 1, 1): -2.0, (1, 2, 1): -2.0,
        (1, 0, 1): g2 / 2, (0, 1, 1): g2 / 2, (0, 0, 1): g3,
        (2, 2, 0): 1.0, (1, 1, 0): g2 / 2,
        (1, 0, 0): g3, (0, 1, 0): g3,
        (0, 0, 0): g2**2 / 16,
    }
    ref = np.array([expected.get(e, 0.0) for e in cert.exponents], dtype=complex)
    ref /= np.linalg.norm(ref)
    got = np.array(cert.coefficients)
    # align overall phase on the largest reference entry
    k = int(np.argmax(np.abs(ref)))
    got = got * (ref[k] / got[k])
    assert np.max(np.abs(got - ref)) < 1e-7


def test_verify_aat_p3_both_coordinates():
    from locnash.structures import painleve

    rep = verify_aat(painleve("p3"), 1, seed=3)
    assert rep.success and len(rep.certificates) == 2


def _column_sampler(d, coord, part):
    """Reference: one map coordinate at u, v or u+v, one map_batch per column."""
    n = d.dim

    def sampler(*w):
        u, v = w[:n], w[n:]
        args = {"u": u, "v": v, "uv": tuple(a + b for a, b in zip(u, v))}[part]
        vals, poles = map_batch(d, *args)
        out = np.array(vals[coord], dtype=complex)
        out[poles[coord] | ~np.isfinite(out) | (np.abs(out) > DEFAULT_VALUE_CAP)] = complex("nan")
        return out

    return sampler


def _verify_aat_by_columns(d, max_degree, seed):
    """Reference: 2n + 1 column samplers per coordinate, stacked as
    find_relation stacks them and searched in the coordinate's box."""
    n, boxes = d.dim, FAMILIES[d.family].aat
    certs = []
    for coord, box in enumerate(boxes):
        samplers = ([_column_sampler(d, j, "u") for j in range(n)]
                    + [_column_sampler(d, j, "v") for j in range(n)]
                    + [_column_sampler(d, coord, "uv")])

        def rows(*w, samplers=samplers):
            return np.stack([np.asarray(s(*w), dtype=complex) for s in samplers], axis=1)

        certs.append(_search(rows, 2 * n + 1, max_degree, 64, np.random.default_rng(seed + coord),
                             2 * n, box.total_degree, box.variables))
    return AATReport(None not in certs, tuple(certs), max_degree, boxes)


SKEW = Lattice1(1, 5 + 1j)  # <1,i> in a skew basis
REAL_ALPHA = np.random.default_rng(29).normal(size=(2, 2))
AAT_CASES = {
    "id": (identity_map(), 1),
    "exp": (exp_map(), 2),
    "wp_real": (wp_real(2.0), 2),
    "p1-alpha": (painleve("p1", alpha=REAL_ALPHA), 1),
    "p2-alpha": (painleve("p2", alpha=REAL_ALPHA), 1),
    "p3-alpha": (painleve("p3", alpha=REAL_ALPHA), 1),
    "p4-a0": (painleve("p4", a=0, lattice=Lattice1(1, 1j)), 2),
    "p4-a0-skew-alpha": (painleve("p4", a=0, lattice=SKEW, alpha=REAL_ALPHA), 2),
    "p4-a1": (painleve("p4", a=1, lattice=Lattice1(1, 1j)), 1),
    "p5-real": (painleve("p5", a=0.3, lattice=Lattice1(1, 2j)), 1),
    "p5-complex": (painleve("p5", a=0.2 + 0.4j, lattice=SKEW), 1),
    "p6_product": (painleve("p6_product", lattice=Lattice1(1, 1j), lattice2=Lattice1(1, 2j)), 2),
}


@pytest.mark.parametrize("case", sorted(AAT_CASES))
def test_verify_aat_matches_column_samplers(case):
    d, degree = AAT_CASES[case]
    for seed in (0, 7):
        # dataclass equality: the same degrees, coefficients, residuals and gaps
        assert verify_aat(d, degree, seed=seed) == _verify_aat_by_columns(d, degree, seed)


@pytest.mark.parametrize("case", ["exp", "p4-a0", "p6_product"])
def test_verify_aat_evaluates_map_three_times_per_batch(monkeypatch, case):
    d, degree = AAT_CASES[case]
    counts = {"map_batch": 0, "batches": 0}

    def counting_map_batch(*args):
        counts["map_batch"] += 1
        return map_batch(*args)

    class CountingPool(_SamplePool):
        def __init__(self, rows, *args):
            def counted(*coords):
                counts["batches"] += 1
                return rows(*coords)

            super().__init__(counted, *args)

    monkeypatch.setattr(relations, "map_batch", counting_map_batch)
    monkeypatch.setattr(relations, "_SamplePool", CountingPool)
    rep = verify_aat(d, degree, seed=3)
    assert rep.success and counts["batches"] >= d.dim
    assert counts["map_batch"] == 3 * counts["batches"]


def test_verify_aat_degree_and_budget_guards():
    d = painleve("p4", a=0, lattice=Lattice1(1, 1j))
    with pytest.raises(ValueError, match="monomials at degree 7"):  # 8^5 = 32768
        verify_aat(d, 7)
    with pytest.raises(ValueError, match="max_degree must be >= 1"):
        verify_aat(d, 0)


def test_verify_aat_reports_failure():
    # u and e^u are independent: no relation for the exp coordinate at degree 1
    # over a map whose sum coordinate breaks the box; use a degree too low for sin
    for degree in (1, 2, 3):  # sin's relation has per-variable degree 4
        rep = verify_aat(sin_map(), degree, seed=3)
        assert not rep.success and rep.certificates == (None,)


# -- map_sampler -------------------------------------------------------------------------------

@pytest.mark.parametrize("d, shift", [
    (exp_map(), 0j), (exp_map(alpha=0.7), 0.3 - 0.2j), (sin_map(), 1.0),
    (wp_real(1.0), 0j), (wp_real(1.0), 0.25 + 0.1j),
], ids=["exp", "exp-alpha-shift", "sin-shift", "wp_real", "wp_real-shift"])
def test_map_sampler_is_map_batch_at_shifted_points(rng, d, shift):
    u = rng.uniform(-2, 2, 200) + 1j * rng.uniform(-2, 2, 200)
    got = map_sampler(d, shift)(u)
    (vals,), (poles,) = map_batch(d, u + shift)
    rejected = poles | ~np.isfinite(vals) | (np.abs(vals) > DEFAULT_VALUE_CAP)
    assert np.array_equal(np.isnan(got), rejected)
    assert np.array_equal(got[~rejected], vals[~rejected])  # the values themselves
    assert (~rejected).sum() > 50


def test_map_sampler_rejects_poles_non_finite_and_large_values():
    wp = map_sampler(wp_real(1.0))
    # a pole, |wp(0.1)| ~ 100 above the cap, an ordinary point
    got = wp(np.array([0, 0.1, 0.5 + 0.3j]))
    assert np.isnan(got[:2]).all() and np.isfinite(got[2])
    exp = map_sampler(exp_map())
    with np.errstate(over="ignore", invalid="ignore"):  # exp(800) overflows to inf
        got = exp(np.array([800, complex("nan"), 4, 3]))
    # inf, nan, e^4 = 54.6 above the cap, e^3 = 20.1 below it
    assert np.isnan(got[:3]).all() and got[3] == np.exp(3 + 0j)


def test_map_sampler_needs_dim_1():
    with pytest.raises(ValueError, match="dim-1"):
        map_sampler(painleve("p1"))


# -- translates -------------------------------------------------------------------------------

def test_translate_exp():
    cert = translate_algebraicity_check(exp_map(), 1.0, 2, seed=4)
    ratio = cert.coefficient_of((1, 0)) / cert.coefficient_of((0, 1))
    assert abs(ratio + np.e) < 1e-9


def test_translate_identity():
    cert = translate_algebraicity_check(identity_map(), 1.0, 2, seed=4)
    c0 = cert.coefficient_of((0, 0))
    assert abs(cert.coefficient_of((1, 0)) / c0 - 1) < 1e-9
    assert abs(cert.coefficient_of((0, 1)) / c0 + 1) < 1e-9


def test_translate_wp():
    cert = translate_algebraicity_check(
        wp_real(1.0), 0.3, 6, seed=4
    )
    assert cert is not None and cert.max_degree <= 6
    assert cert.residual < 1e-6


# -- failure modes ------------------------------------------------------------------------------

def test_insufficient_samples():
    def always_pole(u):
        return np.full(np.shape(u), complex("nan"))

    with pytest.raises(InsufficientSamples):
        find_relation([always_pole], 1, seed=0, domain_dim=1)


def test_certificate_serialization():
    cert = find_relation(
        [lambda u, v: u, lambda u, v: v, lambda u, v: u + v],
        max_degree=1, seed=7, domain_dim=2,
    )
    text = cert.serialize()
    assert text.startswith("relation_certificate\narity = 3\ndegree = 1\nresidual = ")
    assert "residual = " in text and "singular_gap = " in text
    assert text.count("term (") == len(cert.exponents)
    assert "total_degree" not in text and "variables" not in text and "exponents" not in text


def test_capped_certificate_names_its_box():
    cert = verify_aat(sin_map(), 4, seed=3).certificates[0]
    text = cert.serialize()
    assert text.startswith("relation_certificate\narity = 3\ndegree = 4\ntotal_degree = 6\n"
                           "exponents = even\nresidual = ")
    assert text.count("term (") == len(cert.exponents) == 17
    assert all(sum(e) <= 6 and not any(k % 2 for k in e) for e in cert.exponents)


def test_restricted_certificate_names_its_variables():
    """A coordinate searched over f_i(u), f_i(v), f_i(u+v) alone says so."""
    rep = verify_aat(painleve("p6_product", lattice=Lattice1(1, 1j), lattice2=Lattice1(1, 2j)),
                     2, seed=3)
    assert rep.boxes == FAMILIES["p6_product"].aat
    for cert, names in zip(rep.certificates, ("X1, X3, X5", "X2, X4, X5")):
        assert cert.serialize().startswith(
            f"relation_certificate\narity = 5\ndegree = 2\nvariables = {names}\nresidual = ")
        assert len(cert.exponents) == 27  # 3^3 monomials rather than 3^5


# -- soundness of the restricted boxes ----------------------------------------------------

#: <1,i>, <1,2i>, the hexagonal lattice and <1,i> in the skew basis <1,5+i>
SOUNDNESS_LATTICES = [Lattice1(1, 1j), Lattice1(1, 2j), Lattice1(1, np.exp(1j * np.pi / 3)), SKEW]
#: (family, coordinate) of every record that searches f_i(u), f_i(v), f_i(u+v) alone
RESTRICTED = [(name, coord) for name, fam in sorted(FAMILIES.items())
              for coord, box in enumerate(fam.aat) if box.variables is not None]


@st.composite
def restricted_coordinates(draw):
    """A descriptor of a family with a restricted record, one such coordinate
    of it, and a random real alpha whose rows are not short."""
    family, coord = draw(st.sampled_from(RESTRICTED))
    a, b, c, e = (draw(st.floats(-1.5, 1.5)) for _ in range(4))
    assume(min(np.hypot(a, b), np.hypot(c, e)) >= 0.5 and abs(a * e - b * c) >= 0.1)
    lattice, lattice2 = (draw(st.sampled_from(SOUNDNESS_LATTICES)) for _ in range(2))
    fields = {
        "p4": {"a": draw(st.sampled_from([0, 1])), "lattice": lattice},
        "p5": {"a": draw(st.sampled_from([0.3, 0.2 + 0.4j])), "lattice": lattice},
        "p6_product": {"lattice": lattice, "lattice2": lattice2},
    }.get(family, {})
    return painleve(family, alpha=((a, b), (c, e)), **fields), coord


@given(restricted_coordinates(), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_restricted_certificate_holds_on_all_columns(case, seed):
    """A relation found among f_i(u), f_i(v), f_i(u+v) is one among all 2n + 1
    columns: on fresh rows of every column it vanishes below DEFAULT_RES_TOL
    (in the column-normalized basis the search validates in), and it
    involves f_i(u+v)."""
    d, coord = case
    cert = _aat_search(d, coord, 2, 64, seed)
    assert cert is not None and cert.variables == FAMILIES[d.family].aat[coord].variables
    assert any(e[-1] > 0 for e, _ in cert.support())
    assert helpers.fresh_row_residual(cert, _aat_rows(d, coord), 4, seed) < DEFAULT_RES_TOL
